#include "core/balance.h"

#include "common/assert.h"
#include "core/replay.h"
#include "core/system.h"
#include "core/webcache.h"
#include "sim/simulator.h"

namespace d2::core {

double BalanceResult::mean_imbalance() const {
  if (imbalance.empty()) return 0;
  double sum = 0;
  for (const auto& [t, v] : imbalance) sum += v;
  return sum / static_cast<double>(imbalance.size());
}

double BalanceResult::mean_max_over_mean() const {
  if (max_over_mean.empty()) return 0;
  double sum = 0;
  for (double v : max_over_mean) sum += v;
  return sum / static_cast<double>(max_over_mean.size());
}

BalanceExperiment::BalanceExperiment(const BalanceParams& params)
    : params_(params) {}

namespace {
/// Self-rescheduling imbalance sampler. A plain functor (five words of
/// pointers/times) rather than a recursive std::function closure: it
/// fits the event queue's inline capture budget, so the periodic sample
/// chain schedules without heap allocation.
struct ImbalanceSampler {
  sim::Simulator* sim;
  System* system;
  BalanceResult* result;
  SimTime workload_start;
  SimTime interval;

  void operator()() const {
    result->imbalance.emplace_back(sim->now() - workload_start,
                                   system->load_imbalance());
    result->max_over_mean.push_back(system->max_over_mean_load());
    // d2-sched: global — imbalance sample aggregates load across every node
    sim->schedule_after(interval, *this);
  }
};
}  // namespace

BalanceResult BalanceExperiment::run() {
  sim::Simulator sim(sim::ArcConfig{.scheduler = params_.system.scheduler});
  sim.bind_metrics(params_.metrics);
  System system(params_.system, sim, params_.metrics);
  system.set_tracer(params_.tracer);
  BalanceResult result;

  const bool harvard = params_.workload == BalanceWorkload::kHarvard;
  const SimTime workload_start = harvard ? params_.warmup : 0;
  const int trace_days =
      harvard ? params_.harvard.days : params_.web.days;

  // Imbalance sampling, relative to workload start.
  const ImbalanceSampler sample{&sim, &system, &result, workload_start,
                                params_.sample_interval};

  // Day accounting: snapshot counters at each day boundary.
  std::vector<Bytes> w_marks, r_marks, l_marks, totals;
  auto day_mark = [&] {
    w_marks.push_back(system.user_write_bytes());
    r_marks.push_back(system.user_removed_bytes());
    l_marks.push_back(system.migration_bytes());
    totals.push_back(system.block_map().total_bytes());
  };

  if (harvard) {
    VolumeSet volumes(params_.system.scheme);
    trace::HarvardGenerator gen(params_.harvard);
    std::vector<fs::StoreOp> ops;
    volumes.insert_initial(gen.initial_files(), 0, ops);
    for (const fs::StoreOp& op : ops) {
      if (op.kind == fs::StoreOp::Kind::kPut) system.put(op.key, op.size);
    }
    system.start_load_balancing();
    sim.run_until(params_.warmup);
    // d2-sched: global — kicks off the whole-system imbalance sampler
    sim.schedule_after(0, sample);

    int next_day = 0;
    std::vector<fs::StoreOp> rec_ops;
    for (const trace::TraceRecord& r : gen.records()) {
      const SimTime abs_t = workload_start + r.time;
      while (next_day <= trace_days && r.time >= days(next_day)) {
        sim.run_until(workload_start + days(next_day));
        day_mark();
        ++next_day;
      }
      sim.run_until(abs_t);
      rec_ops.clear();
      volumes.apply(r, abs_t, rec_ops, /*include_reads=*/false);
      for (const fs::StoreOp& op : rec_ops) {
        if (op.kind == fs::StoreOp::Kind::kPut) {
          system.put(op.key, op.size);
        } else if (op.kind == fs::StoreOp::Kind::kRemove) {
          system.remove(op.key);
        }
      }
    }
    while (next_day <= trace_days) {
      sim.run_until(workload_start + days(next_day));
      day_mark();
      ++next_day;
    }
  } else {
    // Webcache: the DHT starts empty; every record is a client request.
    WebCache cache(system, params_.system.scheme);
    trace::WebGenerator gen(params_.web);
    system.start_load_balancing();
    // d2-sched: global — kicks off the whole-system imbalance sampler
    sim.schedule_after(0, sample);

    int next_day = 0;
    for (const trace::TraceRecord& r : gen.records()) {
      while (next_day <= trace_days && r.time >= days(next_day)) {
        sim.run_until(days(next_day));
        day_mark();
        ++next_day;
      }
      sim.run_until(r.time);
      cache.request(r.path, std::max<Bytes>(r.length, 1));
    }
    while (next_day <= trace_days) {
      sim.run_until(days(next_day));
      day_mark();
      ++next_day;
    }
  }

  // Turn cumulative marks into per-day rows. marks[0] is the workload
  // start (day 0 boundary); day i spans marks[i] .. marks[i+1].
  for (std::size_t i = 0; i + 1 < w_marks.size(); ++i) {
    DayStats d;
    d.written = w_marks[i + 1] - w_marks[i];
    d.removed = r_marks[i + 1] - r_marks[i];
    d.migrated = l_marks[i + 1] - l_marks[i];
    d.total_at_start = totals[i];
    result.days.push_back(d);
  }
  result.lb_moves = system.lb_moves();
  if (params_.metrics != nullptr) {
    sim.export_metrics();
    system.export_metrics();
    params_.metrics->gauge("core.balance.load_imbalance")
        .set(system.load_imbalance());
    params_.metrics->gauge("core.balance.max_over_mean_load")
        .set(system.max_over_mean_load());
  }
  return result;
}

}  // namespace d2::core
