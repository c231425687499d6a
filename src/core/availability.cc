#include "core/availability.h"

#include <set>
#include <string_view>

#include "common/assert.h"
#include "core/op_batch.h"
#include "core/replay.h"
#include "sim/simulator.h"

namespace d2::core {

AvailabilityExperiment::AvailabilityExperiment(const AvailabilityParams& params)
    : params_(params) {
  D2_REQUIRE(params.failure.node_count >= params.system.node_count);
}

AvailabilityResult AvailabilityExperiment::run() {
  sim::Simulator sim;
  sim.bind_metrics(params_.metrics);
  System system(params_.system, sim, params_.metrics);
  system.set_tracer(params_.tracer);
  VolumeSet volumes(params_.system.scheme);
  volumes.bind_metrics(params_.metrics);
  trace::HarvardGenerator gen(params_.workload);
  OpBatchRunner batch(system, sim);

  // Initial population + load-balance warm-up (§8.1). The initial puts
  // are independent key-local writes at t=0.
  std::vector<fs::StoreOp> ops;
  volumes.insert_initial(gen.initial_files(), 0, ops);
  for (const fs::StoreOp& op : ops) batch.add(op, 0);
  batch.flush();
  system.start_load_balancing();
  sim.run_until(params_.warmup);

  // Failure process starts with the workload.
  sim::FailureTrace failure_trace = sim::FailureTrace::all_up(
      params_.failure.node_count, params_.failure.duration);
  if (params_.enable_failures) {
    Rng frng(params_.failure_seed);
    failure_trace = sim::FailureTrace::generate(params_.failure, frng);
  }
  system.attach_failure_trace(&failure_trace, params_.warmup);

  // Task segmentation and record -> task mapping.
  const std::vector<trace::TraceRecord>& records = gen.records();
  std::vector<trace::Task> tasks =
      trace::segment_tasks(records, params_.inter, params_.task_cap);
  std::vector<std::int32_t> record_task(records.size(), -1);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (std::size_t i : tasks[t].record_indices) {
      record_task[i] = static_cast<std::int32_t>(t);
    }
  }

  struct TaskAgg {
    bool failed = false;
    std::uint64_t blocks = 0;
    // Views into the generator's arena (gen outlives the aggregation).
    std::set<std::string_view> files;
    std::set<int> nodes;
  };
  std::vector<TaskAgg> agg(tasks.size());

  AvailabilityResult result;

  // Replay, batched (core/op_batch.h): each op runs the simulator to its
  // record time and applies there; get outcomes drain into the task
  // aggregates before each global event and at the batch cap.
  auto drain = [&] {
    batch.flush();
    for (const OpBatchRunner::GetOutcome& g : batch.outcomes()) {
      TaskAgg& a = agg[static_cast<std::size_t>(g.tag)];
      ++a.blocks;
      if (!g.known) {
        ++result.unknown_key_gets;
        continue;
      }
      if (!g.available) {
        a.failed = true;
      } else if (g.serving >= 0) {
        a.nodes.insert(g.serving);
      }
    }
  };
  std::vector<fs::StoreOp> rec_ops;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord& r = records[i];
    const SimTime abs_t = params_.warmup + r.time;
    if (batch.should_flush_before(abs_t)) drain();
    rec_ops.clear();
    volumes.apply(r, abs_t, rec_ops);
    const std::int32_t ti = record_task[i];
    for (const fs::StoreOp& op : rec_ops) batch.add(op, abs_t, ti);
    if (ti >= 0) agg[static_cast<std::size_t>(ti)].files.insert(r.path);
  }
  drain();
  // Catch up timer events through the last record, as a per-record loop
  // would (a record without ops leaves the clock where it was).
  if (!records.empty()) sim.run_until(params_.warmup + records.back().time);

  // Aggregate.
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> per_user;  // total, failed
  double blocks_sum = 0, files_sum = 0, nodes_sum = 0;
  std::uint64_t counted = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskAgg& a = agg[t];
    ++result.tasks;
    auto& [total, failed] = per_user[tasks[t].user];
    ++total;
    if (a.failed) {
      ++result.failed_tasks;
      ++failed;
    }
    if (a.blocks > 0) {
      ++counted;
      blocks_sum += static_cast<double>(a.blocks);
      files_sum += static_cast<double>(a.files.size());
      nodes_sum += static_cast<double>(a.nodes.size());
    }
  }
  if (counted > 0) {
    result.mean_blocks_per_task = blocks_sum / static_cast<double>(counted);
    result.mean_files_per_task = files_sum / static_cast<double>(counted);
    result.mean_nodes_per_task = nodes_sum / static_cast<double>(counted);
  }
  for (const auto& [user, counts] : per_user) {
    result.per_user_unavailability[user] =
        counts.first == 0 ? 0.0
                          : static_cast<double>(counts.second) /
                                static_cast<double>(counts.first);
  }
  result.migration_bytes = system.migration_bytes();
  result.lb_moves = system.lb_moves();
  if (params_.metrics != nullptr) {
    sim.export_metrics();
    system.export_metrics();
    volumes.export_metrics();
    params_.metrics->gauge("core.availability.task_unavailability")
        .set(result.task_unavailability());
  }
  return result;
}

}  // namespace d2::core
