#include "core/request_load.h"

#include <vector>

#include "common/assert.h"
#include "common/stats.h"
#include "fs/volume.h"
#include "sim/simulator.h"
#include "store/retrieval_cache.h"

namespace d2::core {

RequestLoadExperiment::RequestLoadExperiment(const RequestLoadParams& params)
    : params_(params) {
  D2_REQUIRE(params.total_files > 0);
  D2_REQUIRE(params.readers > 0);
}

RequestLoadResult RequestLoadExperiment::run() {
  sim::Simulator sim;
  sim.bind_metrics(params_.metrics);
  System system(params_.system, sim, params_.metrics);
  Rng rng(params_.seed);

  // Publish the content volume.
  fs::VolumeConfig vconfig;
  vconfig.scheme = params_.system.scheme;
  fs::Volume volume("content", vconfig);
  std::vector<fs::StoreOp> ops;
  std::vector<std::string> paths;
  paths.reserve(static_cast<std::size_t>(params_.total_files));
  for (int f = 0; f < params_.total_files; ++f) {
    std::string path =
        "lib/d" + std::to_string(f % 20) + "/f" + std::to_string(f);
    volume.write(path, 0, params_.file_size, 0, ops);
    paths.push_back(std::move(path));
  }
  volume.flush(0, ops);
  for (const fs::StoreOp& op : ops) {
    if (op.kind == fs::StoreOp::Kind::kPut) system.put(op.key, op.size);
  }
  if (params_.system.active_load_balance) {
    system.start_load_balancing();
    sim.run_until(days(1));
  }

  // Per-node retrieval caches (shared by co-located readers).
  std::vector<store::RetrievalCache> caches;
  caches.reserve(static_cast<std::size_t>(params_.system.node_count));
  for (int i = 0; i < params_.system.node_count; ++i) {
    caches.emplace_back(params_.retrieval_cache_capacity);
    caches.back().bind_metrics(params_.metrics);
  }
  std::vector<std::int64_t> serves(
      static_cast<std::size_t>(params_.system.node_count), 0);

  // Readers.
  ZipfDistribution popularity(paths.size(), params_.zipf_s);
  RequestLoadResult result;
  for (int reader = 0; reader < params_.readers; ++reader) {
    const int home = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(params_.system.node_count)));
    for (int i = 0; i < params_.reads_per_reader; ++i) {
      const std::string& path = paths[popularity.sample(rng)];
      for (const fs::StoreOp& get : volume.uncached_read_ops(path)) {
        ++result.block_requests;
        const bool cache_enabled = params_.retrieval_cache_capacity > 0;
        if (cache_enabled && caches[static_cast<std::size_t>(home)].lookup(get.key)) {
          continue;  // absorbed locally
        }
        const std::vector<int> replicas = system.replica_nodes(get.key);
        if (replicas.empty()) continue;
        const int server = replicas[rng.next_below(replicas.size())];
        ++serves[static_cast<std::size_t>(server)];
        ++result.remote_serves;
        if (cache_enabled) {
          caches[static_cast<std::size_t>(home)].insert(get.key, get.size);
        }
      }
    }
  }

  Stats s;
  for (std::int64_t v : serves) s.add(static_cast<double>(v));
  if (s.mean() > 0) {
    result.serve_imbalance = s.normalized_stddev();
    result.max_over_mean_serves = s.max() / s.mean();
  }
  if (result.block_requests > 0) {
    result.cache_hit_rate =
        1.0 - static_cast<double>(result.remote_serves) /
                  static_cast<double>(result.block_requests);
  }
  return result;
}

}  // namespace d2::core
