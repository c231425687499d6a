// Pairwise wide-area latency model.
//
// Substitutes for the measured King-dataset latencies the paper uses on
// Emulab (§9.1): nodes get coordinates in a 2-D Euclidean embedding plus a
// deterministic per-pair jitter, scaled so the mean RTT matches a target
// (90 ms, the mean the paper reports) with several-100-ms spread. The
// matrix is symmetric and deterministic given the seed.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace d2::net {

class LatencyModel {
 public:
  /// Builds a model for `node_count` endpoints. `mean_rtt_ms` sets the
  /// average pairwise round-trip time.
  LatencyModel(int node_count, Rng& rng, double mean_rtt_ms = 90.0);

  int node_count() const { return static_cast<int>(x_.size()); }

  /// Round-trip time between two distinct nodes; rtt(a, a) is a small
  /// loopback constant.
  SimTime rtt(int a, int b) const;

  /// One-way latency = rtt / 2.
  SimTime one_way(int a, int b) const { return rtt(a, b) / 2; }

  /// Empirical mean RTT in milliseconds over all distinct pairs (sampled).
  double measured_mean_rtt_ms(Rng& rng, int samples = 20000) const;

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> jitter_ms_;  // per-node access-link delay component
  double scale_ms_ = 1.0;
  double base_ms_ = 4.0;
};

}  // namespace d2::net
