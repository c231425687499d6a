#include "net/latency.h"

#include <cmath>

#include "common/assert.h"

namespace d2::net {

LatencyModel::LatencyModel(int node_count, Rng& rng, double mean_rtt_ms) {
  D2_REQUIRE(node_count > 0);
  D2_REQUIRE(mean_rtt_ms > 0);
  x_.resize(static_cast<std::size_t>(node_count));
  y_.resize(static_cast<std::size_t>(node_count));
  jitter_ms_.resize(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    x_[static_cast<std::size_t>(i)] = rng.next_double();
    y_[static_cast<std::size_t>(i)] = rng.next_double();
    // Heavy-tailed access-link component: most nodes are near the core,
    // a few are far away (produces the several-100-ms pairs the paper
    // mentions).
    jitter_ms_[static_cast<std::size_t>(i)] =
        std::min(400.0, rng.pareto(2.0, 1.15));
  }
  // Mean pairwise distance of uniform points in the unit square ~ 0.5214.
  // Mean jitter contribution = 2 * E[jitter]. Solve for scale so the
  // expected rtt matches the target.
  double mean_jitter = 0;
  for (double j : jitter_ms_) mean_jitter += j;
  mean_jitter /= static_cast<double>(node_count);
  const double target_dist_ms = mean_rtt_ms - base_ms_ - 2.0 * mean_jitter;
  scale_ms_ = std::max(1.0, target_dist_ms / 0.5214);
}

SimTime LatencyModel::rtt(int a, int b) const {
  D2_REQUIRE(a >= 0 && a < node_count() && b >= 0 && b < node_count());
  if (a == b) return milliseconds(1);
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  const double dx = x_[ia] - x_[ib];
  const double dy = y_[ia] - y_[ib];
  const double dist = std::sqrt(dx * dx + dy * dy);
  const double ms = base_ms_ + scale_ms_ * dist + jitter_ms_[ia] + jitter_ms_[ib];
  return static_cast<SimTime>(ms * 1000.0);
}

double LatencyModel::measured_mean_rtt_ms(Rng& rng, int samples) const {
  D2_REQUIRE(samples > 0);
  const int n = node_count();
  if (n < 2) return 1.0;
  double sum = 0;
  for (int s = 0; s < samples; ++s) {
    int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int b;
    do {
      b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    } while (b == a);
    sum += static_cast<double>(rtt(a, b)) / 1000.0;
  }
  return sum / samples;
}

}  // namespace d2::net
