#include "core/webcache.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "dht/consistent_hash.h"
#include "fs/key_encoding.h"

namespace d2::core {

namespace {
constexpr SimTime kSweepInterval = minutes(30);

// FNV avalanches poorly in the high bits for short, similar strings;
// finalize with a murmur3-style mixer before deriving probabilities.
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}
}  // namespace

WebCache::WebCache(System& system, fs::KeyScheme scheme, WebCacheConfig config)
    : system_(system),
      scheme_(scheme),
      config_(config),
      web_volume_id_(fs::make_volume_id("webcache")) {
  D2_REQUIRE(config_.eviction_ttl > 0);
  D2_REQUIRE(config_.dynamic_fraction >= 0 && config_.dynamic_fraction <= 1);
  D2_REQUIRE(config_.min_change_interval > 0);
  D2_REQUIRE(config_.max_change_interval >= config_.min_change_interval);
  schedule_sweep();
}

Key WebCache::key_for(std::string_view url) const {
  if (scheme_ == fs::KeyScheme::kD2) {
    const std::string reversed = fs::reverse_domain_url(url);
    const fs::EncodedPath path = fs::encode_url_path(reversed);
    return fs::encode_block_key(web_volume_id_, path, fs::BlockType::kData, 0, 0);
  }
  return dht::hashed_key(url);
}

SimTime WebCache::change_interval(std::string_view url) const {
  if (config_.dynamic_fraction <= 0) return kSimTimeNever;
  // Deterministic per-URL classification and interval.
  const std::uint64_t h = mix64(fnv1a64(url));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= config_.dynamic_fraction) return kSimTimeNever;
  const std::uint64_t h2 = mix64(fnv1a64(std::string(url) + "#interval"));
  const auto span = static_cast<std::uint64_t>(config_.max_change_interval -
                                               config_.min_change_interval + 1);
  return config_.min_change_interval + static_cast<SimTime>(h2 % span);
}

bool WebCache::request(std::string_view url, Bytes size) {
  const Key k = key_for(url);
  const SimTime now = system_.simulator().now();
  const SimTime interval = change_interval(url);
  const std::int64_t epoch =
      interval == kSimTimeNever ? 0 : static_cast<std::int64_t>(now / interval);

  auto it = entries_.find(k);
  if (it != entries_.end() && system_.has(k)) {
    it->second.last_access = now;
    if (it->second.version_epoch == epoch) {
      ++hits_;
      return true;
    }
    // The origin has a newer version: re-fetch and replace in the DHT.
    ++version_replacements_;
    it->second.version_epoch = epoch;
    system_.put(k, size);
    return false;
  }
  // Miss: the client fetches from the origin and inserts the object.
  system_.put(k, size);
  entries_[k] = Entry{now, epoch};
  ++misses_;
  return false;
}

void WebCache::schedule_sweep() {
  // d2-sched: global — the TTL sweep walks every cached entry
  system_.simulator().schedule_after(kSweepInterval, [this] {
    sweep();
    schedule_sweep();
  });
}

void WebCache::sweep() {
  const SimTime now = system_.simulator().now();
  std::vector<Key> expired;
  // d2-lint: allow(unordered-iter) — hash-order walk is collected into
  // `expired` and sorted below before any side effect, so removal (and
  // therefore event) order is key order, not hash order.
  for (const auto& [key, entry] : entries_) {
    if (now - entry.last_access >= config_.eviction_ttl) expired.push_back(key);
  }
  // remove() schedules simulator events; sort so their order (and every
  // downstream event sequence number) is independent of hash layout.
  std::sort(expired.begin(), expired.end());
  for (const Key& k : expired) {
    if (system_.has(k)) system_.remove(k);
    entries_.erase(k);
  }
}

}  // namespace d2::core
