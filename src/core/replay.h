// Trace replay plumbing: routes trace records into per-user volumes.
//
// Following the paper's usage assumptions (§3), each user's home subtree
// is its own single-writer volume ("home/uN"), and there is one shared
// read-mostly volume ("shared"). A volume's embedded 30-second write-back
// / buffer cache therefore acts as that user's client cache. (The shared
// volume's buffer cache is shared between readers — a small optimistic
// artifact affecting ~5% of reads; see DESIGN.md.)
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fs/volume.h"
#include "obs/metrics.h"
#include "trace/workload.h"

namespace d2::core {

class VolumeSet {
 public:
  explicit VolumeSet(fs::KeyScheme scheme,
                     SimTime writeback_ttl = seconds(30));

  /// Applies one trace record; store operations are appended to `out`.
  /// Reads can be skipped entirely (they never change store contents) by
  /// passing include_reads = false — the balance experiments do this.
  /// Records referencing paths that no longer exist are dropped (the
  /// defensive behaviour of a real client hitting ENOENT).
  void apply(const trace::TraceRecord& r, SimTime now,
             std::vector<fs::StoreOp>& out, bool include_reads = true);

  /// Creates the pre-trace file population and flushes it.
  void insert_initial(const std::vector<trace::FileSpec>& files, SimTime now,
                      std::vector<fs::StoreOp>& out);

  /// Flushes every volume's write-back cache, in volume-name order.
  void flush_all(SimTime now, std::vector<fs::StoreOp>& out);

  /// Volume (and in-volume relative path, with empty components dropped)
  /// responsible for `path`. Reuses `*relative`'s capacity.
  fs::Volume& volume_for(std::string_view path, std::string* relative);

  std::size_t volume_count() const { return volumes_.size(); }

  /// Binds every volume's write-back cache (existing and future) to
  /// `registry`. Pass nullptr to unbind.
  void bind_metrics(obs::Registry* registry);

  /// Snapshots `fs.volumes` (the volume count) and
  /// `fs.writeback_cache_bytes` (every write-back cache's allocated
  /// bytes) into the bound registry; call before dumping, next to
  /// System::export_metrics. Does nothing when unbound.
  void export_metrics() const;

 private:
  fs::KeyScheme scheme_;
  SimTime writeback_ttl_;
  obs::Registry* metrics_ = nullptr;
  /// Volumes by name. bind_metrics walks them in hash order (binding is
  /// order-free); flush_all sorts them by name first.
  // d2-lint: allow(unordered-container) — keyed lookup; no walk leaks order
  std::unordered_map<std::string, std::unique_ptr<fs::Volume>> volumes_;
  // Reused parse buffers: a steady-state apply() allocates nothing.
  std::string name_buf_;
  std::string rel_buf_;
  std::string rel_to_buf_;
};

}  // namespace d2::core
