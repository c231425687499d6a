#include "core/replay.h"

#include <algorithm>

#include "common/assert.h"
#include "fs/key_encoding.h"

namespace d2::core {

VolumeSet::VolumeSet(fs::KeyScheme scheme, SimTime writeback_ttl)
    : scheme_(scheme), writeback_ttl_(writeback_ttl) {}

fs::Volume& VolumeSet::volume_for(std::string_view path,
                                  std::string* relative) {
  // "home/uN/rest" -> volume "home/uN"; "shared/rest" -> volume "shared";
  // anything else -> volume = first component.
  std::size_t pos = 0;
  const std::string_view first = fs::next_path_component(path, &pos);
  D2_REQUIRE_MSG(!first.empty(), "empty path");
  name_buf_.assign(first);
  if (first == "home") {
    std::size_t user_end = pos;
    const std::string_view user = fs::next_path_component(path, &user_end);
    if (!user.empty()) {
      name_buf_.push_back('/');
      name_buf_.append(user);
      pos = user_end;
    }
  }
  relative->clear();
  for (std::string_view c = fs::next_path_component(path, &pos); !c.empty();
       c = fs::next_path_component(path, &pos)) {
    if (!relative->empty()) relative->push_back('/');
    relative->append(c);
  }
  auto it = volumes_.find(name_buf_);
  if (it == volumes_.end()) {
    fs::VolumeConfig config;
    config.scheme = scheme_;
    config.writeback_ttl = writeback_ttl_;
    it = volumes_
             .emplace(name_buf_,
                      std::make_unique<fs::Volume>(name_buf_, config))
             .first;
    it->second->bind_metrics(metrics_);
  }
  return *it->second;
}

void VolumeSet::bind_metrics(obs::Registry* registry) {
  metrics_ = registry;
  // d2-lint: allow(unordered-iter) — binding is per volume; order-free.
  for (auto& [name, vol] : volumes_) vol->bind_metrics(registry);
}

void VolumeSet::export_metrics() const {
  if (metrics_ == nullptr) return;
  std::size_t cache_bytes = 0;
  // d2-lint: allow(unordered-iter) — a sum over volumes; order-free.
  for (const auto& [name, vol] : volumes_) {
    cache_bytes += vol->writeback_cache_bytes();
  }
  metrics_->gauge("fs.volumes").set(static_cast<double>(volumes_.size()));
  metrics_->gauge("fs.writeback_cache_bytes")
      .set(static_cast<double>(cache_bytes));
}

void VolumeSet::apply(const trace::TraceRecord& r, SimTime now,
                      std::vector<fs::StoreOp>& out, bool include_reads) {
  std::string& rel = rel_buf_;
  switch (r.op) {
    case trace::TraceRecord::Op::kRead: {
      fs::Volume& v = volume_for(r.path, &rel);
      if (!include_reads) return;
      if (!v.is_file(rel)) return;
      v.read(rel, r.offset, r.length, now, out);
      return;
    }
    case trace::TraceRecord::Op::kWrite:
    case trace::TraceRecord::Op::kCreate: {
      fs::Volume& v = volume_for(r.path, &rel);
      if (v.is_directory(rel)) return;
      v.write(rel, r.offset, r.length, now, out);
      return;
    }
    case trace::TraceRecord::Op::kRemove: {
      fs::Volume& v = volume_for(r.path, &rel);
      if (!v.exists(rel)) return;
      v.remove(rel, now, out);
      return;
    }
    case trace::TraceRecord::Op::kRename: {
      fs::Volume& v = volume_for(r.path, &rel);
      fs::Volume& v_to = volume_for(r.path2, &rel_to_buf_);
      // Cross-volume renames degenerate to keeping the file where it is
      // (single-writer volumes cannot adopt another volume's blocks).
      if (&v != &v_to) return;
      if (!v.exists(rel) || v.exists(rel_to_buf_)) return;
      v.rename(rel, rel_to_buf_, now, out);
      return;
    }
    case trace::TraceRecord::Op::kMkdir: {
      fs::Volume& v = volume_for(r.path, &rel);
      if (rel.empty() || v.exists(rel)) return;
      v.mkdir(rel, now, out);
      return;
    }
  }
}

void VolumeSet::insert_initial(const std::vector<trace::FileSpec>& files,
                               SimTime now, std::vector<fs::StoreOp>& out) {
  for (const trace::FileSpec& f : files) {
    D2_REQUIRE_MSG(f.size >= 0, "initial file with negative size");
    fs::Volume& v = volume_for(f.path, &rel_buf_);
    v.write(rel_buf_, 0, f.size, now, out);
  }
  flush_all(now, out);
}

void VolumeSet::flush_all(SimTime now, std::vector<fs::StoreOp>& out) {
  std::vector<fs::Volume*> order;
  order.reserve(volumes_.size());
  // d2-lint: allow(unordered-iter) — collected, then sorted by name below.
  for (auto& [name, vol] : volumes_) order.push_back(vol.get());
  std::sort(order.begin(), order.end(),
            [](const fs::Volume* a, const fs::Volume* b) {
              return a->name() < b->name();
            });
  for (fs::Volume* vol : order) vol->flush(now, out);
}

}  // namespace d2::core
