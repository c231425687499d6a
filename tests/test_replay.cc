#include "core/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fs/key_encoding.h"

namespace d2::core {
namespace {

// Literal-backed views: callers pass string literals, so the records
// never dangle.
trace::TraceRecord rec(trace::TraceRecord::Op op, std::string_view path,
                       Bytes offset = 0, Bytes length = 0,
                       std::string_view path2 = "") {
  return trace::TraceRecord{0, 0, op, path, path2, offset, length};
}

TEST(VolumeSet, RoutesHomePathsToPerUserVolumes) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::string rel;
  fs::Volume& u3 = vs.volume_for("home/u3/docs/a.txt", &rel);
  EXPECT_EQ(u3.name(), "home/u3");
  EXPECT_EQ(rel, "docs/a.txt");
  fs::Volume& u4 = vs.volume_for("home/u4/docs/a.txt", &rel);
  EXPECT_NE(&u3, &u4);
  fs::Volume& u3_again = vs.volume_for("home/u3/other", &rel);
  EXPECT_EQ(&u3, &u3_again);
  EXPECT_EQ(vs.volume_count(), 2u);
}

TEST(VolumeSet, SharedVolumeIsOne) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::string rel;
  fs::Volume& a = vs.volume_for("shared/pkg0/lib.so", &rel);
  EXPECT_EQ(a.name(), "shared");
  EXPECT_EQ(rel, "pkg0/lib.so");
  fs::Volume& b = vs.volume_for("shared/pkg9/lib.so", &rel);
  EXPECT_EQ(&a, &b);
}

TEST(VolumeSet, DifferentVolumesDifferentKeyPrefixes) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kCreate, "home/u1/f", 0, kB(8)), 0, ops);
  vs.apply(rec(trace::TraceRecord::Op::kCreate, "home/u2/f", 0, kB(8)), 0, ops);
  vs.flush_all(0, ops);
  // Puts from different users must carry different 20-byte volume ids.
  std::array<std::uint8_t, 20> vol1{}, vol2{};
  bool got1 = false, got2 = false;
  std::string rel;
  const Key root1 = vs.volume_for("home/u1/f", &rel).root_key();
  const Key root2 = vs.volume_for("home/u2/f", &rel).root_key();
  const auto bytes1 = root1.bytes();
  const auto bytes2 = root2.bytes();
  std::copy(bytes1.begin(), bytes1.begin() + 20, vol1.begin());
  std::copy(bytes2.begin(), bytes2.begin() + 20, vol2.begin());
  got1 = got2 = true;
  EXPECT_TRUE(got1 && got2);
  EXPECT_NE(vol1, vol2);
}

TEST(VolumeSet, ApplyWriteCreatesFile) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kWrite, "home/u1/d/f", 0, kB(20)), 0, ops);
  std::string rel;
  fs::Volume& v = vs.volume_for("home/u1/d/f", &rel);
  EXPECT_TRUE(v.exists("d/f"));
  EXPECT_EQ(v.file_size("d/f"), kB(20));
}

TEST(VolumeSet, ReadOfMissingPathIsDropped) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kRead, "home/u1/nope", 0, kB(8)), 0, ops);
  EXPECT_TRUE(ops.empty());  // defensive ENOENT, no throw
}

TEST(VolumeSet, RemoveOfMissingPathIsDropped) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kRemove, "home/u1/nope"), 0, ops);
  EXPECT_TRUE(ops.empty());
}

TEST(VolumeSet, IncludeReadsFalseSkipsGets) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kWrite, "home/u1/f", 0, kB(64)), 0, ops);
  vs.flush_all(0, ops);
  ops.clear();
  vs.apply(rec(trace::TraceRecord::Op::kRead, "home/u1/f", 0, kB(64)), hours(1),
           ops, /*include_reads=*/false);
  EXPECT_TRUE(ops.empty());
}

TEST(VolumeSet, RenameWithinVolume) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kWrite, "home/u1/a/f", 0, kB(8)), 0, ops);
  vs.apply(rec(trace::TraceRecord::Op::kRename, "home/u1/a/f", 0, 0,
               "home/u1/b/g"),
           0, ops);
  std::string rel;
  fs::Volume& v = vs.volume_for("home/u1/x", &rel);
  EXPECT_FALSE(v.exists("a/f"));
  EXPECT_TRUE(v.exists("b/g"));
}

TEST(VolumeSet, CrossVolumeRenameIsDropped) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  vs.apply(rec(trace::TraceRecord::Op::kWrite, "home/u1/f", 0, kB(8)), 0, ops);
  vs.apply(rec(trace::TraceRecord::Op::kRename, "home/u1/f", 0, 0, "home/u2/f"),
           0, ops);
  std::string rel;
  EXPECT_TRUE(vs.volume_for("home/u1/f", &rel).exists("f"));
  EXPECT_FALSE(vs.volume_for("home/u2/f", &rel).exists("f"));
}

TEST(VolumeSet, InsertInitialPopulatesAndFlushes) {
  VolumeSet vs(fs::KeyScheme::kD2);
  std::vector<fs::StoreOp> ops;
  std::vector<trace::FileSpec> files = {
      {"home/u1/a", kB(8)}, {"home/u1/b", kB(16)}, {"shared/lib", kB(8)}};
  vs.insert_initial(files, 0, ops);
  int puts = 0;
  for (const fs::StoreOp& op : ops) {
    if (op.kind == fs::StoreOp::Kind::kPut) ++puts;
  }
  EXPECT_GT(puts, 3);  // data + metadata blocks
  std::string rel;
  EXPECT_EQ(vs.volume_for("home/u1/a", &rel).file_size("a"), kB(8));
  EXPECT_EQ(vs.volume_for("shared/lib", &rel).file_size("lib"), kB(8));
}

TEST(VolumeSet, VolumeForNormalizesPaths) {
  struct Case {
    std::string_view path;
    std::string_view volume;
    std::string_view relative;
  };
  const Case cases[] = {
      {"/home/u1/a", "home/u1", "a"},  {"home//u1/a/", "home/u1", "a"},
      {"home", "home", ""},            {"home/", "home", ""},
      {"shared//x", "shared", "x"},
  };
  VolumeSet vs(fs::KeyScheme::kD2);
  for (const Case& c : cases) {
    std::string rel = "stale";
    EXPECT_EQ(vs.volume_for(c.path, &rel).name(), c.volume) << c.path;
    EXPECT_EQ(rel, c.relative) << c.path;
  }
  EXPECT_EQ(vs.volume_count(), 3u);  // home/u1, home, shared
}

TEST(VolumeSet, InsertInitialFlushesVolumesInNameOrder) {
  // Touched as shared, home/u10, home/u2: name order is neither the
  // touch order nor the numeric user order.
  VolumeSet vs(fs::KeyScheme::kD2);
  const std::vector<trace::FileSpec> files = {
      {"shared/x", kB(8)}, {"home/u10/a", kB(8)}, {"home/u2/a", kB(8)}};
  std::vector<fs::StoreOp> ops;
  vs.insert_initial(files, 0, ops);
  const std::vector<std::string> names = {"home/u10", "home/u2", "shared"};
  std::vector<std::string> flushed;  // volume of each run of puts
  for (const fs::StoreOp& op : ops) {
    const auto bytes = op.key.bytes();
    for (const std::string& name : names) {
      const fs::VolumeId id = fs::make_volume_id(name);
      if (!std::equal(id.begin(), id.end(), bytes.begin())) continue;
      if (flushed.empty() || flushed.back() != name) flushed.push_back(name);
    }
  }
  EXPECT_EQ(flushed, names);
}

class VolumeSetSchemeSweep : public ::testing::TestWithParam<fs::KeyScheme> {};

TEST_P(VolumeSetSchemeSweep, FullRecordMixReplaysCleanly) {
  VolumeSet vs(GetParam());
  std::vector<fs::StoreOp> ops;
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    t += seconds(1);
    const int u = i % 3;
    const std::string f =
        "home/u" + std::to_string(u) + "/d" + std::to_string(i % 5) + "/f" +
        std::to_string(i % 7);
    vs.apply(rec(trace::TraceRecord::Op::kWrite, f, 0, kB(4) * (1 + i % 4)),
             t, ops);
    if (i % 5 == 0) {
      vs.apply(rec(trace::TraceRecord::Op::kRead, f, 0, kB(16)), t, ops);
    }
    if (i % 11 == 0) {
      vs.apply(rec(trace::TraceRecord::Op::kRemove, f), t, ops);
    }
  }
  vs.flush_all(t, ops);
  // No duplicate puts of the same key without an intervening remove.
  std::map<Key, int> put_counts;
  for (const fs::StoreOp& op : ops) {
    if (op.kind == fs::StoreOp::Kind::kPut) ++put_counts[op.key];
  }
  // Mutable root blocks may repeat; immutable blocks must not.
  for (const auto& [key, count] : put_counts) {
    if (count > 1) {
      bool is_root = false;
      std::string rel;
      for (int u = 0; u < 3; ++u) {
        if (vs.volume_for("home/u" + std::to_string(u) + "/x", &rel)
                .root_key() == key) {
          is_root = true;
        }
      }
      EXPECT_TRUE(is_root) << "immutable block " << key.short_hex()
                           << " written " << count << " times";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, VolumeSetSchemeSweep,
                         ::testing::Values(fs::KeyScheme::kD2,
                                           fs::KeyScheme::kTraditionalBlock,
                                           fs::KeyScheme::kTraditionalFile));

}  // namespace
}  // namespace d2::core
