// Micro-benchmarks (google-benchmark) for the hot primitives: key
// arithmetic, Fig-4 encoding, SHA-1, ring/router operations, lookup-cache
// probes, block-map point lookups and range scans, sorted-index run
// inserts, the event queue (both closure tiers), and a mini end-to-end
// System write/read trial.
//
// tools/bench_to_json.py wraps this binary and emits BENCH_micro.json;
// the committed baseline/after snapshots track the perf trajectory of the
// hot-path data layout (see DESIGN.md, "Hot-path data layout").
//
// The key benchmarks rotate through a pre-generated array of random keys
// so the measured operation cannot be hoisted out of the loop as a
// loop-invariant computation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/key.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/system.h"
#include "dht/consistent_hash.h"
#include "dht/ring.h"
#include "dht/router.h"
#include "fs/key_encoding.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/timing_wheel.h"
#include "store/block_index.h"
#include "store/block_map.h"
#include "store/ec.h"
#include "store/lookup_cache.h"
#include "store/retrieval_cache.h"

namespace d2 {
namespace {

constexpr std::size_t kKeyPoolSize = 1024;  // power of two (mask indexing)

std::vector<Key> key_pool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys;
  keys.reserve(kKeyPoolSize);
  for (std::size_t i = 0; i < kKeyPoolSize; ++i) keys.push_back(Key::random(rng));
  return keys;
}

void BM_KeyCompare(benchmark::State& state) {
  const std::vector<Key> keys = key_pool(1);
  std::size_t i = 0;
  for (auto _ : state) {
    const bool lt = keys[i & (kKeyPoolSize - 1)] < keys[(i + 1) & (kKeyPoolSize - 1)];
    benchmark::DoNotOptimize(lt);
    ++i;
  }
}
BENCHMARK(BM_KeyCompare);

// In-chunk search as SortedKeyIndex does it: std::lower_bound over a
// 128-key sorted run (kMaxChunk) with Key's limb-wise compare.
void BM_KeyCompareBatch(benchmark::State& state) {
  std::vector<Key> keys = key_pool(20);
  keys.resize(128);
  std::sort(keys.begin(), keys.end());
  const std::vector<Key> probes = key_pool(21);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::lower_bound(
        keys.begin(), keys.end(), probes[i & (kKeyPoolSize - 1)]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyCompareBatch);

void BM_KeyAdd(benchmark::State& state) {
  const std::vector<Key> keys = key_pool(2);
  Key acc;
  std::size_t i = 0;
  for (auto _ : state) {
    acc = acc + keys[i & (kKeyPoolSize - 1)];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}
BENCHMARK(BM_KeyAdd);

void BM_KeySub(benchmark::State& state) {
  const std::vector<Key> keys = key_pool(12);
  Key acc = Key::max();
  std::size_t i = 0;
  for (auto _ : state) {
    acc = acc - keys[i & (kKeyPoolSize - 1)];
    benchmark::DoNotOptimize(acc);
    ++i;
  }
}
BENCHMARK(BM_KeySub);

void BM_KeyMidpoint(benchmark::State& state) {
  const std::vector<Key> keys = key_pool(13);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Key::midpoint(keys[i & (kKeyPoolSize - 1)],
                                           keys[(i + 1) & (kKeyPoolSize - 1)]));
    ++i;
  }
}
BENCHMARK(BM_KeyMidpoint);

void BM_KeyInArc(benchmark::State& state) {
  const std::vector<Key> keys = key_pool(3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Key::in_arc(keys[i & (kKeyPoolSize - 1)],
                                         keys[(i + 1) & (kKeyPoolSize - 1)],
                                         keys[(i + 2) & (kKeyPoolSize - 1)]));
    ++i;
  }
}
BENCHMARK(BM_KeyInArc);

void BM_EncodeBlockKey(benchmark::State& state) {
  const fs::VolumeId vol = fs::make_volume_id("vol");
  fs::EncodedPath p;
  for (int i = 1; i <= 6; ++i) {
    p = fs::extend_path(p, static_cast<std::uint16_t>(i), "dir");
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fs::encode_block_key(vol, p, fs::BlockType::kData, n++ & 0xffff, 3));
  }
}
BENCHMARK(BM_EncodeBlockKey);

void BM_HashedKey(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dht::hashed_key("vol|/home/u1/project/file" + std::to_string(n++)));
  }
}
BENCHMARK(BM_HashedKey);

// (6,3) Reed–Solomon encode of an 8 KB block: 3 parity fragments of
// 1366 bytes each. The program itself only codes 128-byte payloads
// (core/repair.cc); this sizes the codec for a whole logical block.
void BM_EcEncode_8KB(benchmark::State& state) {
  const store::ErasureCodec codec(6, 3);
  Rng rng(17);
  std::vector<std::uint8_t> block(8192);
  for (std::uint8_t& b : block) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_EcEncode_8KB);

// Worst-case decode: all three data-fragment erasures, so every output
// byte goes through the inverted-submatrix multiply.
void BM_EcDecode_8KB(benchmark::State& state) {
  const store::ErasureCodec codec(6, 3);
  Rng rng(18);
  std::vector<std::uint8_t> block(8192);
  for (std::uint8_t& b : block) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  const std::vector<std::vector<std::uint8_t>> frags = codec.encode(block);
  const std::vector<int> present = {3, 4, 5, 6, 7, 8};
  std::vector<const std::uint8_t*> ptrs;
  for (int idx : present) {
    ptrs.push_back(frags[static_cast<std::size_t>(idx)].data());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec.decode(present, ptrs, static_cast<Bytes>(block.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_EcDecode_8KB);

void BM_Sha1_8KB(benchmark::State& state) {
  const std::string data(8192, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_Sha1_8KB);

void BM_RingOwner(benchmark::State& state) {
  Rng rng(4);
  dht::Ring ring;
  for (int i = 0; i < state.range(0); ++i) {
    Key id = dht::random_node_id(rng);
    while (ring.id_taken(id)) id = dht::random_node_id(rng);
    ring.add(i, id);
  }
  Key k = Key::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(k));
    k = k + Key::from_uint64(0x123456789);
  }
}
BENCHMARK(BM_RingOwner)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RingReplicaSet(benchmark::State& state) {
  // The per-block-op hot loop of System::put / reassign_block: resolve the
  // r successors of a key's owner (found once per key outside the loop,
  // as Ring::owner has its own benchmark) into a reused vector.
  Rng rng(14);
  dht::Ring ring;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    Key id = dht::random_node_id(rng);
    while (ring.id_taken(id)) id = dht::random_node_id(rng);
    ring.add(i, id);
  }
  std::vector<int> owners;
  for (const Key& k : key_pool(15)) owners.push_back(ring.owner(k));
  const auto all_up = [](int) { return true; };
  std::vector<int> set;
  std::size_t i = 0;
  for (auto _ : state) {
    ring.successors(owners[i & (kKeyPoolSize - 1)], 4, all_up, set);
    benchmark::DoNotOptimize(set.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingReplicaSet)->Arg(100)->Arg(1000);

void BM_RouterLookup(benchmark::State& state) {
  Rng rng(5);
  dht::Ring ring;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    Key id = dht::random_node_id(rng);
    while (ring.id_taken(id)) id = dht::random_node_id(rng);
    ring.add(i, id);
  }
  dht::Router router(ring, rng);
  Key k = Key::random(rng);
  std::int64_t hops = 0;
  for (auto _ : state) {
    const auto res = router.lookup(0, k);
    hops += res.hops;
    benchmark::DoNotOptimize(res.owner);
    k = k + Key::from_uint64(0x9876543210);
  }
  state.counters["hops"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RouterLookup)->Arg(200)->Arg(1000);

void BM_LookupCacheFind(benchmark::State& state) {
  store::LookupCache cache(hours(100));
  Rng rng(6);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.insert(0, static_cast<int>(i), Key::from_uint64(i * 1000),
                 Key::from_uint64((i + 1) * 1000));
  }
  std::uint64_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(1, Key::from_uint64(q % 1000000)));
    q += 777;
  }
}
BENCHMARK(BM_LookupCacheFind);

void BM_BlockMapArcScan(benchmark::State& state) {
  store::BlockMap map(16);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    map.insert(Key::random(rng), kBlockSize, {i % 16});
  }
  for (auto _ : state) {
    const Key from = Key::random(rng);
    const Key to = from + Key::from_uint64(1) + Key::random(rng).half().half();
    int count = 0;
    const_cast<store::BlockMap&>(map).for_each_in_arc(
        from, to, [&count](const Key&, store::BlockState&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BlockMapArcScan);

void BM_BlockMapFind(benchmark::State& state) {
  // Point lookups over D2 keys as the workloads store them: four volumes
  // of files in nested directories, so every key of a volume shares its
  // 20-byte volume prefix and keys differ only in their path slots and
  // block numbers. Probes walk the stored keys in a scrambled order; the
  // cost is the index search plus the slab indirection from slot to
  // block state.
  store::BlockMap map(16);
  std::vector<Key> keys;
  for (int v = 0; v < 4; ++v) {
    const fs::VolumeId vol = fs::make_volume_id("user" + std::to_string(v));
    for (std::uint16_t d = 1; d <= 32; ++d) {
      const fs::EncodedPath dir = fs::extend_path({}, d, "dir");
      for (std::uint16_t f = 1; f <= 32; ++f) {
        const fs::EncodedPath file = fs::extend_path(dir, f, "file");
        for (std::uint64_t b = 0; b < 24; ++b) {
          keys.push_back(
              fs::encode_block_key(vol, file, fs::BlockType::kData, b, 0));
          map.insert(keys.back(), kBlockSize, {static_cast<int>(b % 16)});
        }
      }
    }
  }
  const std::size_t n = keys.size();  // 98,304
  std::size_t i = 0;
  Bytes found = 0;
  for (auto _ : state) {
    found += map.find(keys[(i * 7919) % n])->size;
    ++i;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockMapFind);

void BM_BlockMapRangeScan(benchmark::State& state) {
  // The load balancer's owned-arc walk: narrow arcs (~1/64 of the ring,
  // one node's share), visiting every block key in range. This is the
  // per-probe cost of median_primary_key / readjust_arc.
  store::BlockMap map(64);
  Rng rng(16);
  const int blocks = static_cast<int>(state.range(0));
  for (int i = 0; i < blocks; ++i) {
    map.insert(Key::random(rng), kBlockSize, {i % 64});
  }
  // Arc width ~= 2^512 / 64: walk from a random key for that span.
  Key span = Key::max();
  for (int i = 0; i < 6; ++i) span = span.half();
  Bytes touched = 0;
  for (auto _ : state) {
    const Key from = Key::random(rng);
    const Key to = from + span;
    const_cast<store::BlockMap&>(map).for_each_in_arc(
        from, to,
        [&touched](const Key&, store::BlockState& b) { touched += b.size; });
    benchmark::DoNotOptimize(touched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (blocks / 64));
}
BENCHMARK(BM_BlockMapRangeScan)->Arg(20000)->Arg(100000);

void BM_SortedKeyIndexAscendingRuns(benchmark::State& state) {
  // A volume's blocks reach the block map as ascending key runs (§4.2:
  // keys sort in preorder), landing between keys already stored. That is
  // the insert path where an overflowing chunk spills into a neighbour
  // before it splits. Each iteration rebuilds 4096 spaced keys untimed,
  // then times 8 runs of 512 keys, each between two of them.
  constexpr std::uint64_t kExisting = 4096;
  constexpr std::uint64_t kRuns = 8;
  constexpr std::uint64_t kRunLength = 512;
  store::SortedKeyIndex<store::BlockState> idx;
  for (auto _ : state) {
    state.PauseTiming();
    idx.clear();
    for (std::uint64_t i = 0; i < kExisting; ++i) {
      idx.insert(Key::from_uint64(i << 32), store::BlockState{});
    }
    state.ResumeTiming();
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      const std::uint64_t gap = (r * 509 % kExisting) << 32;
      for (std::uint64_t j = 1; j <= kRunLength; ++j) {
        idx.insert(Key::from_uint64(gap + j), store::BlockState{});
      }
    }
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRuns * kRunLength));
}
BENCHMARK(BM_SortedKeyIndexAscendingRuns);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.push((i * 7919) % 1000, [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventQueuePushPop(benchmark::State& state) {
  // Steady-state simulator loop with cancellations: a warm queue where
  // each iteration pushes a batch, cancels a third of it (timer churn:
  // fetch retries, TTL refreshes), and pops a batch. The queue never
  // drains, so slot recycling (not first-touch growth) is measured.
  sim::EventQueue q;
  sim::EventId ids[256];
  std::uint64_t t = 0;
  for (int i = 0; i < 4096; ++i) q.push(t + (i * 7919) % 4096, [] {});
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      ids[i] = q.push(t + 1 + (i * 127) % 1024, [] {});
    }
    for (int i = 0; i < 256; i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 170; ++i) {
      sim::EventQueue::Event ev = q.pop();
      t = ev.time;
      benchmark::DoNotOptimize(ev.id);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_EventQueuePushPop);

/// The BM_EventQueuePushPop churn loop with closures built by
/// `make(key, t)`, run after popping (so the closure is copied out of
/// its slot or overflow entry).
template <class Make>
void event_queue_closure_churn(benchmark::State& state, Make&& make) {
  sim::EventQueue q;
  sim::EventId ids[256];
  const std::vector<Key> keys = key_pool(19);
  std::uint64_t t = 0;
  for (int i = 0; i < 4096; ++i) {
    q.push(t + (i * 7919) % 4096,
           make(keys[static_cast<std::size_t>(i) & (kKeyPoolSize - 1)], t));
  }
  std::size_t n = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      ids[i] = q.push(t + 1 + (i * 127) % 1024,
                      make(keys[n++ & (kKeyPoolSize - 1)], t));
    }
    for (int i = 0; i < 256; i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 170; ++i) {
      sim::EventQueue::Event ev = q.pop();
      t = ev.time;
      ev.fn();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

void BM_EventQueuePushPopClosure_Inline(benchmark::State& state) {
  // Closures shaped like System's fetch timer and completion, {this,
  // BlockHandle, node} = 24 bytes: built in their slot.
  std::uint64_t sink = 0;
  event_queue_closure_churn(state, [&sink](const Key& k, std::uint64_t d) {
    auto fn = [p = &sink, h = k.low64(), node = static_cast<int>(d & 0xff)] {
      *p += h + static_cast<std::uint64_t>(node);
    };
    static_assert(sim::kFitsInlineEvent<decltype(fn)>);
    return fn;
  });
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueuePushPopClosure_Inline);

void BM_EventQueuePushPopClosure_Overflow(benchmark::State& state) {
  // Closures shaped like System's TTL-refresh timer, {this, Key,
  // deadline} = 80 bytes: built in the overflow tier. A type-erased
  // std::function heap-allocates such a capture on every push; the event
  // queue is only truly allocation-free if the callback storage is
  // inline.
  std::uint64_t sink = 0;
  event_queue_closure_churn(state, [&sink](const Key& k, std::uint64_t d) {
    auto fn = [p = &sink, k, d] { *p += k.low64() + d; };
    static_assert(!sim::kFitsInlineEvent<decltype(fn)>);
    return fn;
  });
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueuePushPopClosure_Overflow);

void BM_EventQueuePushPop_Heap(benchmark::State& state) {
  // The BM_EventQueuePushPop churn loop on the reference heap backend
  // (`--scheduler heap`): the wheel-vs-heap delta on identical work.
  sim::EventQueue q(sim::SchedulerKind::kHeap);
  sim::EventId ids[256];
  std::uint64_t t = 0;
  for (int i = 0; i < 4096; ++i) q.push(t + (i * 7919) % 4096, [] {});
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      ids[i] = q.push(t + 1 + (i * 127) % 1024, [] {});
    }
    for (int i = 0; i < 256; i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 170; ++i) {
      sim::EventQueue::Event ev = q.pop();
      t = ev.time;
      benchmark::DoNotOptimize(ev.id);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_EventQueuePushPop_Heap);

void BM_TimingWheelPushPop(benchmark::State& state) {
  // The raw wheel without the EventQueue slab around it: steady-state
  // insert/cancel/pop churn on a warm resident population, measuring
  // pure scheduler cost (bucket placement, intrusive unlink, head
  // refresh) with caller-managed slot recycling.
  sim::TimingWheel w;
  constexpr std::uint32_t kSlots = 8192;
  w.ensure_capacity(kSlots);
  std::vector<std::uint32_t> free_slots;
  for (std::uint32_t s = kSlots; s-- > 0;) free_slots.push_back(s);
  SimTime t = 0;
  for (int i = 0; i < 4096; ++i) {
    const std::uint32_t s = free_slots.back();
    free_slots.pop_back();
    w.insert(s, (i * 7919) % 4096);
  }
  std::uint32_t batch[256];
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      batch[i] = free_slots.back();
      free_slots.pop_back();
      w.insert(batch[i], t + 1 + (i * 127) % 1024);
    }
    for (int i = 0; i < 256; i += 3) {
      w.remove(batch[i]);
      free_slots.push_back(batch[i]);
    }
    for (int i = 0; i < 170; ++i) {
      const std::uint32_t s = w.pop_min();
      t = w.slot_time(s);
      free_slots.push_back(s);
      benchmark::DoNotOptimize(s);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_TimingWheelPushPop);

void BM_TimingWheelCascade(benchmark::State& state) {
  // Worst-case cascading: each round scatters events across every wheel
  // level (offsets span ~2^42 µs) relative to the advancing cursor, then
  // drains, so pops repeatedly tear multi-level buckets down to level 0.
  sim::TimingWheel w;
  constexpr std::uint32_t kEvents = 4096;
  w.ensure_capacity(kEvents);
  std::vector<SimTime> offsets;
  offsets.reserve(kEvents);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    offsets.push_back(static_cast<SimTime>(
        (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull) &
        ((std::uint64_t{1} << 42) - 1)));
  }
  for (auto _ : state) {
    const SimTime base = w.cursor();
    for (std::uint32_t s = 0; s < kEvents; ++s) {
      w.insert(s, base + offsets[s]);
    }
    while (!w.empty()) benchmark::DoNotOptimize(w.pop_min());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kEvents);
}
BENCHMARK(BM_TimingWheelCascade);

void BM_RetrievalCacheLookupInsert(benchmark::State& state) {
  // Steady-state PAST-style read cache at capacity: a hot working set
  // that mostly hits (LRU splice) interleaved with a cold cycling scan
  // that misses, inserts, and evicts. Exercises the lookup, insert and
  // eviction paths in the mix a Zipf-ish read workload produces.
  store::RetrievalCache cache(512 * kBlockSize);
  const std::vector<Key> keys = key_pool(18);
  for (std::size_t i = 0; i < 512; ++i) cache.insert(keys[i], kBlockSize);
  std::size_t i = 0;
  for (auto _ : state) {
    const Key& k = (i & 3) != 0 ? keys[i & 255] : keys[i & (kKeyPoolSize - 1)];
    if (!cache.lookup(k)) cache.insert(k, kBlockSize);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses()));
}
BENCHMARK(BM_RetrievalCacheLookupInsert);

void BM_SystemWriteRead(benchmark::State& state) {
  // Mini end-to-end trial: one System per iteration, a burst of block
  // writes (ring replica resolution + block-map insert), availability
  // checks for every block, and a few load-balance probes (owned-arc
  // median scans + readjustment). This is the put/get/probe hot path every
  // experiment drives millions of times.
  const int blocks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    core::SystemConfig cfg;
    cfg.node_count = 32;
    cfg.replicas = 3;
    cfg.seed = 1234;
    core::System sys(cfg, sim);
    Rng rng(17);
    std::vector<Key> keys;
    keys.reserve(static_cast<std::size_t>(blocks));
    for (int i = 0; i < blocks; ++i) keys.push_back(Key::random(rng));
    for (const Key& k : keys) sys.put(k, kBlockSize);
    int available = 0;
    for (const Key& k : keys) {
      if (sys.block_available(k)) ++available;
    }
    for (int p = 0; p < 32; ++p) sys.probe_once(p % 32);
    sim.run();
    benchmark::DoNotOptimize(available);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          blocks);
}
BENCHMARK(BM_SystemWriteRead)->Arg(2000);

}  // namespace
}  // namespace d2

BENCHMARK_MAIN();
