// Unit tests for the slotted-segment BucketStore: arena packing, records
// spanning segment boundaries, tombstone accounting, compaction under
// outstanding readers, and deterministic iteration.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "store/bucket_store.h"

namespace lhrs::store {
namespace {

Bytes Val(uint8_t fill, size_t n) { return Bytes(n, fill); }

TEST(BucketStoreTest, InsertFindEraseRoundTrip) {
  BucketStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Insert(7, Val(0xAB, 10)));
  EXPECT_FALSE(store.Insert(7, Val(0xCD, 3)));  // Duplicate rejected.
  ASSERT_NE(store.Find(7), nullptr);
  EXPECT_EQ(store.Find(7)->ToBytes(), Val(0xAB, 10));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.payload_bytes(), 10u);
  EXPECT_TRUE(store.Erase(7));
  EXPECT_FALSE(store.Erase(7));
  EXPECT_EQ(store.Find(7), nullptr);
  EXPECT_TRUE(store.empty());
}

TEST(BucketStoreTest, PutOverwritesAndTombstonesOldPayload) {
  BucketStore store;
  store.Put(1, BufferView(Val(0x11, 8)));
  store.Put(1, BufferView(Val(0x22, 16)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(0x22, 16));
  const auto stats = store.GetStats();
  EXPECT_EQ(stats.live_bytes, 16u);
  EXPECT_EQ(stats.dead_bytes, 8u);
}

TEST(BucketStoreTest, RecordsSpanSegmentBoundaries) {
  // 128-byte segments, 48-byte records: the third record does not fit the
  // first segment's remainder and must open a new one; nothing is lost.
  BucketStore store(/*segment_capacity=*/128);
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_TRUE(store.Insert(k, Val(static_cast<uint8_t>(k), 48)));
  }
  EXPECT_GT(store.GetStats().segments, 1u);
  for (uint64_t k = 0; k < 12; ++k) {
    ASSERT_NE(store.Find(k), nullptr) << "key " << k;
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(static_cast<uint8_t>(k), 48));
  }
}

TEST(BucketStoreTest, OversizedRecordGetsDedicatedSegment) {
  BucketStore store(/*segment_capacity=*/64);
  ASSERT_TRUE(store.Insert(1, Val(0x5A, 1000)));  // 15x the segment size.
  ASSERT_TRUE(store.Insert(2, Val(0x10, 8)));     // Small one right after.
  EXPECT_EQ(store.Find(1)->size(), 1000u);
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(0x5A, 1000));
  EXPECT_EQ(store.Find(2)->ToBytes(), Val(0x10, 8));
}

TEST(BucketStoreTest, InsertSharedAdoptsWithoutCopy) {
  BucketStore store;
  BufferView v(Val(0x77, 32));
  const uint8_t* payload = v.data();
  ASSERT_TRUE(store.InsertShared(5, v));
  // Zero-copy adoption: the store serves the very same bytes.
  EXPECT_EQ(store.Find(5)->data(), payload);
}

TEST(BucketStoreTest, SortedKeysIsDeterministicAscending) {
  BucketStore store;
  for (uint64_t k : {9u, 3u, 27u, 1u, 14u}) {
    store.Insert(k, Val(1, 4));
  }
  EXPECT_EQ(store.SortedKeys(), (std::vector<uint64_t>{1, 3, 9, 14, 27}));
  std::vector<uint64_t> visited;
  store.ForEachOrdered(
      [&](uint64_t k, const BufferView&) { visited.push_back(k); });
  EXPECT_EQ(visited, store.SortedKeys());
}

TEST(BucketStoreTest, CompactionReclaimsDeadBytesAndKeepsLiveSet) {
  BucketStore store(/*segment_capacity=*/256);
  for (uint64_t k = 0; k < 64; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(k), 32));
  }
  for (uint64_t k = 0; k < 64; k += 2) store.Erase(k);
  store.Compact();
  const auto stats = store.GetStats();
  EXPECT_EQ(stats.dead_bytes, 0u);
  EXPECT_EQ(stats.live_records, 32u);
  EXPECT_GE(stats.compactions, 1u);
  for (uint64_t k = 1; k < 64; k += 2) {
    ASSERT_NE(store.Find(k), nullptr);
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(static_cast<uint8_t>(k), 32));
  }
}

TEST(BucketStoreTest, OutstandingViewsSurviveCompaction) {
  // A reader that grabbed views before a compaction (a recovery dump, a
  // wire message in flight) must keep seeing the original bytes: the
  // ref-counted segment stays alive until the last view drops.
  BucketStore store(/*segment_capacity=*/128);
  for (uint64_t k = 0; k < 16; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(0xA0 + k), 24));
  }
  std::vector<BufferView> held;
  store.ForEachOrdered(
      [&](uint64_t, const BufferView& v) { held.push_back(v); });
  for (uint64_t k = 0; k < 8; ++k) store.Erase(k);
  store.Compact();
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].ToBytes(), Val(static_cast<uint8_t>(0xA0 + i), 24))
        << "held view " << i << " corrupted by compaction";
  }
}

TEST(BucketStoreTest, AutoCompactionTriggersUnderDeadBytes) {
  // Dead bytes must both exceed the threshold and outweigh live bytes;
  // churn a store hard enough and compaction fires on its own.
  BucketStore store;
  for (int round = 0; round < 40; ++round) {
    for (uint64_t k = 0; k < 16; ++k) {
      store.Put(k, BufferView(Val(static_cast<uint8_t>(round), 256)));
    }
  }
  EXPECT_GE(store.GetStats().compactions, 1u);
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(store.Find(k)->ToBytes(), Val(39, 256));
  }
}

TEST(BucketStoreTest, MutationDuringOrderedIterationSkipsErased) {
  BucketStore store;
  for (uint64_t k = 0; k < 10; ++k) store.Insert(k, Val(1, 4));
  std::vector<uint64_t> visited;
  store.ForEachOrdered([&](uint64_t k, const BufferView&) {
    visited.push_back(k);
    if (k == 3) store.Erase(7);  // Mid-split-style mutation.
  });
  // 7 was erased after the snapshot but before its visit: skipped.
  EXPECT_EQ(visited, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 8, 9}));
}

TEST(BucketStoreTest, ReaderDuringCompactionMidIteration) {
  // A reader holding views can trigger compaction midway (the recovery
  // path reads from a bucket whose auto-compaction fires): earlier views
  // stay valid, later reads see the repacked live set.
  BucketStore store(/*segment_capacity=*/256);
  for (uint64_t k = 0; k < 32; ++k) {
    store.Insert(k, Val(static_cast<uint8_t>(k), 16));
  }
  std::vector<std::pair<uint64_t, BufferView>> dump;
  store.ForEachOrdered([&](uint64_t k, const BufferView& v) {
    dump.emplace_back(k, v);
    if (k == 15) store.Compact();
  });
  ASSERT_EQ(dump.size(), 32u);
  for (const auto& [k, v] : dump) {
    EXPECT_EQ(v.ToBytes(), Val(static_cast<uint8_t>(k), 16)) << "key " << k;
  }
}

TEST(BucketStoreTest, MatchingVisitEqualsOrderedFilter) {
  // The split and scan paths partition by a predicate first and sort only
  // the hits; they must see exactly the keys, order and values the
  // whole-bucket ordered walk followed by a filter would — on fresh
  // stores, after tombstones and overwrites, and after a compaction.
  using Pred = bool (*)(uint64_t, const BufferView&);
  const Pred preds[] = {
      // Split-like: an address bit of a multiplicative hash.
      [](uint64_t k, const BufferView&) {
        return ((k * 0x9E3779B97F4A7C15ull) >> 61 & 1) != 0;
      },
      // Scan-like: a value predicate.
      [](uint64_t, const BufferView& v) { return !v.empty() && v[0] % 3 == 0; },
      [](uint64_t, const BufferView&) { return true; },
      [](uint64_t, const BufferView&) { return false; },
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BucketStore store(/*segment_capacity=*/64 + rng.Uniform(512));
    std::vector<uint64_t> keys;
    for (int i = 0; i < 300; ++i) {
      const uint64_t k = rng.Uniform(4) == 0 ? rng.Uniform(64) : rng.Next64();
      if (store.Insert(k, rng.RandomBytes(rng.Uniform(40)))) keys.push_back(k);
    }
    for (int phase = 0; phase < 3; ++phase) {
      for (const Pred pred : preds) {
        std::vector<std::pair<uint64_t, Bytes>> want;
        store.ForEachOrdered([&](uint64_t k, const BufferView& v) {
          if (pred(k, v)) want.emplace_back(k, v.ToBytes());
        });
        std::vector<std::pair<uint64_t, Bytes>> got;
        store.ForEachMatching(pred, [&](uint64_t k, const BufferView& v) {
          got.emplace_back(k, v.ToBytes());
        });
        ASSERT_EQ(got, want) << "seed " << seed << " phase " << phase;
      }
      // Tombstones and overwrites, then (from the second round) a repack.
      for (uint64_t k : keys) {
        const uint64_t roll = rng.Uniform(4);
        if (roll == 0) store.Erase(k);
        if (roll == 1) store.Put(k, BufferView(rng.RandomBytes(8)));
      }
      if (phase == 1) store.Compact();
    }
  }
}

TEST(BucketStoreTest, ClearDropsEverything) {
  BucketStore store;
  for (uint64_t k = 0; k < 5; ++k) store.Insert(k, Val(2, 8));
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.payload_bytes(), 0u);
  EXPECT_EQ(store.GetStats().segments, 0u);
  // Reusable after Clear.
  EXPECT_TRUE(store.Insert(1, Val(3, 8)));
  EXPECT_EQ(store.Find(1)->ToBytes(), Val(3, 8));
}

}  // namespace
}  // namespace lhrs::store
