// Tests for bucket merging (file shrinking, paper section 4.3): the
// inverse of splitting, with parity maintained through the shrink and
// client images reset when they run ahead of the file.

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "lhstar/lhstar_file.h"

namespace lhrs {
namespace {

Bytes Val(const std::string& s) { return BytesFromString(s); }

TEST(MergeTest, PlainFileShrinksAfterDeletions) {
  LhStarFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  LhStarFile file(opts);
  Rng rng(31);
  std::vector<Key> keys;
  for (int i = 0; i < 400; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, Val("v" + std::to_string(k))).ok()) keys.push_back(k);
  }
  const BucketNo peak = file.bucket_count();
  ASSERT_GT(peak, 16u);

  // Delete 90% of the records.
  const size_t keep = keys.size() / 10;
  for (size_t i = keep; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Delete(keys[i]).ok());
  }
  EXPECT_LT(file.bucket_count(), peak / 2) << "file did not shrink";
  EXPECT_GT(file.coordinator().merges_performed(), 0u);

  // Every surviving record remains findable and correctly placed.
  for (size_t i = 0; i < keep; ++i) {
    auto got = file.Search(keys[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("v" + std::to_string(keys[i])));
  }
  const FileState& state = file.coordinator().state();
  for (BucketNo b = 0; b < file.bucket_count(); ++b) {
    for (Key key : file.bucket(b)->records().SortedKeys()) {
      EXPECT_EQ(state.Address(key), b);
    }
  }
}

TEST(MergeTest, StaleClientImageIsResetAfterShrink) {
  LhStarFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  LhStarFile file(opts);
  Rng rng(37);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, Val("x")).ok()) keys.push_back(k);
  }
  // Client 0's image is now large. Shrink the file hard.
  for (size_t i = 20; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Delete(keys[i]).ok());
  }
  ASSERT_LT(file.bucket_count(), 12u);
  // The client's image is ahead of the file; ops must still succeed (via
  // the decommissioned server -> coordinator -> image reset path).
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(file.Search(keys[i]).ok());
  }
  EXPECT_LE(file.client(0).image().presumed_bucket_count(),
            file.bucket_count() + 2);
  // Once reset, addressing is direct again.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(file.Search(keys[i]).ok());
  }
}

TEST(MergeTest, ScanCorrectAfterShrink) {
  LhStarFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.file.enable_merge = true;
  LhStarFile file(opts);
  Rng rng(41);
  std::set<Key> keys;
  while (keys.size() < 250) keys.insert(rng.Next64());
  for (Key k : keys) ASSERT_TRUE(file.Insert(k, Val("x")).ok());
  std::vector<Key> doomed(keys.begin(), keys.end());
  for (size_t i = 30; i < doomed.size(); ++i) {
    ASSERT_TRUE(file.Delete(doomed[i]).ok());
    keys.erase(doomed[i]);
  }
  auto scan = file.Scan();
  ASSERT_TRUE(scan.ok()) << scan.status();
  std::set<Key> seen;
  for (const auto& rec : *scan) seen.insert(rec.key);
  EXPECT_EQ(seen, keys);
}

TEST(MergeTest, LhrsParityMaintainedThroughShrink) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  opts.group_size = 4;
  opts.policy.base_k = 2;
  LhrsFile file(opts);
  Rng rng(43);
  std::vector<Key> keys;
  for (int i = 0; i < 400; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, rng.RandomBytes(24)).ok()) keys.push_back(k);
  }
  const BucketNo peak = file.bucket_count();
  ASSERT_GT(peak, 16u);
  for (size_t i = 40; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Delete(keys[i]).ok());
  }
  EXPECT_LT(file.bucket_count(), peak);
  EXPECT_GT(file.coordinator().merges_performed(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "after shrink";
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(file.Search(keys[i]).ok());
  }
}

std::vector<Rank> RanksOf(const LhrsFile& file, BucketNo b) {
  std::vector<Rank> ranks;
  for (const RankedRecord& rec : file.rs_bucket(b)->RankedRecords()) {
    ranks.push_back(rec.rank);
  }
  return ranks;
}

/// Free ranks of bucket `b` below its next fresh rank, ascending.
std::vector<Rank> FreeRanks(const LhrsFile& file, BucketNo b) {
  const std::vector<Rank> live = RanksOf(file, b);
  std::vector<Rank> free;
  for (Rank r = 1; r < file.rs_bucket(b)->next_rank(); ++r) {
    if (!std::binary_search(live.begin(), live.end(), r)) free.push_back(r);
  }
  return free;
}

TEST(MergeTest, LhrsRanksStayOrderedAndReuseSmallestFirst) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  LhrsFile file(opts);
  Rng rng(71);
  while (file.bucket_count() < 2) {
    ASSERT_TRUE(file.Insert(rng.Next64(), rng.RandomBytes(16)).ok());
  }

  // After the split both buckets dump in ascending rank order; the movers
  // took fresh ranks 1..n at the new bucket, in ascending key order.
  for (BucketNo b : {0u, 1u}) {
    const std::vector<Rank> ranks = RanksOf(file, b);
    EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end())) << "bucket " << b;
  }
  const std::vector<RankedRecord> moved = file.rs_bucket(1)->RankedRecords();
  for (size_t i = 0; i < moved.size(); ++i) {
    EXPECT_EQ(moved[i].rank, i + 1);
    if (i > 0) {
      EXPECT_LT(moved[i - 1].key, moved[i].key);
    }
  }

  // The split freed ranks at the parent; the next insert there takes the
  // smallest one.
  const std::vector<Rank> free0 = FreeRanks(file, 0);
  ASSERT_FALSE(free0.empty()) << "the split moved nothing out of bucket 0";
  Key landed = 0;
  while (landed == 0) {
    const Key k = rng.Next64();
    ASSERT_TRUE(file.Insert(k, rng.RandomBytes(16)).ok());
    if (file.rs_bucket(0)->records().Contains(k)) landed = k;
  }
  ASSERT_EQ(file.bucket_count(), 2u);
  EXPECT_EQ(file.rs_bucket(0)->RankOf(landed), free0.front());

  // Shrink the file until bucket 1 merges back: its records re-enter
  // bucket 0 in ascending key order, filling bucket 0's free ranks
  // smallest-first before any fresh rank.
  std::vector<Key> movers;
  while (file.bucket_count() == 2) {
    const std::vector<RankedRecord> b0 = file.rs_bucket(0)->RankedRecords();
    const std::vector<RankedRecord> b1 = file.rs_bucket(1)->RankedRecords();
    const bool from_b0 = b0.size() > 2 || b1.empty();
    ASSERT_FALSE((from_b0 ? b0 : b1).empty());
    const RankedRecord victim = (from_b0 ? b0 : b1).front();
    movers.clear();
    for (const RankedRecord& rec : b1) {
      if (rec.key != victim.key) movers.push_back(rec.key);
    }
    std::sort(movers.begin(), movers.end());
    std::vector<Rank> expected = FreeRanks(file, 0);
    if (from_b0) {
      expected.insert(
          std::lower_bound(expected.begin(), expected.end(), victim.rank),
          victim.rank);
    }
    Rank fresh = file.rs_bucket(0)->next_rank();
    while (expected.size() < movers.size()) expected.push_back(fresh++);
    ASSERT_TRUE(file.Delete(victim.key).ok());
    if (file.bucket_count() == 1) {
      for (size_t i = 0; i < movers.size(); ++i) {
        EXPECT_EQ(file.rs_bucket(0)->RankOf(movers[i]), expected[i])
            << "mover " << i;
      }
    }
  }
  EXPECT_FALSE(movers.empty()) << "the merge moved nothing";
  const std::vector<Rank> ranks = RanksOf(file, 0);
  EXPECT_TRUE(std::adjacent_find(ranks.begin(), ranks.end(),
                                 std::greater_equal<Rank>()) == ranks.end())
      << "ranks not strictly ascending after the merge";
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(MergeTest, GrowShrinkGrowCycleStaysConsistent) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  LhrsFile file(opts);
  Rng rng(47);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<Key> keys;
    for (int i = 0; i < 250; ++i) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(16)).ok()) keys.push_back(k);
    }
    ASSERT_TRUE(file.VerifyParityInvariants().ok())
        << "cycle " << cycle << " after growth";
    for (size_t i = 10; i < keys.size(); ++i) {
      ASSERT_TRUE(file.Delete(keys[i]).ok());
    }
    ASSERT_TRUE(file.VerifyParityInvariants().ok())
        << "cycle " << cycle << " after shrink";
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(file.Search(keys[i]).ok());
    }
  }
}

TEST(MergeTest, RecoveryStillWorksAfterShrink) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  LhrsFile file(opts);
  Rng rng(53);
  std::vector<Key> keys;
  for (int i = 0; i < 300; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, Val("value-" + std::to_string(k))).ok()) {
      keys.push_back(k);
    }
  }
  for (size_t i = 60; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Delete(keys[i]).ok());
  }
  keys.resize(60);
  ASSERT_GT(file.bucket_count(), 1u);
  const NodeId dead = file.CrashDataBucket(file.bucket_count() - 1);
  file.DetectAndRecover(dead);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
  }
}

TEST(MergeTest, NeverShrinksBelowInitialBuckets) {
  LhStarFile::Options opts;
  opts.file.bucket_capacity = 10;
  opts.file.enable_merge = true;
  opts.file.initial_buckets = 2;
  LhStarFile file(opts);
  Rng rng(59);
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, Val("x")).ok()) keys.push_back(k);
  }
  for (Key k : keys) ASSERT_TRUE(file.Delete(k).ok());
  EXPECT_GE(file.bucket_count(), 2u);
  EXPECT_TRUE(file.Insert(1, Val("fresh")).ok());
  EXPECT_TRUE(file.Search(1).ok());
}

}  // namespace
}  // namespace lhrs
