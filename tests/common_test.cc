// Unit tests for the common kernel: Status/Result, byte utilities, RNG.

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/id_table.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace lhrs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  const Status s = Status::NotFound("no such key");
  EXPECT_EQ(s.ToString(), "NotFound: no such key");
  EXPECT_EQ(s.message(), "no such key");
}

TEST(StatusTest, EqualityAndStreaming) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  std::ostringstream os;
  os << Status::DataLoss("gone");
  EXPECT_EQ(os.str(), "DataLoss: gone");
}

Status Fails() { return Status::Internal("boom"); }
Status Chained() {
  LHRS_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chained().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();  // Programming error, caught.
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}
Result<int> Quarter(int x) {
  LHRS_ASSIGN_OR_RETURN(int h, Half(x));
  LHRS_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturn) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 3 is odd.
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(BytesTest, FromStringAndHex) {
  const Bytes b = BytesFromString("Hi");
  EXPECT_EQ(b, (Bytes{'H', 'i'}));
  EXPECT_EQ(ToHex(Bytes{0xDE, 0xAD, 0x00}), "dead00");
  EXPECT_EQ(ToHex(Bytes{}), "");
}

TEST(BytesTest, XorAssignPaddedGrowsDestination) {
  Bytes dst = {0x01};
  XorAssignPadded(dst, Bytes{0x01, 0xFF, 0x0F});
  EXPECT_EQ(dst, (Bytes{0x00, 0xFF, 0x0F}));
  // XOR is its own inverse under the padded convention.
  XorAssignPadded(dst, Bytes{0x01, 0xFF, 0x0F});
  EXPECT_EQ(dst, (Bytes{0x01, 0x00, 0x00}));
}

TEST(BytesTest, XorAssignPaddedEqualLengths) {
  Bytes dst = {0xF0, 0x0F, 0xAA};
  XorAssignPadded(dst, Bytes{0xFF, 0xFF, 0xAA});
  EXPECT_EQ(dst, (Bytes{0x0F, 0xF0, 0x00}));
}

TEST(BytesTest, XorAssignPaddedLongerDestinationKeepsTail) {
  // src is zero-extended to dst's length: the tail is untouched.
  Bytes dst = {0x01, 0x02, 0x03, 0x04};
  XorAssignPadded(dst, Bytes{0xFF});
  EXPECT_EQ(dst, (Bytes{0xFE, 0x02, 0x03, 0x04}));
}

TEST(BytesTest, XorAssignPaddedShorterDestinationGrows) {
  Bytes dst = {0x10, 0x20};
  XorAssignPadded(dst, Bytes{0x01, 0x02, 0x30, 0x40});
  // Overlap XORed, src's tail appended (XOR against the implicit zero pad).
  EXPECT_EQ(dst, (Bytes{0x11, 0x22, 0x30, 0x40}));
}

TEST(BytesTest, XorAssignPaddedEmptySourceIsNoop) {
  Bytes dst = {0x11, 0x22};
  XorAssignPadded(dst, Bytes{});
  EXPECT_EQ(dst, (Bytes{0x11, 0x22}));
}

TEST(BytesTest, WordWiseXorMatchesByteReference) {
  // The word-wise kernel must agree with the pinned byte loop across
  // sizes that exercise the unrolled body, the word tail, and the scalar
  // tail — and across unaligned starting offsets.
  Rng rng(0xC0FFEE);
  for (size_t n : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 100u, 4096u, 4101u}) {
    for (size_t offset : {0u, 1u, 3u}) {
      Bytes src(n + offset), a(n + offset), b(n + offset);
      for (auto& x : src) x = static_cast<uint8_t>(rng.Next64());
      for (size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<uint8_t>(rng.Next64());
        b[i] = a[i];
      }
      XorBuffer(a.data() + offset, src.data() + offset, n);
      XorBufferByteReference(b.data() + offset, src.data() + offset, n);
      EXPECT_EQ(a, b) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(BytesTest, PadToAndAllZero) {
  EXPECT_EQ(PadTo(Bytes{1, 2}, 4), (Bytes{1, 2, 0, 0}));
  EXPECT_EQ(PadTo(Bytes{1, 2, 3}, 2), (Bytes{1, 2}));
  EXPECT_TRUE(AllZero(Bytes{0, 0, 0}));
  EXPECT_TRUE(AllZero(Bytes{}));
  EXPECT_FALSE(AllZero(Bytes{0, 1}));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(12345), b(12345), c(54321);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
  bool differs = false;
  Rng a2(12345);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next64() != c.Next64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const uint64_t v = rng.UniformIn(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, FlipIsRoughlyFair) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.Flip(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 100000.0, 0.25, 0.01);
}

TEST(RngTest, RandomBytesLengthAndVariety) {
  Rng rng(13);
  const Bytes b = rng.RandomBytes(1000);
  ASSERT_EQ(b.size(), 1000u);
  std::set<uint8_t> distinct(b.begin(), b.end());
  EXPECT_GT(distinct.size(), 100u);
}

// --- IdTable -----------------------------------------------------------------

TEST(IdTableTest, EmptyTableHoldsNoStorage) {
  IdTable<std::string> table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_FALSE(table.Contains(0));
  EXPECT_FALSE(table.Erase(1));
  EXPECT_FALSE(table.Take(1).has_value());
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(IdTableTest, OutOfOrderEraseMatchesAMap) {
  // Ids are handed out in sequence and retired in random order with a
  // bounded number live, like ops completing out of order.
  IdTable<uint64_t> table;
  std::map<uint64_t, uint64_t> model;
  Rng rng(17);
  uint64_t next_id = 1;
  for (int step = 0; step < 20000; ++step) {
    if (model.size() < 40 && (model.empty() || rng.Flip(0.5))) {
      const uint64_t id = next_id++;
      table.Insert(id, id * 3);
      model[id] = id * 3;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::optional<uint64_t> taken = table.Take(it->first);
      ASSERT_TRUE(taken.has_value()) << it->first;
      EXPECT_EQ(*taken, it->second);
      model.erase(it);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (const auto& [id, value] : model) {
    ASSERT_NE(table.Find(id), nullptr) << id;
    EXPECT_EQ(*table.Find(id), value);
  }
  EXPECT_FALSE(table.Contains(next_id));
  EXPECT_LE(table.capacity(), 128u);
}

TEST(IdTableTest, CollidingIdsSurviveEraseFromTheMiddleOfARun) {
  // 15, 31 and 47 share the last slot of a 16-slot table, so their probe
  // run wraps to the front, where it pushes 16 out of its own home slot.
  // Erasing from the middle of the run must shift the rest back.
  IdTable<int> table;
  for (uint64_t id : {15, 31, 47, 16, 3}) {
    table.Insert(id, static_cast<int>(id));
  }
  ASSERT_EQ(table.capacity(), 16u);
  EXPECT_TRUE(table.Erase(31));
  for (uint64_t id : {15, 47, 16, 3}) {
    ASSERT_NE(table.Find(id), nullptr) << id;
    EXPECT_EQ(*table.Find(id), static_cast<int>(id));
  }
  EXPECT_FALSE(table.Contains(31));
  EXPECT_TRUE(table.Erase(15));
  EXPECT_EQ(*table.Find(47), 47);
  EXPECT_EQ(*table.Find(16), 16);
  EXPECT_EQ(table.size(), 3u);
}

TEST(IdTableTest, EntryNeverErasedDoesNotPinAWindow) {
  // An op that never completes keeps its slot; every later id wraps past
  // it and the table stays sized by what is live.
  IdTable<std::string> table;
  table.Insert(1, "stuck");
  for (uint64_t id = 2; id < 100000; ++id) {
    table.Insert(id, "op");
    ASSERT_TRUE(table.Erase(id));
  }
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.capacity(), 8u);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(*table.Find(1), "stuck");
}

TEST(IdTableTest, ReuseAfterEraseAndOverwrite) {
  IdTable<std::string> table;
  table.Insert(5, "first");
  EXPECT_TRUE(table.Erase(5));
  EXPECT_FALSE(table.Contains(5));
  table.Insert(5, "second");
  EXPECT_EQ(*table.Find(5), "second");
  table.Insert(5, "third");  // Overwrites in place.
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Take(5).value(), "third");
  EXPECT_EQ(table.size(), 0u);
}

TEST(IdTableTest, GrowsAndShrinksWithTheLiveCount) {
  IdTable<uint64_t> table;
  for (uint64_t id = 1; id <= 1000; ++id) table.Insert(id, id);
  EXPECT_EQ(table.capacity(), 2048u);
  for (uint64_t id = 1; id < 1000; ++id) ASSERT_TRUE(table.Erase(id));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.capacity(), 8u);
  EXPECT_EQ(*table.Find(1000), 1000u);
}

}  // namespace
}  // namespace lhrs
