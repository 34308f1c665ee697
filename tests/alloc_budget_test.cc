// Heap-allocation budgets of the hot paths. The test binary replaces the
// global operator new to count calls; under a sanitizer, which brings its
// own allocator, the tests are skipped.

#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "lhrs/lhrs_file.h"
#include "net/dedup.h"
#include "sdds/session.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LHRS_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LHRS_ALLOC_COUNTING 0
#endif
#endif
#ifndef LHRS_ALLOC_COUNTING
#define LHRS_ALLOC_COUNTING 1
#endif

namespace {
uint64_t g_allocations = 0;
}  // namespace

#if LHRS_ALLOC_COUNTING
void* operator new(size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace lhrs {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

/// The benchmark's file shape: m = 4, k = 2, b = 1024.
LhrsFile::Options BenchOpts() {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 1024;
  opts.group_size = 4;
  opts.policy.base_k = 2;
  opts.auto_recover = false;
  return opts;
}

#define SKIP_WITHOUT_COUNTING()                                         \
  if (!LHRS_ALLOC_COUNTING) GTEST_SKIP() << "sanitizer owns operator new"

TEST(AllocBudgetTest, EmptyFileConstruction) {
  SKIP_WITHOUT_COUNTING();
  // 113 before the message accounting became vectors and the duplicate
  // filters became lazy; 107 after, with the GCC 12 standard library.
  constexpr uint64_t kBudget = 113;
  LhrsFile::Options opts = BenchOpts();
  const uint64_t n = CountAllocations([&] { LhrsFile file(opts); });
  EXPECT_LE(n, kBudget);
}

TEST(AllocBudgetTest, DuplicateFilterAllocatesOnFirstUse) {
  SKIP_WITHOUT_COUNTING();
  EXPECT_EQ(CountAllocations([] { DuplicateFilter filter; }), 0u);
  DuplicateFilter filter(2);
  EXPECT_GT(CountAllocations([&] { filter.SeenBefore(1); }), 0u);
}

TEST(AllocBudgetTest, SteadyStateSearchRoundTrip) {
  SKIP_WITHOUT_COUNTING();
  // One request and one reply, each a body plus its envelope; the client
  // and facade op tables reuse their slots.
  constexpr double kBudgetPerOp = 4.0;
  constexpr int kOps = 200;
  LhrsFile file(BenchOpts());
  ASSERT_TRUE(file.Insert(7, Bytes(64, 1)).ok());
  auto round_trip = [&] {
    const sdds::OpToken token = file.Submit(0, OpType::kSearch, 7, {});
    file.network().RunUntilIdle();
    Result<OpOutcome> out = file.Take(token);
    ASSERT_TRUE(out.ok() && out->status.ok());
  };
  round_trip();  // Warm: first use sizes the tables.
  const uint64_t n = CountAllocations([&] {
    for (int i = 0; i < kOps; ++i) round_trip();
  });
  EXPECT_LE(static_cast<double>(n) / kOps, kBudgetPerOp);
}

TEST(AllocBudgetTest, PipelinedSearchesReuseTheOpTables) {
  SKIP_WITHOUT_COUNTING();
  constexpr double kBudgetPerOp = 4.0;
  constexpr size_t kSessions = 4;
  constexpr size_t kWindow = 8;
  constexpr uint64_t kOps = 2000;
  LhrsFile file(BenchOpts());
  for (Key k = 1; k <= 64; ++k) {
    ASSERT_TRUE(file.Insert(k, Bytes(64, 2)).ok());
  }
  sdds::SessionPool pool(file, kSessions, kWindow);
  uint64_t submitted = 0;
  uint64_t completed = 0;
  auto refill = [&](size_t session) {
    while (submitted < kOps && pool.HasCapacity(session)) {
      pool.Submit(session,
                  sdds::SddsOp{OpType::kSearch, 1 + submitted % 64, {}});
      ++submitted;
    }
  };
  pool.SetCompletionHandler([&](size_t session, const sdds::SddsOp&,
                                const OpOutcome& outcome, SimTime) {
    EXPECT_TRUE(outcome.status.ok());
    ++completed;
    refill(session);
  });
  const uint64_t n = CountAllocations([&] {
    for (size_t s = 0; s < kSessions; ++s) refill(s);
    file.network().RunUntilIdle();
  });
  EXPECT_EQ(completed, kOps);
  // Table growth to the window is a handful of allocations in all.
  EXPECT_LE(static_cast<double>(n) / kOps, kBudgetPerOp + 0.05);
}

}  // namespace
}  // namespace lhrs
