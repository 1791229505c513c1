// TraceMemo unit tests: admission after fill-up, second-chance eviction,
// exact byte accounting, and bounded concurrent behavior (this file
// builds into the tsan-labelled binary).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "server/trace_memo.hpp"

namespace mdd::server {
namespace {

/// Same-length traces so every memo entry has the same cost — the
/// eviction arithmetic in the tests stays exact.
std::shared_ptr<const std::vector<Fault>> make_trace(std::size_t n) {
  auto faults = std::make_shared<std::vector<Fault>>();
  for (std::size_t i = 0; i < n; ++i)
    faults->push_back(Fault::stem_sa(static_cast<std::uint32_t>(i), false));
  return faults;
}

/// Traces are keyed by (pattern, output); the tests vary the pattern.
constexpr std::uint32_t kPo = 3;

std::uint32_t nth_pattern(std::size_t n) {
  return static_cast<std::uint32_t>(n);
}

std::size_t budget_for(std::size_t n, std::size_t cost) { return n * cost; }

std::size_t one_entry_cost() {
  TraceMemo probe(1 << 20);
  probe.store(nth_pattern(0), kPo, make_trace(8));
  return probe.stats().approx_bytes;
}

TEST(TraceMemo, AdmitsNewTracesAfterFillingUp) {
  const std::size_t cost = one_entry_cost();
  ASSERT_GT(cost, 0u);
  TraceMemo memo(budget_for(4, cost));

  for (std::size_t i = 0; i < 8; ++i)
    memo.store(nth_pattern(i), kPo, make_trace(8));

  memo.store(nth_pattern(100), kPo, make_trace(8));
  EXPECT_NE(memo.lookup(nth_pattern(100), kPo), nullptr)
      << "a full memo must evict cold traces, not decline new ones";

  const MemoStats stats = memo.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_LE(stats.approx_bytes, budget_for(4, cost));
}

TEST(TraceMemo, SecondChanceSparesRecentlyUsedTraces) {
  const std::size_t cost = one_entry_cost();
  TraceMemo memo(budget_for(4, cost));
  for (std::size_t i = 0; i < 4; ++i)
    memo.store(nth_pattern(i), kPo, make_trace(8));

  // Reference trace 0; the clock hand must then clear its bit and pass
  // over it, evicting the first unreferenced trace (trace 1) instead.
  EXPECT_NE(memo.lookup(nth_pattern(0), kPo), nullptr);
  memo.store(nth_pattern(4), kPo, make_trace(8));

  EXPECT_NE(memo.lookup(nth_pattern(0), kPo), nullptr);
  EXPECT_EQ(memo.lookup(nth_pattern(1), kPo), nullptr);
  EXPECT_NE(memo.lookup(nth_pattern(4), kPo), nullptr);
}

TEST(TraceMemo, ByteAccountingIsExactAcrossEvictions) {
  const std::size_t cost = one_entry_cost();
  TraceMemo memo(budget_for(3, cost));
  for (std::size_t i = 0; i < 10; ++i) {
    memo.store(nth_pattern(i), kPo, make_trace(8));
    const MemoStats stats = memo.stats();
    EXPECT_EQ(stats.approx_bytes, stats.entries * cost);
    EXPECT_LE(stats.approx_bytes, budget_for(3, cost));
  }
  EXPECT_EQ(memo.stats().entries, 3u);
  EXPECT_EQ(memo.stats().evictions, 7u);
}

TEST(TraceMemo, ConcurrentChurnStaysWithinBudget) {
  const std::size_t cost = one_entry_cost();
  const std::size_t budget = budget_for(6, cost);
  TraceMemo memo(budget);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&memo, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint32_t p = nth_pattern(
            static_cast<std::size_t>((t * 7 + i) % 32));
        if (auto faults = memo.lookup(p, kPo)) {
          // Entries are immutable once stored; a hit must stay readable.
          EXPECT_EQ(faults->size(), 8u);
        } else {
          memo.store(p, kPo, make_trace(8));
        }
      }
    });
  for (std::thread& t : threads) t.join();

  const MemoStats stats = memo.stats();
  EXPECT_LE(stats.approx_bytes, budget);
  EXPECT_EQ(stats.approx_bytes, stats.entries * cost);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace mdd::server
