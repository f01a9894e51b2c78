// Unit tests for serialization, statistics and sequence-set utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/seq_runs.hpp"
#include "util/stats.hpp"

namespace coop::util {
namespace {

TEST(Codec, RoundTripsPrimitives) {
  Writer w;
  w.put<std::uint32_t>(42)
      .put<std::int64_t>(-7)
      .put<double>(3.25)
      .put<std::uint8_t>(255)
      .put<bool>(true);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 42u);
  EXPECT_EQ(r.get<std::int64_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  EXPECT_TRUE(r.get<bool>());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripsStringsIncludingEmptyAndBinary) {
  Writer w;
  w.put_string("hello").put_string("").put_string(std::string("\0\x01", 2));
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("\0\x01", 2));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RoundTripsVectors) {
  Writer w;
  w.put_vector<std::uint64_t>({1, 2, 3});
  w.put_vector<double>({});
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_vector<std::uint64_t>(),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.get_vector<double>().empty());
  EXPECT_FALSE(r.failed());
}

TEST(Codec, RoundTripsBytes) {
  Writer w;
  w.put_bytes({0x00, 0xff, 0x10});
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{0x00, 0xff, 0x10}));
}

TEST(Codec, UnderrunSetsStickyFailureFlag) {
  Writer w;
  w.put<std::uint16_t>(1);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get<std::uint64_t>(), 0u);  // needs 8 bytes, only 2 available
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.get<std::uint8_t>(), 0u);  // still failed even though in range
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, TruncatedStringFails) {
  Writer w;
  w.put<std::uint32_t>(100);  // claims a 100-byte string follows
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.failed());
}

TEST(Codec, MaliciousVectorLengthFailsInsteadOfAllocating) {
  Writer w;
  w.put<std::uint32_t>(0xffffffff);
  const std::string buf = w.take();
  Reader r(buf);
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.failed());
}

TEST(Stats, SummaryBasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Stats, SummaryEmptyIsSafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.jitter(), 0.0);
}

TEST(Stats, SummaryPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.p50(), 50.0, 1.0);
  EXPECT_NEAR(s.p95(), 95.0, 1.0);
  EXPECT_NEAR(s.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Stats, SummaryPercentileAfterLateAdd) {
  Summary s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.p50(), 10.0);
  s.add(1);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Stats, SummaryJitterMeasuresSuccessiveDifferences) {
  Summary s;
  for (double x : {10.0, 12.0, 10.0, 12.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.jitter(), 2.0);
  Summary flat;
  for (int i = 0; i < 5; ++i) flat.add(7.0);
  EXPECT_DOUBLE_EQ(flat.jitter(), 0.0);
}

TEST(Stats, CounterIncrementsAndResets) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 2.0);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(50.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Stats, HistogramClampsExtremeSamplesWithoutUB) {
  // Samples far outside [lo, hi) — including infinities — used to be cast
  // to int64 before clamping, which is undefined behaviour.  They must
  // land in the edge buckets.
  Histogram h(0.0, 10.0, 10);
  h.add(1e300);
  h.add(-1e300);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 2u);
}

TEST(Stats, HistogramCountsNaNSeparately) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);  // NaN is not bucketed
  EXPECT_EQ(h.nan_count(), 1u);
  std::uint64_t bucketed = 0;
  for (std::uint64_t b : h.buckets()) bucketed += b;
  EXPECT_EQ(bucketed, 1u);
}

TEST(Stats, HistogramNormalizesDegenerateRange) {
  // hi <= lo and zero buckets must not divide by zero or crash.
  Histogram h(5.0, 5.0, 0);
  h.add(5.0);
  h.add(4.0);
  h.add(6.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets().front(), 3u);
  EXPECT_GT(h.hi(), h.lo());
}

TEST(Stats, GaugeMovesBothWays) {
  Gauge g;
  g.set(10.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.max_of(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.max_of(12.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(Codec, TakeEmptiesTheWriter) {
  Writer w;
  w.put<std::uint32_t>(7).put_string("x");
  EXPECT_GT(w.size(), 0u);
  const std::string wire = w.take();
  EXPECT_FALSE(wire.empty());
  // The storage moved out: a stale Writer can no longer silently
  // re-serialize its old bytes.
  EXPECT_EQ(w.size(), 0u);
}

// --- SeqRuns vs std::set<uint64_t> differential --------------------------
//
// The oracle is the standard container SeqRuns replaces; the run count is
// recomputed from the oracle by walking its values.

/// Maximal runs of consecutive values in @p set.
std::size_t oracle_runs(const std::set<std::uint64_t>& set) {
  std::size_t runs = 0;
  std::uint64_t prev = 0;
  for (std::uint64_t v : set) {
    if (runs == 0 || v != prev + 1) ++runs;
    prev = v;
  }
  return runs;
}

/// `while (count(v)) ++v;` against the oracle.
std::uint64_t oracle_next_absent(const std::set<std::uint64_t>& set,
                                 std::uint64_t v) {
  while (set.count(v) != 0) ++v;
  return v;
}

/// Inserts @p values one by one into both sets, comparing every insert
/// result and, after each insert, count() over [lo, hi], next_absent() at
/// the inserted value and the run count.
void differential(const std::vector<std::uint64_t>& values, std::uint64_t lo,
                  std::uint64_t hi) {
  SeqRuns runs;
  std::set<std::uint64_t> oracle;
  for (std::uint64_t v : values) {
    ASSERT_EQ(runs.insert(v), oracle.insert(v).second) << "insert " << v;
    for (std::uint64_t x = lo;; ++x) {
      ASSERT_EQ(runs.count(x), oracle.count(x)) << "count " << x;
      if (x == hi) break;
    }
    ASSERT_EQ(runs.next_absent(v), oracle_next_absent(oracle, v));
    ASSERT_EQ(runs.next_absent(lo), oracle_next_absent(oracle, lo));
    ASSERT_EQ(runs.runs(), oracle_runs(oracle));
  }
}

std::vector<std::uint64_t> iota_values(std::uint64_t first, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), first);
  return v;
}

TEST(SeqRuns, InOrderInsertsCollapseToOneRun) {
  differential(iota_values(1, 200), 0, 202);
  SeqRuns runs;
  for (std::uint64_t v = 1; v <= 10000; ++v) ASSERT_TRUE(runs.insert(v));
  EXPECT_EQ(runs.runs(), 1u);
  EXPECT_EQ(runs.next_absent(1), 10001u);
}

TEST(SeqRuns, ReversedInsertsMatchSet) {
  auto v = iota_values(1, 200);
  std::reverse(v.begin(), v.end());
  differential(v, 0, 202);
}

TEST(SeqRuns, ShuffledInsertsWithDuplicatesMatchSet) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    auto v = iota_values(1, 150);
    // Every value twice (retransmitted copies), plus random repeats.
    v.insert(v.end(), v.begin(), v.end());
    for (int i = 0; i < 100; ++i) v.push_back(1 + rng() % 150);
    std::shuffle(v.begin(), v.end(), rng);
    differential(v, 0, 152);
  }
}

TEST(SeqRuns, RandomSparseStreamsMatchSet) {
  // Values drawn from a small window so gaps open and close repeatedly.
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 300; ++i) v.push_back(1000 + rng() % 120);
    differential(v, 990, 1130);
  }
}

TEST(SeqRuns, GapsFillLaterAndMergeOnBothSides) {
  SeqRuns runs;
  for (std::uint64_t v : {1u, 2u, 3u, 7u, 8u, 12u}) runs.insert(v);
  EXPECT_EQ(runs.runs(), 3u);  // [1,3] [7,8] [12,12]
  EXPECT_TRUE(runs.insert(5));  // isolated in the middle of a gap
  EXPECT_EQ(runs.runs(), 4u);
  EXPECT_TRUE(runs.insert(4));  // bridges [1,3] and [5,5]
  EXPECT_EQ(runs.runs(), 3u);
  EXPECT_TRUE(runs.insert(6));  // bridges [1,5] and [7,8]
  EXPECT_EQ(runs.runs(), 2u);
  EXPECT_TRUE(runs.insert(11));  // extends [12,12] downwards
  EXPECT_TRUE(runs.insert(9));   // extends [1,8] upwards
  EXPECT_EQ(runs.runs(), 2u);
  EXPECT_TRUE(runs.insert(10));  // closes the last gap
  EXPECT_EQ(runs.runs(), 1u);
  EXPECT_FALSE(runs.insert(6));
  EXPECT_EQ(runs.next_absent(3), 13u);
  EXPECT_EQ(runs.next_absent(0), 0u);
  differential({1, 2, 3, 7, 8, 12, 5, 4, 6, 11, 9, 10, 6}, 0, 14);
}

TEST(SeqRuns, TopOfRangeDoesNotOverflow) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  differential({kMax, kMax - 2, kMax - 1, kMax, kMax - 4}, kMax - 6, kMax);
  SeqRuns runs;
  EXPECT_TRUE(runs.insert(kMax));
  EXPECT_FALSE(runs.insert(kMax));
  EXPECT_EQ(runs.count(0), 0u);  // hi + 1 must not wrap into a false hit
  EXPECT_TRUE(runs.insert(0));
  EXPECT_EQ(runs.runs(), 2u);   // 0 and UINT64_MAX are not adjacent
  EXPECT_TRUE(runs.insert(kMax - 1));
  EXPECT_EQ(runs.runs(), 2u);
  // Past the top, the scan wraps exactly as ++ would, and skips the run
  // at 0 too.
  EXPECT_EQ(runs.next_absent(kMax - 1), 1u);
}

}  // namespace
}  // namespace coop::util
