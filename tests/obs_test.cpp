// The observability layer's own contract tests: the exact percentile every
// bench uses, the histogram's bucket layout and its error bound against
// that exact rule, counter/gauge/histogram semantics under concurrency,
// registry scoping, the bounded trace ring, and the tracer's Chrome-JSON
// dump shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/trace_ring.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"

namespace spinn {
namespace {

// ---- sim::percentile (the sample-exact rule the benches use) ---------------

TEST(Percentile, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsItselfAtEveryP) {
  for (const double p : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(sim::percentile({42.0}, p), 42.0) << "p=" << p;
  }
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // R-7 rule: position p*(n-1) in the sorted samples.
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.5), 25.0);   // pos 1.5
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0 / 3), 20.0);  // pos exactly 1
}

TEST(Percentile, UnsortedInputIsSortedFirst) {
  EXPECT_DOUBLE_EQ(sim::percentile({30.0, 10.0, 20.0}, 0.5), 20.0);
}

TEST(Percentile, OutOfRangePClamps) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.5), 3.0);
}

// ---- histogram bucket and interpolation pins -------------------------------
//
// Bucket edges, clamped ends and in-bucket interpolation of the one
// latency histogram.

using Hist = obs::Histogram;

TEST(SimHistogram, EmptyPercentileIsZero) {
  Hist h;
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.summary().p50, 0);
}

TEST(SimHistogram, SingleSampleInterpolatesInsideItsBin) {
  // One sample in bucket [3456, 3584): p=1.0 lands at the bucket's top
  // edge, p->0 at its bottom edge — the estimate never leaves the bucket.
  Hist h;
  h.observe(3500);
  const std::size_t b = Hist::bucket(3500);
  EXPECT_EQ(Hist::bucket_lo(b), 3456);
  EXPECT_EQ(h.percentile(1.0), Hist::bucket_lo(b + 1));
  EXPECT_GE(h.percentile(0.01), Hist::bucket_lo(b));
  EXPECT_LT(h.percentile(0.01), Hist::bucket_lo(b + 1));
}

TEST(SimHistogram, BinEdgeSampleCountsInItsBin) {
  // A value exactly on a bucket edge belongs to the higher bucket
  // ([lo, hi) buckets), across the whole layout.
  for (std::size_t i = 1; i < Hist::kBuckets; ++i) {
    const std::int64_t lo = Hist::bucket_lo(i);
    ASSERT_EQ(Hist::bucket(lo), i) << "edge " << lo;
    ASSERT_EQ(Hist::bucket(lo - 1), i - 1) << "below edge " << lo;
  }
}

TEST(SimHistogram, UniformFillHitsExactQuartiles) {
  Hist h;
  for (int i = 0; i < 100; ++i) h.observe(i * 1000 + 500);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.50)), 50000.0, 50000.0 / 16);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 95000.0, 95000.0 / 16);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 99000.0, 99000.0 / 16);
}

TEST(SimHistogram, OutOfRangeSamplesClampToEndBins) {
  Hist h;
  h.observe(-5);
  h.observe(3 * Hist::kMax);
  EXPECT_EQ(Hist::bucket(-5), 0u);
  EXPECT_EQ(Hist::bucket(3 * Hist::kMax), Hist::kBuckets - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(0.25), 0);
  // Everything above the range saturates at the top edge rather than
  // extrapolating.
  EXPECT_EQ(h.percentile(1.0), Hist::kMax);
}

// ---- obs::Counter / Gauge / Histogram --------------------------------------

TEST(ObsCounter, SumsAcrossConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounter, IncByAddsExactly) {
  obs::Counter c;
  c.inc(7);
  c.inc(3);
  EXPECT_EQ(c.value(), 10u);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsGauge, AddMovesBothWays) {
  obs::Gauge g;
  g.add(3);
  g.add(-1);
  EXPECT_EQ(g.value(), 2);
  g.add(-5);
  EXPECT_EQ(g.value(), -3);
}

TEST(ObsHistogram, EmptyPercentileIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(ObsHistogram, SingleSampleStaysInItsBin) {
  obs::Histogram h;  // 345 lands in [336, 352)
  h.observe(345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 345u);
  EXPECT_GE(h.percentile(0.5), 336);
  EXPECT_LT(h.percentile(0.5), 352);
  EXPECT_GE(h.percentile(0.99), 336);
  EXPECT_LE(h.percentile(0.99), 352);
}

TEST(ObsHistogram, ClampsOutOfRangeObservations) {
  obs::Histogram h;
  h.observe(-50);
  h.observe(obs::Histogram::kMax + 5000);
  EXPECT_EQ(h.count(), 2u);
  // The negative sample contributes 0 to the sum (sum is of clamped-at-0
  // magnitudes), the high one its real value.
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(obs::Histogram::kMax + 5000));
  EXPECT_EQ(h.percentile(1.0), obs::Histogram::kMax);  // saturates
}

TEST(ObsHistogram, PercentilesOrdered) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 5000.0, 5000.0 / 16);
}

TEST(ObsHistogram, SummaryMatchesIndividualPercentiles) {
  // summary() is the scrape path (one snapshot for all three
  // percentiles); with no concurrent writers it must agree exactly with
  // three percentile() calls.
  obs::Histogram h;
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_EQ(h.summary().p99, 0);
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.p50, h.percentile(0.50));
  EXPECT_EQ(s.p95, h.percentile(0.95));
  EXPECT_EQ(s.p99, h.percentile(0.99));
}

TEST(ObsHistogram, LayoutBoundsEveryBucketToOneSixteenth) {
  using H = obs::Histogram;
  EXPECT_EQ(H::kBuckets, 528u);
  EXPECT_EQ(H::bucket_lo(H::kBuckets), std::int64_t{1} << 36);
  for (std::size_t i = 0; i < H::kBuckets; ++i) {
    const std::int64_t lo = H::bucket_lo(i);
    const std::int64_t width = H::bucket_lo(i + 1) - lo;
    ASSERT_GE(width, 1) << "bucket " << i;
    if (i < 16) {
      EXPECT_EQ(lo, static_cast<std::int64_t>(i));  // exact 0..15 ns
      EXPECT_EQ(width, 1);
    } else {
      ASSERT_LE(16 * width, lo) << "bucket " << i << " wider than lo/16";
    }
  }
}

// Every decade from 10 ns to 10 s: 1000 samples uniform over [d, 2d), and
// the histogram's p50/p95/p99 within 1/16 of the exact R-7 percentile.
// The last range is the probe that exposed the old per-site bins: 1000
// time-to-first-spike samples of 30-50 us read p50 = 2 500 000 ns through
// 5 ms bins.
TEST(ObsHistogram, EveryDecadeWithinOneSixteenthOfExact) {
  struct Range {
    std::int64_t lo, width;
  };
  std::vector<Range> ranges;
  for (std::int64_t d = 10; d <= 10'000'000'000; d *= 10) {
    ranges.push_back({d, d});
  }
  ranges.push_back({30'000, 20'001});
  Rng rng(2026);
  for (const Range& r : ranges) {
    SCOPED_TRACE("samples in [" + std::to_string(r.lo) + ", " +
                 std::to_string(r.lo + r.width) + ") ns");
    obs::Histogram h;
    std::vector<double> exact;
    for (int i = 0; i < 1000; ++i) {
      const auto x = r.lo + static_cast<std::int64_t>(rng.uniform_int(
                                static_cast<std::uint64_t>(r.width)));
      h.observe(x);
      exact.push_back(static_cast<double>(x));
    }
    for (const double p : {0.50, 0.95, 0.99}) {
      const double want = sim::percentile(exact, p);
      EXPECT_NEAR(static_cast<double>(h.percentile(p)), want, want / 16)
          << "p" << p * 100;
    }
  }
}

// ---- obs::Registry ---------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("test.registry.counter");
  obs::Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = reg.histogram("test.registry.hist");
  obs::Histogram& hb = reg.histogram("test.registry.hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistry, RowsSortedAndHistogramsExpand) {
  obs::Registry reg;
  reg.counter("test.rows.b").inc(2);
  reg.counter("test.rows.a").inc(1);
  reg.gauge("test.rows.g").set(5);
  reg.histogram("test.rows.h").observe(50);
  const auto rows = reg.rows();
  ASSERT_EQ(rows.size(), 7u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "rows must be sorted";
  }
  const auto find = [&](const std::string& name) -> const std::uint64_t* {
    for (const auto& [n, v] : rows) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("test.rows.a"), nullptr);
  EXPECT_EQ(*find("test.rows.a"), 1u);
  EXPECT_EQ(*find("test.rows.b"), 2u);
  EXPECT_EQ(*find("test.rows.g"), 5u);
  ASSERT_NE(find("test.rows.h.count"), nullptr);
  EXPECT_EQ(*find("test.rows.h.count"), 1u);
  EXPECT_NE(find("test.rows.h.p50"), nullptr);
  EXPECT_NE(find("test.rows.h.p95"), nullptr);
  EXPECT_NE(find("test.rows.h.p99"), nullptr);
}

// The scrape-order protocol the transport's torn-total guarantee rests on:
// a writer increments `first` (registered first) before `second`, and a
// scrape, reading in reverse registration order, never sees `second` ahead
// of `first` — with no lock shared between writer and scraper.
TEST(ObsRegistry, ScrapeNeverSeesALaterIncrementWithoutAnEarlierOne) {
  obs::Registry reg;
  obs::Counter& first = reg.counter("test.order.z_first");
  // Histograms registered in between keep each scrape busy between its
  // two counter reads, so a wrong read order would show at once.
  for (int i = 0; i < 8; ++i) reg.histogram("test.order.h" + std::to_string(i));
  obs::Counter& second = reg.counter("test.order.a_second");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      first.inc();
      second.inc();
    }
  });
  while (second.value() == 0) std::this_thread::yield();
  int torn = 0;
  for (int scrape = 0; scrape < 2000; ++scrape) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    for (const auto& [name, value] : reg.rows()) {
      if (name == "test.order.z_first") a = value;
      if (name == "test.order.a_second") b = value;
    }
    if (b > a) ++torn;
  }
  stop = true;
  writer.join();
  EXPECT_EQ(torn, 0);
}

// One name, one kind: registering a name again as another kind is a
// programming error, not a second row under the same name.
TEST(ObsRegistry, KindClashThrowsAtRegistration) {
  obs::Registry reg;
  reg.counter("test.clash").inc(3);
  EXPECT_THROW(reg.gauge("test.clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("test.clash"), std::logic_error);
  reg.gauge("test.level");
  EXPECT_THROW(reg.counter("test.level"), std::logic_error);
  const auto rows = reg.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::pair<std::string, std::uint64_t>{"test.clash", 3}));
  EXPECT_EQ(rows[1].first, "test.level");
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, BoundedOverwriteKeepsNewest) {
  TraceRing<2> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t rec[2] = {i, i * 10};
    ring.push(rec);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  const auto out = ring.read();
  ASSERT_EQ(out.size(), 8u);  // only the last capacity survive
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i][0], 12 + i);  // oldest surviving is push #12
    EXPECT_EQ(out[i][1], (12 + i) * 10);
  }
}

TEST(TraceRing, ConcurrentReaderNeverSeesTornRecords) {
  // Single producer pushes (i, ~i) pairs; a reader snapshots continuously.
  // Every record read must be internally consistent.
  TraceRing<2> ring(64);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& rec : ring.read()) {
        ASSERT_EQ(rec[1], ~rec[0]) << "torn record";
      }
    }
  });
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const std::uint64_t rec[2] = {i, ~i};
    ring.push(rec);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

// ---- Tracer ----------------------------------------------------------------

TEST(Tracer, RecordsAndDumpsChromeJson) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.complete("testcat", "span.one", 1000, 2500, "arg", 7);
  tr.instant("testcat", "point.one", 5005, nullptr, 0,
             /*virtual_clock=*/true);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "span.one");
  EXPECT_EQ(events[0].ts_ns, 1000);
  EXPECT_EQ(events[0].dur_ns, 2500);
  EXPECT_FALSE(events[0].instant);
  EXPECT_FALSE(events[0].virtual_clock);
  EXPECT_STREQ(events[0].arg_name, "arg");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_TRUE(events[1].instant);
  EXPECT_TRUE(events[1].virtual_clock);

  const std::string json = tr.dump_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // ns precision survives as zero-padded µs fractions: 1000ns = 1.000µs,
  // 5005ns = 5.005µs.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5.005"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  // Virtual-time events live in pid 1, wall in pid 0.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":7}"), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(false);
  tr.complete("testcat", "dropped", 0, 1);
  EXPECT_TRUE(tr.snapshot().empty());
  tr.set_enabled(true);
  tr.complete("testcat", "kept", 0, 1);
  EXPECT_EQ(tr.snapshot().size(), 1u);
}

TEST(Tracer, ClearDropsEvents) {
  auto& tr = obs::Tracer::global();
  tr.set_enabled(true);
  tr.complete("testcat", "x", 0, 1);
  EXPECT_FALSE(tr.snapshot().empty());
  tr.clear();
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, SnapshotSortedByTimestamp) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.instant("testcat", "late", 300);
  tr.instant("testcat", "early", 100);
  tr.instant("testcat", "mid", 200);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "late");
}

}  // namespace
}  // namespace spinn
