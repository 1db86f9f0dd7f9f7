// Unit tests for the discrete-event kernel and the statistics containers.
#include <gtest/gtest.h>

#include <vector>

#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace spinn::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeOrderedByPriorityThenSeq) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); }, EventPriority::Background);
  q.schedule_at(5, [&] { order.push_back(2); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(3); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(4); }, EventPriority::Fabric);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  for (TimeNs t = 1; t <= 10; ++t) {
    q.schedule_at(t * 10, [&] { ++count; });
  }
  const std::uint64_t executed = q.run_until(50);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50);  // time advances to the boundary even if no event
  EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(10, recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1, [&] { ++count; });
  q.clear();
  q.run();
  EXPECT_EQ(count, 0);
}

TEST(Simulator, ConvenienceWrappers) {
  Simulator sim(1);
  int hits = 0;
  sim.at(100, [&] { ++hits; });
  sim.after(50, [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RngIsSeeded) {
  Simulator a(5), b(5), c(6);
  EXPECT_EQ(a.rng().next(), b.rng().next());
  Simulator d(5);
  EXPECT_NE(d.rng().next(), c.rng().next());
}

TEST(PeriodicProcess, TicksAtPeriod) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicProcess p(sim, 100, [&] { ++ticks; });
  p.start();
  sim.run_until(1000);
  EXPECT_EQ(ticks, 11);  // t = 0, 100, ..., 1000
}

TEST(PeriodicProcess, CancelStops) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicProcess p(sim, 10, [&] { ++ticks; });
  p.start();
  sim.after(35, [&] { p.cancel(); });
  sim.run_until(1000);
  EXPECT_EQ(ticks, 4);  // 0, 10, 20, 30
}

TEST(PeriodicProcess, PhaseOffsetsFirstTick) {
  Simulator sim(1);
  std::vector<TimeNs> times;
  PeriodicProcess p(sim, 100, [&] { times.push_back(sim.now()); });
  p.start(/*phase=*/42);
  sim.run_until(400);
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times[0], 42);
  EXPECT_EQ(times[1], 142);
}

// ---- stats -----------------------------------------------------------------

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// The latency histogram (obs::Histogram, the one binned-percentile class):
// exact small buckets, clamped ends, and monotone interpolated percentiles.
TEST(Histogram, BinsAndClamping) {
  using H = obs::Histogram;
  H h;
  h.observe(0);           // exact bucket 0
  h.observe(9);           // exact bucket 9
  h.observe(-5);          // clamped to bucket 0
  h.observe(4 * H::kMax); // clamped to the last bucket
  EXPECT_EQ(H::bucket(0), 0u);
  EXPECT_EQ(H::bucket(9), 9u);
  EXPECT_EQ(H::bucket(-5), 0u);
  EXPECT_EQ(H::bucket(4 * H::kMax), H::kBuckets - 1);
  EXPECT_EQ(h.count(), 4u);
  // Half the samples sit in bucket 0, so the lower quartile stays inside
  // it; the top saturates at the layout's upper edge rather than
  // extrapolating.
  EXPECT_EQ(h.percentile(0.25), 0);
  EXPECT_EQ(h.percentile(1.0), H::kMax);
}

TEST(Histogram, PercentileMonotone) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe((i % 100) * 1000 + 500);
  const auto p10 = static_cast<double>(h.percentile(0.10));
  const auto p50 = static_cast<double>(h.percentile(0.50));
  const auto p90 = static_cast<double>(h.percentile(0.90));
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  EXPECT_NEAR(p50, 50000.0, 50000.0 / 16);
  EXPECT_NEAR(p90, 90000.0, 90000.0 / 16);
}

/// Determinism property: identical seeds yield identical event interleaving.
class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameTrace) {
  auto trace = [&](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 50; ++i) {
      const TimeNs t = static_cast<TimeNs>(sim.rng().uniform_int(1000));
      sim.at(t, [&log, t] { log.push_back(static_cast<std::uint64_t>(t)); });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 42u, 1234567u));

}  // namespace
}  // namespace spinn::sim
