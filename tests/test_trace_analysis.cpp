// Tests for the trace-analysis helpers and the new dynamic families
// (intermittent duty cycling, edge sampling).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/async_engine.h"
#include "core/trace_analysis.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/intermittent.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "stats/summary.h"

namespace rumor {
namespace {

std::vector<TracePoint> synthetic_trace() {
  // informed counts 1, 2, 4, 8, 16 at times 0, 1, 3, 6, 10.
  return {{0.0, 1}, {1.0, 2}, {3.0, 4}, {6.0, 8}, {10.0, 16}};
}

TEST(TraceAnalysis, TimeToReach) {
  const auto trace = synthetic_trace();
  EXPECT_DOUBLE_EQ(*time_to_reach(trace, 1), 0.0);
  EXPECT_DOUBLE_EQ(*time_to_reach(trace, 3), 3.0);  // first count >= 3 is 4
  EXPECT_DOUBLE_EQ(*time_to_reach(trace, 16), 10.0);
  EXPECT_FALSE(time_to_reach(trace, 17).has_value());
}

TEST(TraceAnalysis, DoublingTimes) {
  const auto d = doubling_times(synthetic_trace());
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  EXPECT_DOUBLE_EQ(d[3], 4.0);
}

TEST(TraceAnalysis, PhaseDuration) {
  const auto trace = synthetic_trace();
  // n = 32: start 4, m = 4, target 4 + 2 = 6 -> first count >= 6 is 8 at t=6.
  EXPECT_DOUBLE_EQ(*phase_duration(trace, 32, 4), 3.0);
  EXPECT_THROW(phase_duration(trace, 32, 0), std::invalid_argument);
  EXPECT_FALSE(phase_duration(trace, 32, 17).has_value());
}

TEST(TraceAnalysis, HalfSplit) {
  const auto trace = synthetic_trace();
  const auto split = half_split(trace, 16);
  ASSERT_TRUE(split.has_value());
  EXPECT_DOUBLE_EQ(split->first_phase, 6.0);   // reach 8 = ceil(16/2)
  EXPECT_DOUBLE_EQ(split->second_phase, 4.0);  // 8 -> 16
  EXPECT_FALSE(half_split(trace, 64).has_value());
}

TEST(TraceAnalysis, GrowthRateOnExponentialTrace) {
  // informed = e^t sampled at integer times.
  std::vector<TracePoint> trace;
  for (int t = 0; t <= 6; ++t)
    trace.push_back({static_cast<double>(t),
                     static_cast<std::int64_t>(std::lround(std::exp(t)))});
  const auto rate = growth_rate(trace, 1 << 20);
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, 1.0, 0.05);
}

TEST(TraceAnalysis, GrowthRateNeedsEnoughPoints) {
  EXPECT_FALSE(growth_rate({{0.0, 1}, {1.0, 2}}, 100).has_value());
}

TEST(TraceAnalysis, RealCliqueRunGrowsExponentially) {
  StaticNetwork net(make_clique(512));
  Rng rng(4);
  AsyncOptions opt;
  opt.record_trace = true;
  const auto r = run_async_jump(net, 0, rng, opt);
  ASSERT_TRUE(r.completed);
  const auto rate = growth_rate(r.trace, 512);
  ASSERT_TRUE(rate.has_value());
  // Push-pull on K_n: |I| grows at rate ~2 per unit time while small.
  EXPECT_GT(*rate, 0.8);
  EXPECT_LT(*rate, 4.0);
}

TEST(Intermittent, DownStepsExposeEmptyGraph) {
  auto base = std::make_unique<StaticNetwork>(make_clique(8));
  IntermittentNetwork net(std::move(base), 3, 1);  // up on t % 3 == 0
  Bitset flags(8);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  EXPECT_EQ(net.graph_at(0, view).edge_count(), 28);
  EXPECT_TRUE(net.currently_up());
  EXPECT_EQ(net.graph_at(1, view).edge_count(), 0);
  EXPECT_FALSE(net.currently_up());
  EXPECT_EQ(net.graph_at(2, view).edge_count(), 0);
  EXPECT_EQ(net.graph_at(3, view).edge_count(), 28);
}

TEST(Intermittent, DownProfileIsDisconnected) {
  auto base = std::make_unique<StaticNetwork>(make_clique(8));
  IntermittentNetwork net(std::move(base), 2, 1);
  Bitset flags(8);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  net.graph_at(1, view);
  EXPECT_FALSE(net.current_profile().connected);
  EXPECT_DOUBLE_EQ(net.current_profile().ceil_phi_abs_rho(), 0.0);
}

TEST(Intermittent, SpreadStretchesByDutyCycle) {
  // With 1-in-4 uptime, the spread time stretches by ~4x.
  auto mean_spread = [](int period, int up) {
    OnlineStats s;
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      auto base = std::make_unique<StaticNetwork>(make_cycle(64));
      IntermittentNetwork net(std::move(base), period, up);
      Rng rng(100 + seed);
      AsyncOptions opt;
      opt.time_limit = 1e6;
      const auto r = run_async_jump(net, 0, rng, opt);
      EXPECT_TRUE(r.completed);
      s.add(r.spread_time);
    }
    return s.mean();
  };
  const double full = mean_spread(1, 1);
  const double quarter = mean_spread(4, 1);
  EXPECT_NEAR(quarter / full, 4.0, 1.5);
}

TEST(Intermittent, ValidatesParameters) {
  EXPECT_THROW(IntermittentNetwork(nullptr, 2, 1), std::invalid_argument);
  EXPECT_THROW(
      IntermittentNetwork(std::make_unique<StaticNetwork>(make_clique(4)), 2, 3),
      std::invalid_argument);
  EXPECT_THROW(
      IntermittentNetwork(std::make_unique<StaticNetwork>(make_clique(4)), 0, 0),
      std::invalid_argument);
}

TEST(EdgeSampling, SubgraphOfBase) {
  EdgeSamplingNetwork net(make_clique(16), 0.3, 5);
  Bitset flags(16);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  for (int t = 0; t < 10; ++t) {
    const Graph& g = net.graph_at(t, view);
    for (const Edge& e : g.edges()) EXPECT_TRUE(net.base_graph().has_edge(e.u, e.v));
  }
}

TEST(EdgeSampling, DensityMatchesP) {
  EdgeSamplingNetwork net(make_clique(32), 0.25, 6);
  Bitset flags(32);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  double total = 0.0;
  const int steps = 200;
  for (int t = 0; t < steps; ++t)
    total += static_cast<double>(net.graph_at(t, view).edge_count());
  const double expected = 0.25 * 32 * 31 / 2.0;
  EXPECT_NEAR(total / steps, expected, expected * 0.1);
}

TEST(EdgeSampling, ResamplesEachStep) {
  EdgeSamplingNetwork net(make_clique(16), 0.5, 7);
  Bitset flags(16);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  const auto v0 = net.graph_at(0, view).version();
  const auto v1 = net.graph_at(1, view).version();
  EXPECT_NE(v0, v1);
}

TEST(EdgeSampling, SpreadCompletesDespiteDisconnection) {
  EdgeSamplingNetwork net(make_cycle(32), 0.3, 8);
  Rng rng(9);
  AsyncOptions opt;
  opt.time_limit = 1e6;
  const auto r = run_async_jump(net, 0, rng, opt);
  EXPECT_TRUE(r.completed);
}

TEST(EdgeSampling, POneIsTheBaseGraph) {
  EdgeSamplingNetwork net(make_clique(8), 1.0, 10);
  Bitset flags(8);
  std::int64_t count = 0;
  const InformedView view(&flags, &count);
  EXPECT_EQ(net.graph_at(3, view).edge_count(), 28);
}

TEST(EdgeSampling, ValidatesP) {
  EXPECT_THROW(EdgeSamplingNetwork(make_clique(4), 0.0, 1), std::invalid_argument);
  EXPECT_THROW(EdgeSamplingNetwork(make_clique(4), 1.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rumor
