// Property sweep: every (network family × protocol × engine) combination must
// satisfy the universal invariants of the rumor-spreading process:
//   * the run completes on families that stay (eventually) connected;
//   * exactly n - 1 informative contacts happen (each node informed once);
//   * the informed count is non-decreasing along the trace;
//   * the reported spread time is positive and below the time limit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/runner.h"
#include "dynamic/absolute_adversary.h"
#include "dynamic/clique_bridge.h"
#include "dynamic/diligent_adversary.h"
#include "dynamic/dynamic_star.h"
#include "dynamic/edge_markovian.h"
#include "dynamic/edge_sampling.h"
#include "dynamic/intermittent.h"
#include "dynamic/simple_networks.h"
#include "graph/builders.h"
#include "graph/connectivity.h"
#include "graph/extra_builders.h"
#include "graph/random_graphs.h"

namespace rumor {
namespace {

struct FamilySpec {
  std::string name;
  NetworkFactory factory;
};

std::vector<FamilySpec> families() {
  std::vector<FamilySpec> out;
  out.push_back({"clique48", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_clique(48));
                 }});
  out.push_back({"star49", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_star(49));
                 }});
  out.push_back({"cycle32", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_cycle(32));
                 }});
  out.push_back({"path24", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_path(24));
                 }});
  out.push_back({"hypercube5", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_hypercube(5));
                 }});
  out.push_back({"torus6x6", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_torus_grid(6, 6));
                 }});
  out.push_back({"random4reg40", [](std::uint64_t seed) {
                   Rng rng(seed);
                   return std::make_unique<StaticNetwork>(random_connected_regular(rng, 40, 4));
                 }});
  out.push_back({"barbell12", [](std::uint64_t) {
                   return std::make_unique<StaticNetwork>(make_barbell(12, 3));
                 }});
  out.push_back({"ba60", [](std::uint64_t seed) {
                   Rng rng(seed);
                   return std::make_unique<StaticNetwork>(barabasi_albert(rng, 60, 2));
                 }});
  out.push_back({"ws50", [](std::uint64_t seed) {
                   Rng rng(seed);
                   Graph g = watts_strogatz(rng, 50, 4, 0.2);
                   // WS can disconnect; retry a few seeds for a connected draw.
                   for (int i = 0; i < 20 && !is_connected(g); ++i)
                     g = watts_strogatz(rng, 50, 4, 0.2);
                   return std::make_unique<StaticNetwork>(std::move(g));
                 }});
  out.push_back({"dynamic-star32", [](std::uint64_t seed) {
                   return std::make_unique<DynamicStarNetwork>(32, seed);
                 }});
  out.push_back({"G1-bridge32", [](std::uint64_t) {
                   return std::make_unique<CliqueBridgeNetwork>(32);
                 }});
  out.push_back({"edge-markovian48", [](std::uint64_t seed) {
                   return std::make_unique<EdgeMarkovianNetwork>(48, 0.1, 0.5, seed);
                 }});
  out.push_back({"edge-sampling-cycle32", [](std::uint64_t seed) {
                   return std::make_unique<EdgeSamplingNetwork>(make_cycle(32), 0.5, seed);
                 }});
  out.push_back({"intermittent-clique16", [](std::uint64_t) {
                   return std::make_unique<IntermittentNetwork>(
                       std::make_unique<StaticNetwork>(make_clique(16)), 2, 1);
                 }});
  out.push_back({"diligent-adversary256", [](std::uint64_t seed) {
                   return std::make_unique<DiligentAdversaryNetwork>(256, 0.25, 2, seed);
                 }});
  out.push_back({"absolute-adversary128", [](std::uint64_t seed) {
                   return std::make_unique<AbsoluteAdversaryNetwork>(128, 0.25, seed);
                 }});
  return out;
}

struct Combo {
  int family_index;
  EngineKind engine;
  Protocol protocol;
};

std::vector<Combo> combos() {
  std::vector<Combo> out;
  const int family_count = static_cast<int>(families().size());
  for (int f = 0; f < family_count; ++f) {
    out.push_back({f, EngineKind::async_jump, Protocol::push_pull});
    out.push_back({f, EngineKind::async_jump, Protocol::push});
    out.push_back({f, EngineKind::async_jump, Protocol::pull});
    out.push_back({f, EngineKind::async_tick, Protocol::push_pull});
    out.push_back({f, EngineKind::sync_rounds, Protocol::push_pull});
  }
  return out;
}

class PropertySweep : public ::testing::TestWithParam<Combo> {};

TEST_P(PropertySweep, UniversalInvariantsHold) {
  const Combo combo = GetParam();
  const auto fams = families();
  const FamilySpec& fam = fams[static_cast<std::size_t>(combo.family_index)];

  auto net = fam.factory(1234);
  const NodeId n = net->node_count();
  Rng rng(std::uint64_t{987654321} + static_cast<std::uint64_t>(combo.family_index));

  SpreadResult result;
  if (combo.engine == EngineKind::sync_rounds) {
    SyncOptions opt;
    opt.protocol = combo.protocol;
    opt.record_trace = true;
    opt.round_limit = 1'000'000;
    result = run_sync(*net, net->suggested_source(), rng, opt);
  } else {
    AsyncOptions opt;
    opt.protocol = combo.protocol;
    opt.record_trace = true;
    opt.time_limit = 1e7;
    result = combo.engine == EngineKind::async_jump
                 ? run_async_jump(*net, net->suggested_source(), rng, opt)
                 : run_async_tick(*net, net->suggested_source(), rng, opt);
  }

  ASSERT_TRUE(result.completed) << fam.name << " / " << to_string(combo.engine) << " / "
                                << to_string(combo.protocol);
  EXPECT_EQ(result.informed_count, n);
  EXPECT_EQ(result.informative_contacts, n - 1);
  EXPECT_GT(result.spread_time, 0.0);

  // Trace invariants: monotone times and counts, ends fully informed.
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].first, result.trace[i - 1].first);
    EXPECT_GE(result.trace[i].second, result.trace[i - 1].second);
  }
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.back().second, n);

  // The final informed set agrees with the count.
  EXPECT_EQ(static_cast<std::int64_t>(result.informed.count()), n);
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto fams = families();
  std::string name = fams[static_cast<std::size_t>(info.param.family_index)].name + "_" +
                     to_string(info.param.engine) + "_" + to_string(info.param.protocol);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PropertySweep, ::testing::ValuesIn(combos()), combo_name);

}  // namespace
}  // namespace rumor
