// E9 — Lemma 4.2 / Claim 4.3: with all of S_0 informed, the probability that
// the rumor traverses the k-layer bipartite string of H_{k,Δ} within one unit
// of time is at most (2^k / k!) · Δ.
//
// Part 1 measures that probability empirically on the real H graph (the full
// asynchronous algorithm, exact jump engine) and compares with the bound.
// Part 2 verifies the Claim 4.3 coupling direction: the *forward 2-push*
// process (each informed node pushes forward at rate 2) reaches S_k at least
// as often as the 2-push process — simulated directly on the string.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "common/bench_util.h"
#include "core/async_engine.h"
#include "dynamic/simple_networks.h"
#include "graph/hk_graph.h"
#include "stats/distributions.h"

namespace rumor {
namespace {

// Direct simulation of the 2-push / forward-2-push processes on the string of
// complete bipartite clusters S_0, ..., S_k (cluster size delta), starting
// with all of S_0 informed. Returns true iff some node of S_k is informed by
// time 1. In the 2-push process every informed node pushes to a uniform
// neighbour (forward or backward, delta each way; S_0 pushes forward only,
// matching its delta expander neighbours that leave the string). The forward
// variant always pushes forward.
bool string_push_reaches_sk(Rng& rng, int k, NodeId delta, bool forward_only) {
  // informed[i] = number of informed nodes in cluster S_i (nodes within a
  // cluster are exchangeable, so counts suffice).
  std::vector<NodeId> informed(static_cast<std::size_t>(k) + 1, 0);
  informed[0] = delta;
  double tau = 0.0;
  for (;;) {
    NodeId total_informed = 0;
    for (NodeId c : informed) total_informed += c;
    const double rate = 2.0 * static_cast<double>(total_informed);
    tau += sample_exponential(rng, rate);
    if (tau >= 1.0) return informed[static_cast<std::size_t>(k)] > 0;
    // Pick the pushing node uniformly among informed ones.
    auto pick = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(total_informed)));
    std::size_t cluster = 0;
    while (pick >= informed[cluster]) {
      pick -= informed[cluster];
      ++cluster;
    }
    if (cluster == static_cast<std::size_t>(k)) continue;  // S_k pushes leave the string
    // Forward or backward?
    bool forward = true;
    if (!forward_only && cluster > 0) forward = rng.flip(0.5);
    if (cluster == 0 && !forward_only) {
      // S_0 nodes have delta forward neighbours and delta expander neighbours;
      // a push backward leaves the string.
      if (rng.flip(0.5)) continue;
    }
    const std::size_t target_cluster = forward ? cluster + 1 : cluster - 1;
    // The target is a uniform node of the target cluster: it is newly
    // informed with probability (delta - informed[target]) / delta.
    const auto already = informed[target_cluster];
    if (rng.below(static_cast<std::uint64_t>(delta)) >= static_cast<std::uint64_t>(already)) {
      ++informed[target_cluster];
      if (target_cluster == static_cast<std::size_t>(k) && informed[target_cluster] > 0)
        return tau < 1.0;
    }
  }
}

}  // namespace
}  // namespace rumor

int main(int argc, char** argv) {
  using namespace rumor;
  const Cli cli(argc, argv);
  const int trials = static_cast<int>(cli.get_int("trials", 400));

  bench::banner("E9", "Lemma 4.2 / Claim 4.3",
                "Pr[rumor crosses S_0 -> S_k within 1 time unit] <= (2^k/k!) * Delta");

  // Part 1: the real H graph with the full asynchronous algorithm.
  Table table({"k", "Delta", "empirical Pr[cross<=1]", "bound (2^k/k!)Delta", "holds"});
  bool all_hold = true;
  for (const auto& [k, delta] : std::vector<std::pair<int, NodeId>>{
           {2, 4}, {4, 4}, {6, 4}, {8, 4}, {6, 16}, {8, 16}, {10, 16}}) {
    const NodeId a_count = std::max<NodeId>(delta + 8, 32);
    const NodeId b_count = static_cast<NodeId>(k) * delta + 64;
    const NodeId n = a_count + b_count;
    std::vector<NodeId> a_side(static_cast<std::size_t>(a_count));
    std::vector<NodeId> b_side(static_cast<std::size_t>(b_count));
    std::iota(a_side.begin(), a_side.end(), 0);
    std::iota(b_side.begin(), b_side.end(), a_count);

    int crossed = 0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng build_rng(900 + static_cast<std::uint64_t>(trial));
      const HkGraph h = build_hk_graph(build_rng, n, a_side, b_side, k, delta);
      StaticNetwork net(h.graph);
      AsyncOptions opt;
      opt.time_limit = 1.0;
      opt.extra_sources = h.clusters.front();  // all of S_0 informed at t = 0
      Rng rng(5000 + static_cast<std::uint64_t>(trial));
      const auto r = run_async_jump(net, h.clusters.front().front(), rng, opt);
      const bool reached =
          std::any_of(h.clusters.back().begin(), h.clusters.back().end(), [&](NodeId u) {
            return r.informed.test(static_cast<std::size_t>(u));
          });
      if (reached) ++crossed;
    }
    const double empirical = static_cast<double>(crossed) / trials;
    const double bound =
        std::min(1.0, std::exp(k * std::log(2.0) - std::lgamma(k + 1.0)) * delta);
    const bool holds = empirical <= bound + 3.0 * std::sqrt(bound / trials) + 5.0 / trials;
    all_hold = all_hold && holds;
    table.add_row({Table::cell(static_cast<std::int64_t>(k)),
                   Table::cell(static_cast<std::int64_t>(delta)), Table::cell(empirical, 4),
                   Table::cell(bound, 4), holds ? "yes" : "NO"});
  }
  table.print(std::cout);

  // Part 2: Claim 4.3 — forward 2-push dominates 2-push on the string.
  std::cout << "\nClaim 4.3 coupling direction (string-only simulation, " << trials * 4
            << " trials per row):\n";
  Table claim({"k", "Delta", "Pr[2-push crosses]", "Pr[forward crosses]", "forward >= 2-push"});
  bool domination = true;
  for (const auto& [k, delta] :
       std::vector<std::pair<int, NodeId>>{{3, 4}, {5, 4}, {5, 16}, {7, 16}}) {
    int base = 0, fwd = 0;
    const int t2 = trials * 4;
    for (int trial = 0; trial < t2; ++trial) {
      Rng r1(31 + static_cast<std::uint64_t>(trial));
      Rng r2(67 + static_cast<std::uint64_t>(trial));
      if (string_push_reaches_sk(r1, k, delta, /*forward_only=*/false)) ++base;
      if (string_push_reaches_sk(r2, k, delta, /*forward_only=*/true)) ++fwd;
    }
    const double pb = static_cast<double>(base) / t2;
    const double pf = static_cast<double>(fwd) / t2;
    const bool ok = pf + 2.5 * std::sqrt((pf * (1 - pf) + 0.003) / t2) >= pb;
    domination = domination && ok;
    claim.add_row({Table::cell(static_cast<std::int64_t>(k)),
                   Table::cell(static_cast<std::int64_t>(delta)), Table::cell(pb, 4),
                   Table::cell(pf, 4), ok ? "yes" : "NO"});
  }
  claim.print(std::cout);

  bench::verdict(all_hold && domination,
                 "layer-crossing probability within the Lemma 4.2 bound, and the forward "
                 "2-push dominates the 2-push as Claim 4.3 requires");
  return (all_hold && domination) ? 0 : 1;
}
