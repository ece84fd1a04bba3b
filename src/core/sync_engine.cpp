#include "core/sync_engine.h"

#include <utility>
#include <vector>

#include "support/bitset.h"
#include "support/contracts.h"

namespace rumor {

SpreadResult run_sync(DynamicNetwork& net, NodeId source, Rng& rng, const SyncOptions& options) {
  const NodeId n = net.node_count();
  DG_REQUIRE(n >= 1, "network must have nodes");
  DG_REQUIRE(source >= 0 && source < n, "source out of range");
  DG_REQUIRE(options.round_limit > 0, "round limit must be positive");

  DG_REQUIRE(options.transmission_failure_prob >= 0.0 &&
                 options.transmission_failure_prob < 1.0,
             "failure probability must lie in [0, 1)");

  SpreadResult result;
  Bitset informed(static_cast<std::size_t>(n));
  std::int64_t informed_count = 1;
  informed.set(static_cast<std::size_t>(source));
  const InformedView view(&informed, &informed_count);

  if (options.record_trace) result.trace.push_back({0.0, 1});
  if (n == 1) {
    result.completed = true;
    result.informed_count = 1;
    result.informed = std::move(informed);
    return result;
  }

  const bool do_push =
      options.protocol == Protocol::push || options.protocol == Protocol::push_pull;
  const bool do_pull =
      options.protocol == Protocol::pull || options.protocol == Protocol::push_pull;

  std::uint64_t version = 0;
  std::vector<NodeId> newly;
  std::int64_t round = 0;
  for (; round < options.round_limit && informed_count < n; ++round) {
    const Graph& g = net.graph_at(round, view);
    if (g.version() != version) {
      if (round > 0) ++result.graph_changes;
      version = g.version();
    }
    const CsrView csr = g.csr();

    newly.clear();
    for (NodeId u = 0; u < n; ++u) {
      const NodeId deg = csr.degree(u);
      if (deg == 0) continue;
      const NodeId v = csr.adjacency[csr.offsets[u] + static_cast<std::int64_t>(rng.below(
                                                          static_cast<std::uint64_t>(deg)))];
      ++result.total_contacts;
      if (options.transmission_failure_prob > 0.0 &&
          rng.flip(options.transmission_failure_prob)) {
        continue;  // lossy link: the exchange was lost
      }
      const bool iu = informed.test(static_cast<std::size_t>(u));
      const bool iv = informed.test(static_cast<std::size_t>(v));
      // Exchanges use start-of-round knowledge; duplicates collapse below.
      if (do_push && iu && !iv) newly.push_back(v);
      if (do_pull && iv && !iu) newly.push_back(u);
    }
    for (NodeId w : newly) {
      if (!informed.test(static_cast<std::size_t>(w))) {
        informed.set(static_cast<std::size_t>(w));
        ++informed_count;
        ++result.informative_contacts;
      }
    }
    if (options.record_trace)
      result.trace.push_back({static_cast<double>(round + 1), informed_count});
  }

  result.informed_count = informed_count;
  result.informed = std::move(informed);
  result.completed = informed_count == n;
  result.spread_time = static_cast<double>(round);
  return result;
}

SpreadResult run_flooding(DynamicNetwork& net, NodeId source, const FloodingOptions& options) {
  const NodeId n = net.node_count();
  DG_REQUIRE(n >= 1, "network must have nodes");
  DG_REQUIRE(source >= 0 && source < n, "source out of range");

  SpreadResult result;
  Bitset informed(static_cast<std::size_t>(n));
  std::int64_t informed_count = 1;
  informed.set(static_cast<std::size_t>(source));
  const InformedView view(&informed, &informed_count);

  if (options.record_trace) result.trace.push_back({0.0, 1});
  std::int64_t round = 0;
  std::vector<NodeId> next;
  Bitset pending(static_cast<std::size_t>(n));
  for (; round < options.round_limit && informed_count < n; ++round) {
    const Graph& g = net.graph_at(round, view);
    const CsrView csr = g.csr();
    next.clear();
    // Flooding: every node informed at the START of the round informs all its
    // neighbours; new nodes relay only from the next round on.
    for (NodeId u = 0; u < n; ++u) {
      if (!informed.test(static_cast<std::size_t>(u))) continue;
      for (NodeId v : csr.neighbors(u)) {
        if (!informed.test(static_cast<std::size_t>(v)) &&
            !pending.test(static_cast<std::size_t>(v))) {
          pending.set(static_cast<std::size_t>(v));
          next.push_back(v);
        }
      }
    }
    for (NodeId v : next) {
      informed.set(static_cast<std::size_t>(v));
      pending.clear(static_cast<std::size_t>(v));
    }
    informed_count += static_cast<std::int64_t>(next.size());
    result.informative_contacts += static_cast<std::int64_t>(next.size());
    if (options.record_trace)
      result.trace.push_back({static_cast<double>(round + 1), informed_count});
    if (next.empty() && informed_count < n) {
      // No progress this round (disconnected exposure); keep going — the
      // topology may reconnect at a later step.
      continue;
    }
  }

  result.informed_count = informed_count;
  result.informed = std::move(informed);
  result.completed = informed_count == n;
  result.spread_time = static_cast<double>(round);
  return result;
}

}  // namespace rumor
