#include "graph/graph.h"

#include <algorithm>
#include <atomic>

#include "support/contracts.h"

namespace rumor {

namespace {
std::atomic<std::uint64_t> g_next_version{1};

// How many edges ahead the CSR fill's scatter passes prefetch. Both passes
// write at a random v, so at large n nearly every write misses. Timed over
// the CSR fill on random sorted edge lists on a 4-vCPU x86 VM, D = 8..128 all
// cut the fill 1.7-2x at n = 2·10^4, m = 2.1·10^5 and at n = 10^6,
// m = 4·10^6; 16, 32 and 64 form the plateau at both sizes and 32 sits in
// its middle.
constexpr std::size_t kFillPrefetchDistance = 32;

// Advisory write prefetch: it can never change a value, only hide a miss.
void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1);
#else
  (void)p;
#endif
}

// Stable two-pass counting sort of normalized (u < v) edges into (u, v)
// lexicographic order: O(n + m), no comparisons.
void radix_sort_edges(NodeId n, std::vector<Edge>& edges, std::vector<Edge>& tmp,
                      std::vector<std::int64_t>& count) {
  const std::size_t nsz = static_cast<std::size_t>(n);
  tmp.resize(edges.size());

  // Pass 1: stable sort by the minor key v.
  count.assign(nsz + 1, 0);
  for (const Edge& e : edges) ++count[static_cast<std::size_t>(e.v)];
  std::int64_t run = 0;
  for (std::size_t v = 0; v < nsz; ++v) {
    const std::int64_t c = count[v];
    count[v] = run;
    run += c;
  }
  for (const Edge& e : edges) {
    tmp[static_cast<std::size_t>(count[static_cast<std::size_t>(e.v)]++)] = e;
  }

  // Pass 2: stable sort by the major key u, preserving the v order.
  count.assign(nsz + 1, 0);
  for (const Edge& e : tmp) ++count[static_cast<std::size_t>(e.u)];
  run = 0;
  for (std::size_t u = 0; u < nsz; ++u) {
    const std::int64_t c = count[u];
    count[u] = run;
    run += c;
  }
  for (const Edge& e : tmp) {
    edges[static_cast<std::size_t>(count[static_cast<std::size_t>(e.u)]++)] = e;
  }
}
}  // namespace

namespace detail {

void canonicalize_edges(NodeId n, std::vector<Edge>& edges, bool dedupe, std::vector<Edge>& tmp,
                        std::vector<std::int64_t>& count) {
  for (auto& e : edges) {
    DG_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n, "edge endpoint out of range");
    DG_REQUIRE(e.u != e.v, "self-loops are not allowed in a simple graph");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  // Deterministic generators (cliques, stars, paths) emit edges already in
  // lexicographic order; one cheap scan then skips both scatter passes.
  if (!std::is_sorted(edges.begin(), edges.end())) radix_sort_edges(n, edges, tmp, count);
  if (dedupe) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  } else {
    DG_REQUIRE(std::adjacent_find(edges.begin(), edges.end()) == edges.end(),
               "duplicate edge in a simple graph");
  }
}

}  // namespace detail

Graph::Graph(NodeId n, std::vector<Edge> edges) {
  DG_REQUIRE(n >= 0, "node count must be non-negative");
  {
    // Scoped so the sort scratch is freed before the CSR is allocated.
    std::vector<Edge> tmp;
    std::vector<std::int64_t> count;
    detail::canonicalize_edges(n, edges, /*dedupe=*/false, tmp, count);
  }
  fill(n, edges);
}

void Graph::fill(NodeId n, std::span<const Edge> edges) {
  n_ = n;
  version_ = g_next_version.fetch_add(1);
  // offsets_ is one entry longer while it fills: node x's degree is counted
  // at x + 2, so after the prefix sum offsets_[x + 1] is x's row start and
  // serves as x's append cursor. Once every neighbour is appended, each
  // cursor has advanced to the next row's start, which is exactly the final
  // offsets_[x + 1]; dropping the spare tail entry leaves the CSR offsets
  // with no cursor array beside them.
  //
  // u only grows along the u-major list, so the u-side writes stream; the
  // v-side writes of the degree count and the below pass scatter. Those two
  // passes prefetch edge i + D's counter or cursor, and the below pass also
  // the adjacency slot that edge i + D/2's cursor points at. That cursor may
  // be stale by the time edge i + D/2 is written (edges in between that share
  // its v advance it), which costs at most a wasted hint. Every prefetch
  // address is data() + k with k inside the array: v + 2 <= n + 1 holds for
  // every stored edge, and the cursor is checked against 2m.
  constexpr std::size_t kAhead = kFillPrefetchDistance;
  const std::size_t nsz = static_cast<std::size_t>(n_);
  const std::size_t m = edges.size();
  auto v_of = [&](std::size_t i) { return static_cast<std::size_t>(edges[i].v); };
  offsets_.assign(nsz + 2, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kAhead < m) prefetch_for_write(offsets_.data() + v_of(i + kAhead) + 2);
    ++offsets_[static_cast<std::size_t>(edges[i].u) + 2];
    ++offsets_[v_of(i) + 2];
  }
  min_degree_ = n_ > 0 ? static_cast<NodeId>(offsets_[2]) : 0;
  max_degree_ = min_degree_;
  for (std::size_t u = 0; u < nsz; ++u) {
    const auto deg = static_cast<NodeId>(offsets_[u + 2]);
    min_degree_ = std::min(min_degree_, deg);
    max_degree_ = std::max(max_degree_, deg);
    offsets_[u + 2] += offsets_[u + 1];
  }

  // Two passes keep every adjacency list sorted without a per-node sort:
  // pass one appends each node's below-it neighbours (for fixed v the u's
  // arrive ascending, since the list is u-major), pass two appends the
  // above-it neighbours (for fixed u the v's arrive ascending), and every
  // below-neighbour precedes every above one.
  adjacency_.resize(m * 2);
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kAhead < m) prefetch_for_write(offsets_.data() + v_of(i + kAhead) + 1);
    if (i + kAhead / 2 < m) {
      const auto k = static_cast<std::size_t>(offsets_[v_of(i + kAhead / 2) + 1]);
      if (k < adjacency_.size()) prefetch_for_write(adjacency_.data() + k);
    }
    adjacency_[static_cast<std::size_t>(offsets_[v_of(i) + 1]++)] = edges[i].u;
  }
  for (const Edge& e : edges) {
    adjacency_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(e.u) + 1]++)] = e.v;
  }
  offsets_.pop_back();
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(edge_count()));
  for_each_edge([&](NodeId u, NodeId v) { out.push_back({u, v}); });
  return out;
}

NodeId Graph::degree(NodeId u) const {
  DG_REQUIRE(u >= 0 && u < n_, "node out of range");
  return static_cast<NodeId>(offsets_[static_cast<std::size_t>(u) + 1] -
                             offsets_[static_cast<std::size_t>(u)]);
}

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  DG_REQUIRE(u >= 0 && u < n_, "node out of range");
  return {adjacency_.data() + offsets_[static_cast<std::size_t>(u)],
          static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1] -
                                   offsets_[static_cast<std::size_t>(u)])};
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  DG_REQUIRE(v >= 0 && v < n_, "node out of range");
  return std::binary_search(nb.begin(), nb.end(), v);
}

}  // namespace rumor
