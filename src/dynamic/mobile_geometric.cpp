#include "dynamic/mobile_geometric.h"

#include <algorithm>
#include <cmath>

#include "support/contracts.h"

namespace rumor {

namespace {
// Torus distance in one dimension.
double wrap_delta(double a, double b) {
  double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}
}  // namespace

MobileGeometricNetwork::MobileGeometricNetwork(NodeId n, double radius, double step,
                                               std::uint64_t seed)
    : EvolvingNetwork(n), n_(n), radius_(radius), step_(step), seed_(seed) {
  DG_REQUIRE(n >= 2, "need at least two agents");
  DG_REQUIRE(radius > 0.0 && radius < 0.5, "radius must lie in (0, 0.5)");
  DG_REQUIRE(step >= 0.0 && step < 0.5, "step must lie in [0, 0.5)");
  x_.resize(static_cast<std::size_t>(n));
  y_.resize(static_cast<std::size_t>(n));
  // Initial positions are stream counter 0 of the same tiled counter-based
  // scheme as move(), so the whole position history is one portable contract.
  const std::int64_t tiles = agent_tiles();
  for (std::int64_t tile = 0; tile < tiles; ++tile) {
    Rng rng(counter_stream_seed(seed_, 0, static_cast<std::uint64_t>(tile)));
    const std::int64_t lo = tile * kAgentsPerTile;
    const std::int64_t hi = std::min<std::int64_t>(n_, lo + kAgentsPerTile);
    for (std::int64_t u = lo; u < hi; ++u) {
      x_[static_cast<std::size_t>(u)] = rng.uniform();
      y_[static_cast<std::size_t>(u)] = rng.uniform();
    }
  }
  rebuild();
}

void MobileGeometricNetwork::advance(std::uint64_t step) {
  // Each tile owns the agent range [tile·W, (tile+1)·W) and a private
  // counter-based RNG stream: two uniforms per agent — angle, then length —
  // in ascending agent order. Tiles write disjoint position slots, so the
  // step is a pure function of (seed, step, tiling) on any thread schedule.
  run_tiles(agent_tiles(), [&](std::int64_t tile) {
    Rng rng(counter_stream_seed(seed_, step, static_cast<std::uint64_t>(tile)));
    const std::int64_t lo = tile * kAgentsPerTile;
    const std::int64_t hi = std::min<std::int64_t>(n_, lo + kAgentsPerTile);
    for (std::int64_t u = lo; u < hi; ++u) {
      const double angle = rng.uniform() * 2.0 * M_PI;
      const double r = rng.uniform() * step_;
      auto& x = x_[static_cast<std::size_t>(u)];
      auto& y = y_[static_cast<std::size_t>(u)];
      x = std::fmod(x + r * std::cos(angle) + 1.0, 1.0);
      y = std::fmod(y + r * std::sin(angle) + 1.0, 1.0);
    }
  });
  rebuild();
}

void MobileGeometricNetwork::rebuild() {
  // Cell grid of side >= radius: only neighbouring cells can hold neighbours.
  const int cells = std::max(1, static_cast<int>(std::floor(1.0 / radius_)));
  const double cell_size = 1.0 / cells;
  const auto cells_sz = static_cast<std::size_t>(cells);
  const auto nsz = static_cast<std::size_t>(n_);

  // Pass 1 (parallel over agent tiles): each agent's flat cell id. Disjoint
  // writes per tile; no randomness.
  cell_index_.resize(nsz);
  run_tiles(agent_tiles(), [&](std::int64_t tile) {
    const std::int64_t lo = tile * kAgentsPerTile;
    const std::int64_t hi = std::min<std::int64_t>(n_, lo + kAgentsPerTile);
    for (std::int64_t u = lo; u < hi; ++u) {
      const auto su = static_cast<std::size_t>(u);
      const int cx = std::min(cells - 1, static_cast<int>(x_[su] / cell_size));
      const int cy = std::min(cells - 1, static_cast<int>(y_[su] / cell_size));
      cell_index_[su] = static_cast<std::int32_t>(cy * cells + cx);
    }
  });

  // Pass 2 (serial, O(n + cells²)): counting-sort the agents into a flat CSR
  // cell layout. Ascending-u fill keeps each cell's agents in agent order —
  // the same membership order the old vector<vector> grid produced.
  cell_start_.assign(cells_sz * cells_sz + 1, 0);
  for (std::size_t u = 0; u < nsz; ++u) {
    ++cell_start_[static_cast<std::size_t>(cell_index_[u]) + 1];
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  cell_cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  cell_agents_.resize(nsz);
  for (std::size_t u = 0; u < nsz; ++u) {
    const auto c = static_cast<std::size_t>(cell_index_[u]);
    cell_agents_[static_cast<std::size_t>(cell_cursor_[c]++)] = static_cast<NodeId>(u);
  }

  // Pass 3 (parallel over cell rows): each row task scans its cells'
  // 9-neighbourhoods and emits candidate pairs into its own slot. The edge
  // *set* is independent of the task schedule, and the builder sorts (and,
  // for the overlapping windows of cells < 3, dedupes) the concatenation, so
  // the snapshot is byte-identical to the serial scan's.
  const double r2 = radius_ * radius_;
  // Cell coordinate c + d for d in {-1, 0, 1}, wrapped onto the torus by
  // compare-and-select: |d| <= 1 <= cells, so one correction suffices.
  auto wrap = [cells](int c) { return c < 0 ? c + cells : (c >= cells ? c - cells : c); };
  row_edges_.resize(cells_sz);
  run_tiles(cells, [&](std::int64_t row) {
    std::vector<Edge>& out = row_edges_[static_cast<std::size_t>(row)];
    out.clear();
    const int cy = static_cast<int>(row);
    for (int cx = 0; cx < cells; ++cx) {
      const auto here_cell = static_cast<std::size_t>(cy) * cells_sz + static_cast<std::size_t>(cx);
      const std::int64_t here_lo = cell_start_[here_cell];
      const std::int64_t here_hi = cell_start_[here_cell + 1];
      if (here_lo == here_hi) continue;
      for (int dy = -1; dy <= 1; ++dy) {
        const auto there_row = static_cast<std::size_t>(wrap(cy + dy)) * cells_sz;
        for (int dx = -1; dx <= 1; ++dx) {
          const auto there_cell = there_row + static_cast<std::size_t>(wrap(cx + dx));
          const std::int64_t there_lo = cell_start_[there_cell];
          const std::int64_t there_hi = cell_start_[there_cell + 1];
          for (std::int64_t i = here_lo; i < here_hi; ++i) {
            const NodeId u = cell_agents_[static_cast<std::size_t>(i)];
            for (std::int64_t j = there_lo; j < there_hi; ++j) {
              const NodeId v = cell_agents_[static_cast<std::size_t>(j)];
              if (u >= v) continue;
              const double ddx = wrap_delta(x_[static_cast<std::size_t>(u)],
                                            x_[static_cast<std::size_t>(v)]);
              const double ddy = wrap_delta(y_[static_cast<std::size_t>(u)],
                                            y_[static_cast<std::size_t>(v)]);
              if (ddx * ddx + ddy * ddy <= r2) out.push_back({u, v});
            }
          }
        }
      }
    }
  });

  std::size_t total = 0;
  for (const auto& out : row_edges_) total += out.size();
  std::vector<Edge> edges;
  edges.reserve(total);
  for (const auto& out : row_edges_) edges.insert(edges.end(), out.begin(), out.end());

  topo_.rebuild(std::move(edges), /*dedupe=*/true);
}

}  // namespace rumor
