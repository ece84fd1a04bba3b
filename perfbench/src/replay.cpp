#include "replay.h"

#include "core/rate_model.h"
#include "graph/topology.h"
#include "support/arena.h"

namespace perfbench {

namespace {

// One model and arena reused across snapshots, as an engine worker reuses its
// workspace across change-points, so page faults stay out of the timings.
class RateReplayer {
 public:
  explicit RateReplayer(double beta) {
    config_.beta = beta;
    config_.policy = rumor::RateModel::DeltaPolicy::never;
  }

  double time_rebuild(const rumor::Graph& g, const rumor::Bitset& informed,
                      std::int64_t informed_count) {
    arena_.reset();
    model_.begin_trial(arena_, informed, g.node_count(), config_);
    const auto serial_for = [](std::int64_t tasks, const auto& fn) {
      for (std::int64_t task = 0; task < tasks; ++task) fn(task);
    };
    const auto t0 = Clock::now();
    model_.rebuild(g.csr(), informed_count, serial_for);
    return seconds_between(t0, Clock::now());
  }

 private:
  rumor::RateModel::Config config_;
  rumor::Arena arena_;
  rumor::RateModel model_;
};

}  // namespace

ReplayTimes replay_capture(const Capture& capture, double beta) {
  ReplayTimes out;
  if (capture.n == 0) return out;

  rumor::TopologyBuilder merged(capture.n);   // apply_delta_sorted chain
  rumor::TopologyBuilder rebuilt(capture.n);  // rebuild_presorted of the same snapshots
  RateReplayer rates(beta);
  merged.rebuild_presorted(capture.base);
  double edges = static_cast<double>(merged.current().edge_count());
  // The first rebuild warms the model's buffers; time it again for the record.
  rates.time_rebuild(merged.current(), capture.base_informed, capture.base_informed_count);
  out.rate_rebuild_s.add(
      rates.time_rebuild(merged.current(), capture.base_informed, capture.base_informed_count));

  for (const Capture::Step& step : capture.steps) {
    auto t0 = Clock::now();
    const rumor::Graph& g = merged.apply_delta_sorted(step.removed, step.added);
    out.apply_delta_s.add(seconds_between(t0, Clock::now()));

    std::vector<rumor::Edge> snapshot = g.edges();
    t0 = Clock::now();
    rebuilt.rebuild_presorted(std::move(snapshot));
    out.csr_build_s.add(seconds_between(t0, Clock::now()));

    out.rate_rebuild_s.add(rates.time_rebuild(g, step.informed, step.informed_count));
    edges += static_cast<double>(g.edge_count());
  }
  out.mean_edges = edges / static_cast<double>(capture.steps.size() + 1);
  return out;
}

}  // namespace perfbench
