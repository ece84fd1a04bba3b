#include "trace.h"

#include <fstream>
#include <iomanip>
#include <optional>
#include <utility>

namespace perfbench {

using rumor::DynamicNetwork;
using rumor::Edge;
using rumor::Graph;
using rumor::InformedView;
using rumor::NodeId;

namespace {

rumor::Bitset copy_informed(const InformedView& informed, NodeId n) {
  rumor::Bitset bits(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    if (informed.is_informed(u)) bits.set(static_cast<std::size_t>(u));
  }
  return bits;
}

}  // namespace

// The decorator. Lives for one trial on one worker, so its span buffer needs
// no lock until the trial ends.
class TracingNetwork final : public DynamicNetwork {
 public:
  TracingNetwork(std::unique_ptr<DynamicNetwork> inner, TraceSession& session, int trial,
                 int thread, double trial_start, double factory_end)
      : inner_(std::move(inner)), session_(session), trial_(trial), thread_(thread),
        capturing_(session.claim_capture()) {
    spans_.push_back({"trial", trial_start, 0.0, -1, trial_, thread_});
    spans_.push_back({"scenarios.network_build", trial_start, factory_end, 0, trial_, thread_});
    totals_.factory_s = factory_end - trial_start;
  }

  TracingNetwork(const TracingNetwork&) = delete;
  TracingNetwork& operator=(const TracingNetwork&) = delete;

  // The trial ends when the engine drops its network; tearing the inner one
  // down is part of the trial, as it is untraced.
  ~TracingNetwork() override {
    inner_.reset();
    spans_.front().end = session_.now() - totals_.excluded_s;
    session_.finish_trial(spans_, totals_);
  }

  NodeId node_count() const override { return inner_->node_count(); }

  const Graph& graph_at(std::int64_t t, const InformedView& informed) override {
    const double start = session_.now() - totals_.excluded_s;
    const Graph& g = inner_->graph_at(t, informed);
    const double end = session_.now() - totals_.excluded_s;
    spans_.push_back({"dynamic.graph_at", start, end, 0, trial_, thread_});
    totals_.graph_at_s += end - start;
    ++totals_.graph_at_calls;

    const bool first = totals_.graph_at_calls == 1;
    if (!first && g.version() != last_version_) {
      ++totals_.change_points;
      const std::optional<rumor::TopologyDelta> delta = inner_->last_delta();
      if (delta.has_value()) {
        ++totals_.deltas_reported;
        totals_.changed_edges +=
            static_cast<std::int64_t>(delta->removed.size() + delta->added.size());
      }
      if (capturing_) capture_step(delta, informed);
    } else if (first && capturing_) {
      capture_base(g, informed);
    }
    last_version_ = g.version();
    return g;
  }

  const Graph& current_graph() const override { return inner_->current_graph(); }
  rumor::GraphProfile current_profile() const override { return inner_->current_profile(); }
  NodeId suggested_source() const override { return inner_->suggested_source(); }
  std::string name() const override { return inner_->name(); }
  bool reports_deltas() const override { return inner_->reports_deltas(); }
  std::optional<rumor::TopologyDelta> last_delta() const override { return inner_->last_delta(); }
  void set_parallel_evolution(rumor::ParallelEvolution* evolution) override {
    inner_->set_parallel_evolution(evolution);
  }

 private:
  void capture_base(const Graph& g, const InformedView& informed) {
    const auto t0 = Clock::now();
    Capture& cap = session_.capture_;
    cap.n = g.node_count();
    cap.base = g.edges();
    cap.base_informed = copy_informed(informed, cap.n);
    cap.base_informed_count = informed.informed_count();
    cap.bytes = cap.base.size() * sizeof(Edge) + static_cast<std::size_t>(cap.n) / 8;
    totals_.excluded_s += seconds_between(t0, Clock::now());
  }

  void capture_step(const std::optional<rumor::TopologyDelta>& delta,
                    const InformedView& informed) {
    const auto t0 = Clock::now();
    Capture& cap = session_.capture_;
    const std::size_t step_bytes =
        delta.has_value()
            ? (delta->removed.size() + delta->added.size()) * sizeof(Edge) +
                  static_cast<std::size_t>(cap.n) / 8
            : 0;
    if (!delta.has_value() || cap.bytes + step_bytes > session_.capture_budget_) {
      cap.complete = false;
      capturing_ = false;
    } else {
      Capture::Step step;
      step.removed.assign(delta->removed.begin(), delta->removed.end());
      step.added.assign(delta->added.begin(), delta->added.end());
      step.informed = copy_informed(informed, cap.n);
      step.informed_count = informed.informed_count();
      cap.steps.push_back(std::move(step));
      cap.bytes += step_bytes;
    }
    totals_.excluded_s += seconds_between(t0, Clock::now());
  }

  std::unique_ptr<DynamicNetwork> inner_;
  TraceSession& session_;
  const int trial_;
  const int thread_;
  bool capturing_;
  std::uint64_t last_version_ = 0;
  std::vector<Span> spans_;
  TrialTotals totals_;
};

TraceSession::TraceSession(Clock::time_point origin, std::size_t capture_budget_bytes)
    : origin_(origin), capture_budget_(capture_budget_bytes) {}

rumor::NetworkFactory TraceSession::wrap(rumor::NetworkFactory inner) {
  return [this, inner = std::move(inner)](std::uint64_t seed) -> std::unique_ptr<DynamicNetwork> {
    const int thread = thread_index();
    const int trial = next_trial_.fetch_add(1);
    const double start = now();
    std::unique_ptr<DynamicNetwork> net = inner(seed);
    const double end = now();
    return std::make_unique<TracingNetwork>(std::move(net), *this, trial, thread, start, end);
  };
}

int TraceSession::thread_index() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == self) return static_cast<int>(i);
  }
  threads_.push_back(self);
  return static_cast<int>(threads_.size() - 1);
}

void TraceSession::finish_trial(std::vector<Span>& spans, const TrialTotals& totals) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-base parents onto the merged vector.
  const int offset = static_cast<int>(spans_.size());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
  totals_.factory_s += totals.factory_s;
  totals_.graph_at_s += totals.graph_at_s;
  totals_.excluded_s += totals.excluded_s;
  totals_.graph_at_calls += totals.graph_at_calls;
  totals_.change_points += totals.change_points;
  totals_.changed_edges += totals.changed_edges;
  totals_.deltas_reported += totals.deltas_reported;
}

void TraceSession::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  out << std::setprecision(3) << std::fixed;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":"
        << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
        << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"trial\":" << s.trial
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
