// The simulation workloads: em_churn, em_trickle and torus_pool.
//
// Each drives the library the way `rumor_cli run --json` does: resolve the
// scenario, build its factory, call run_trials with a record sink that emits
// every trial's JSON line and hashes it. The timed section is the run_trials
// call, sink included.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/in_process_backend.h"
#include "repro/fingerprint.h"
#include "replay.h"
#include "scenarios/experiment.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rumor::NetworkFactory;
using rumor::NodeId;
using rumor::RunnerOptions;
using rumor::ScenarioParams;
using rumor::ScenarioSpec;

struct SimWorkload {
  const char* name;
  const char* scenario;
  std::map<std::string, std::string> params;
  double clock_rate;
  // Trials per second of --seconds, calibrated on a 4-core x86 VM so that
  // the untraced passes take about --seconds; the count is fixed by
  // --seconds alone, so parent and child run exactly the same trials.
  double trials_per_budget_s;
  // Run at 1 thread, then again at N threads; the N-thread pass is the
  // headline. Without it the workload runs at 1 thread.
  bool thread_axis;
};

// Why these cells:
//  * em_churn is the hot cell: ~1.6M edges change per step at n=10^6, so the
//    rate model rebuilds every step and topology maintenance dominates.
//  * em_trickle keeps the graph in cache and changes ~8 edges per step over
//    ~1000 change-points per trial, so fixed per-step cost and the rate
//    model's delta path dominate. A slow clock stretches the spread over many
//    steps while the graph stays connected (mean degree ~21), which keeps
//    trial lengths concentrated (a sparser stationary graph leaves isolated
//    nodes whose waits make trial lengths heavy-tailed).
//  * torus_pool shares one static 10^6-node graph built in setup, so the
//    topology layers idle; the event loop and the trial pool dominate.
const std::vector<SimWorkload>& sim_workloads() {
  static const std::vector<SimWorkload> table = {
      {"em_churn", "edge_markovian", {{"n", "1000000"}, {"p", "1.6e-6"}, {"q", "0.2"}}, 1.0,
       0.2, false},
      {"em_trickle", "edge_markovian", {{"n", "20000"}, {"p", "2e-8"}, {"q", "1.87e-5"}},
       0.01, 0.2, false},
      {"torus_pool", "static_torus", {{"rows", "1000"}, {"cols", "1000"}}, 1.0, 1.6, true},
  };
  return table;
}

const SimWorkload& find_workload(const std::string& name) {
  for (const SimWorkload& w : sim_workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Scenario resolve + make_factory + the first trial's network: everything a
// run pays before its first trial starts. Repeated (at least 5 times and
// 0.5 s) and reported as medians.
struct Setup {
  double setup_s = 0.0;
  double make_factory_s = 0.0;
  int reps = 0;
  ScenarioParams params;
  NetworkFactory factory;
  NodeId n = 0;
};

Setup measure_setup(const ScenarioSpec& spec, const SimWorkload& w, std::uint64_t seed) {
  Setup out;
  rumor::SampleSet total;
  rumor::SampleSet make;
  double spent = 0.0;
  const std::uint64_t first_net_seed = rumor::trial_seeds(seed, 0).first;
  while (total.count() < 5 || (spent < 0.5 && total.count() < 200)) {
    const auto t0 = Clock::now();
    ScenarioParams params = ScenarioParams::resolve(spec, w.params);
    NetworkFactory factory = spec.make_factory(params);
    const auto t1 = Clock::now();
    std::unique_ptr<rumor::DynamicNetwork> net = factory(first_net_seed);
    const auto t2 = Clock::now();
    out.n = net->node_count();
    net.reset();
    total.add(seconds_between(t0, t2));
    make.add(seconds_between(t0, t1));
    spent += seconds_between(t0, t2);
    out.params = std::move(params);
    out.factory = std::move(factory);
  }
  out.setup_s = total.median();
  out.make_factory_s = make.median();
  out.reps = static_cast<int>(total.count());
  return out;
}

struct PassResult {
  double call_time = 0.0;  // session time of the first run_trials call (traced pass)
  double wall_s = 0.0;                // summed over the run_trials calls
  rumor::SampleSet batch_peak_mb;     // resident high-water mark of each call
  std::string sha256;
  int trials = 0;
  int complete = 0;  // trials with completed && informed_count == n
  std::int64_t events = 0;
  double emit_s = 0.0;
  double hash_s = 0.0;
  std::int64_t record_bytes = 0;
};

// Timed run_trials calls of `per_batch` trials each (trial_offset keeps the
// seeds and labels of one options.trials-trial run) with the rumor_cli --json
// record sink: every trial's line is emitted and hashed, so the fingerprint
// is that of the whole cell.
PassResult run_pass(const ScenarioSpec& spec, const Setup& setup, const NetworkFactory& factory,
                    const RunnerOptions& options, int per_batch, const TraceSession* session) {
  rumor::ExperimentResult partial;
  partial.spec = &spec;
  partial.params = setup.params.items();
  partial.runner = options;

  PassResult out;
  out.trials = options.trials;
  rumor::RecordHasher hasher;
  std::ostringstream buffer;
  RunnerOptions batch = options;
  batch.trial_sink = [&](int trial, const rumor::SpreadResult& r) {
    const auto t0 = Clock::now();
    buffer.str("");
    rumor::emit_trial_json(buffer, partial, trial, r);
    std::string line = buffer.str();
    line.pop_back();  // the hasher supplies the newline
    const auto t1 = Clock::now();
    hasher.add(line);
    const auto t2 = Clock::now();
    out.emit_s += seconds_between(t0, t1);
    out.hash_s += seconds_between(t1, t2);
    out.record_bytes += static_cast<std::int64_t>(line.size() + 1);
    out.events += r.informative_contacts;
    if (r.completed && r.informed_count == setup.n) ++out.complete;
  };
  if (session != nullptr) out.call_time = session->now();
  for (int first = 0; first < options.trials; first += per_batch) {
    batch.trial_offset = first;
    batch.trials = std::min(per_batch, options.trials - first);
    reset_peak_rss();
    const auto t0 = Clock::now();
    rumor::run_trials(factory, batch);
    const double wall = seconds_between(t0, Clock::now());
    out.wall_s += wall;
    out.batch_peak_mb.add(peak_rss_mb());
  }
  out.sha256 = hasher.finish();
  return out;
}

RunnerOptions runner_options(const SimWorkload& w, int trials, int threads, std::uint64_t seed) {
  RunnerOptions o;  // async jump engine, push-pull
  o.clock_rate = w.clock_rate;
  o.trials = trials;
  o.threads = threads;
  o.seed = seed;
  return o;
}

void check_pass(Report& report, const PassResult& pass, const std::string& label) {
  for (int i = 0; i < pass.trials; ++i) {
    report.check(i < pass.complete, label + ": a trial did not inform every node");
  }
}

CellRecord cell_record(const SimWorkload& w, const Setup& setup, int trials, std::uint64_t seed,
                       const std::string& sha256) {
  return {w.scenario, setup.params.items(), w.clock_rate, trials, seed, sha256};
}

void untraced_run(const Options& opt, const SimWorkload& w, const ScenarioSpec& spec,
                  const Setup& setup, Report& report) {
  const int n_threads = w.thread_axis ? opt.threads : 1;
  int trials = static_cast<int>(std::lround(opt.seconds * w.trials_per_budget_s));
  trials = std::max(1, (trials + n_threads - 1) / n_threads) * n_threads;
  report.note("setup", "median of " + std::to_string(setup.reps) + " set-ups");

  if (!w.thread_axis) {
    // One run_trials call per trial, so the resident peak is per trial.
    const PassResult pass = run_pass(spec, setup, setup.factory,
                                     runner_options(w, trials, 1, opt.seed), 1, nullptr);
    check_pass(report, pass, "1 thread");
    report.metric("trials_per_s", trials / pass.wall_s, "1/s");
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("peak_rss_mb", pass.batch_peak_mb.median(), "MiB");
    report.cells.push_back(cell_record(w, setup, trials, opt.seed, pass.sha256));
    report.note("trials", std::to_string(trials) +
                              " at 1 thread, one run_trials call each; peak_rss_mb is the "
                              "median trial's");
    return;
  }

  // The thread axis: the same trials in one call at 1 thread, then at N.
  const PassResult one = run_pass(spec, setup, setup.factory,
                                  runner_options(w, trials, 1, opt.seed), trials, nullptr);
  check_pass(report, one, "1 thread");
  const PassResult many = run_pass(spec, setup, setup.factory,
                                   runner_options(w, trials, n_threads, opt.seed), trials, nullptr);
  check_pass(report, many, std::to_string(n_threads) + " threads");
  report.check(many.sha256 == one.sha256,
               "fingerprint differs between 1 and " + std::to_string(n_threads) + " threads");
  const double one_per_s = trials / one.wall_s;
  const double many_per_s = trials / many.wall_s;
  report.metric("trials_per_s", many_per_s, "1/s");
  report.metric("setup_s", setup.setup_s, "s");
  report.metric("peak_rss_mb", many.batch_peak_mb.median(), "MiB");
  report.metric("trials_per_s_1t", one_per_s, "1/s");
  report.metric("scaling_eff", many_per_s / (n_threads * one_per_s), "ratio");
  report.cells.push_back(cell_record(w, setup, trials, opt.seed, many.sha256));
  report.note("trials", std::to_string(trials) + " in one run_trials call at 1 thread, then at " +
                            std::to_string(n_threads) +
                            "; trials_per_s and peak_rss_mb are the " +
                            std::to_string(n_threads) + "-thread call's");
}

// The untraced and traced passes over the same trials, then the replays.
void traced_run(const Options& opt, const SimWorkload& w, const ScenarioSpec& spec,
                const Setup& setup, Report& report) {
  const int threads = w.thread_axis ? opt.threads : 1;
  int trials = static_cast<int>(std::lround(opt.seconds * w.trials_per_budget_s));
  if (!w.thread_axis) trials /= 2;
  trials = std::max(2, (trials + threads - 1) / threads * threads);
  const RunnerOptions options = runner_options(w, trials, threads, opt.seed);

  // Untraced, traced, untraced again: the overhead compares the traced pass
  // with the mean of its neighbours, so warm-up lands on neither side.
  const PassResult plain = run_pass(spec, setup, setup.factory, options, trials, nullptr);
  check_pass(report, plain, "untraced");

  // Removing the capture time from the wall clock is exact only at one
  // thread; at N threads the capture (one trial's first snapshot) overlaps
  // other trials and stays in.
  TraceSession session(Clock::now(), std::size_t{128} << 20);
  const NetworkFactory traced_factory = session.wrap(setup.factory);
  const PassResult traced = run_pass(spec, setup, traced_factory, options, trials, &session);
  check_pass(report, traced, "traced");
  report.check(traced.sha256 == plain.sha256, "traced fingerprint differs from untraced");
  report.cells.push_back(cell_record(w, setup, trials, opt.seed, traced.sha256));

  const PassResult again = run_pass(spec, setup, setup.factory, options, trials, nullptr);
  check_pass(report, again, "untraced (repeat)");
  const double untraced_wall = (plain.wall_s + again.wall_s) / 2;

  const TrialTotals& totals = session.totals();
  rumor::SampleSet trial_s;
  double busy = 0.0;
  std::vector<int> workers;
  double first_start = -1.0;
  for (const Span& s : session.spans()) {
    if (s.parent != -1) continue;
    trial_s.add(s.end - s.start);
    busy += s.end - s.start;
    if (std::find(workers.begin(), workers.end(), s.thread) == workers.end()) {
      workers.push_back(s.thread);
    }
    if (first_start < 0.0 || s.start < first_start) first_start = s.start;
  }
  const double traced_wall = traced.wall_s - (threads == 1 ? totals.excluded_s : 0.0);
  const double engine_self = busy - totals.graph_at_s - totals.factory_s;

  const ReplayTimes replay = replay_capture(session.capture(), w.clock_rate);
  const double cps = static_cast<double>(totals.change_points);
  // Static graphs have no change-points, so nothing to replay.
  const bool replayed = !replay.apply_delta_s.empty();
  const double apply_s = replayed ? replay.apply_delta_s.mean() * cps : 0.0;
  const double csr_s = replayed ? replay.csr_build_s.mean() * cps : 0.0;
  const int snapshots = totals.change_points > 0 ? 2 : 1;  // static graphs are shared
  const double snapshot_bytes =
      snapshots * (16.0 * replay.mean_edges + 8.0 * static_cast<double>(setup.n + 1));

  report.metric("scenarios.make_factory_s", setup.make_factory_s, "s");
  report.metric("scenarios.network_build_ms", totals.factory_s / trials * 1e3, "ms");
  report.metric("dynamic.graph_at_s", totals.graph_at_s, "s");
  report.metric("dynamic.change_points", cps, "count");
  report.metric("dynamic.changed_edges", static_cast<double>(totals.changed_edges), "count");
  report.metric("dynamic.evolve_s", totals.graph_at_s - apply_s, "s");
  report.metric("graph.apply_delta_s", apply_s, "s");
  report.metric("graph.csr_build_s", csr_s, "s");
  report.metric("graph.merge_s", apply_s - csr_s, "s");
  report.metric("graph.snapshot_mb", snapshot_bytes / (1024.0 * 1024.0), "MiB");
  report.metric("core.engine_self_s", engine_self, "s");
  report.metric("core.events", static_cast<double>(traced.events), "count");
  report.metric("core.events_per_s",
                engine_self > 0.0 ? static_cast<double>(traced.events) / engine_self : 0.0, "1/s");
  report.metric("core.rate_rebuild_ms",
                replay.rate_rebuild_s.empty() ? 0.0 : replay.rate_rebuild_s.mean() * 1e3, "ms");
  report.metric("exec.workers_used", static_cast<double>(workers.size()), "count");
  report.metric("exec.pool_util", busy / (threads * traced_wall), "ratio");
  report.metric("exec.first_trial_ms", (first_start - traced.call_time) * 1e3, "ms");
  report.metric("exec.trial_s_p50", trial_s.median(), "s");
  report.metric("exec.trial_s_max", trial_s.max(), "s");
  report.metric("repro.emit_s", traced.emit_s, "s");
  report.metric("repro.hash_s", traced.hash_s, "s");
  report.metric("repro.record_bytes", static_cast<double>(traced.record_bytes), "count");
  report.metric("trace_overhead_frac", (traced_wall - untraced_wall) / untraced_wall, "ratio");

  // The replay-derived split must be consistent with what was measured.
  if (totals.change_points > 0 && replayed) {
    report.check(apply_s <= totals.graph_at_s,
                 "replayed apply_delta time exceeds the measured graph_at time");
    report.check(csr_s <= apply_s, "replayed CSR build exceeds replayed apply_delta");
  }
  report.check(engine_self >= 0.0, "negative engine self time");

  const Capture& cap = session.capture();
  report.note("trials", std::to_string(trials) + " per pass at " + std::to_string(threads) +
                            " thread(s): untraced, traced, untraced");
  report.note("replay",
              "graph.*, dynamic.evolve_s and core.rate_rebuild_ms are replay estimates, not "
              "in-program measurements: " +
                  std::to_string(cap.steps.size()) + " of " + std::to_string(totals.change_points) +
                  " change-points captured from one trial" +
                  (cap.complete ? "" : " (capture budget or a missing delta cut it short)") +
                  ", per-change-point means scaled to all change-points");
  report.note("snapshot_mb", "computed from mean edge count: 16 B/edge + 8 B/node per snapshot, " +
                                 std::to_string(snapshots) + " snapshot(s)");
  report.note("deltas", std::to_string(totals.deltas_reported) + " of " +
                            std::to_string(totals.change_points) +
                            " change-points reported a delta");
  report.note("trial_spans", std::to_string(session.spans().size()) + " spans written to " +
                                 opt.scratch_dir + "/trace_" + opt.workload + ".json");
  session.write_chrome_trace(opt.scratch_dir + "/trace_" + opt.workload + ".json");
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return std::any_of(sim_workloads().begin(), sim_workloads().end(),
                     [&](const SimWorkload& w) { return name == w.name; });
}

Report run_sim_workload(const Options& opt) {
  const SimWorkload& w = find_workload(opt.workload);
  const ScenarioSpec& spec = rumor::require_scenario(w.scenario);
  Report report;
  const Setup setup = measure_setup(spec, w, opt.seed);
  if (opt.trace) {
    traced_run(opt, w, spec, setup, report);
  } else {
    untraced_run(opt, w, spec, setup, report);
  }
  return report;
}

}  // namespace perfbench
