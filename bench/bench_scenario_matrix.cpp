// E15 — scenario-matrix throughput: every registered scenario under the jump
// engine, one row each, timing the runner end to end.
//
// This is the bench-side view of the scenario registry: it proves each
// catalog entry is runnable at bench scale and gives a per-family
// trials/second figure that future speed PRs can regress against (the
// machine-readable twin is scripts/run_bench.sh, which records a
// BENCH_*.json snapshot via `rumor_cli sweep --json`).
//
//   $ ./bench_scenario_matrix [--n 256] [--trials 10] [--seed 1] [--threads 1]
//                             [--json]
//
// --json swaps the human table for JSON-lines records
// ({"record":"scenario_matrix", ...}, one per scenario) that
// scripts/run_bench.sh appends to the BENCH_*.json snapshots.
#include <iostream>

#include "common/bench_util.h"
#include "scenarios/registry.h"
#include "support/json.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace rumor;
  const Cli cli(argc, argv);
  const std::string n = std::to_string(cli.get_int("n", 256));
  const int trials = static_cast<int>(cli.get_int("trials", 10));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const bool json = cli.get_bool("json", false);

  if (!json) {
    bench::banner("E15", "scenario registry",
                  "every catalog scenario runs under the jump engine; rows give "
                  "trials/second per family");
  }

  Table table({"scenario", "nodes", "completed", "mean-time", "median", "seconds", "trials/s"});
  bool all_completed = true;
  for (const ScenarioSpec& spec : scenario_registry()) {
    RunnerOptions opt;
    opt.trials = trials;
    opt.seed = seed;
    opt.threads = threads;
    // Generous vs. the slowest family here (~10^2), but keeps a rare
    // disconnected static draw from running to the default 10^9 limit.
    opt.time_limit = 1e5;
    opt.round_limit = 100'000;
    std::int64_t nodes = 0;  // read off the first trial's informed set
    opt.trial_sink = [&nodes](int trial, const SpreadResult& result) {
      if (trial == 0) nodes = static_cast<std::int64_t>(result.informed.size());
    };

    // A family whose parameter constraints reject the shared scale (e.g. the
    // diligent adversary's k*Delta+5 <= n/4 at tiny --n) gets an error row
    // rather than aborting the whole matrix.
    try {
      // Share one node-count scale where the scenario exposes `n`; families
      // with other size parameters (hypercube dims, torus rows/cols) run at
      // their schema defaults.
      std::map<std::string, std::string> overrides;
      if (spec.find_param("n") != nullptr) overrides["n"] = n;
      const ScenarioParams params = ScenarioParams::resolve(spec, overrides);
      const NetworkFactory factory = spec.make_factory(params);

      Timer timer;
      const RunnerReport report = run_trials(factory, opt);
      const double seconds = timer.seconds();
      all_completed = all_completed && report.completed == report.trials;

      if (json) {
        JsonWriter writer(std::cout);
        writer.begin_object()
            .field("record", "scenario_matrix")
            .field("scenario", spec.name)
            .field("nodes", nodes)
            .field("engine", "async-jump")
            .field("trials", report.trials)
            .field("completed", report.completed)
            .field("seed", seed)
            .field("threads", threads);
        writer.key("spread_time_mean");
        if (report.spread_time.empty()) {
          writer.null();
        } else {
          writer.value(report.spread_time.mean());
        }
        writer.field("elapsed_seconds", seconds)
            .field("trials_per_second", trials / seconds)
            .end_object();
        std::cout << '\n';
      } else {
        table.add_row({spec.name, Table::cell(nodes),
                       std::to_string(report.completed) + "/" + std::to_string(report.trials),
                       report.spread_time.empty() ? "-" : Table::cell(report.spread_time.mean()),
                       report.spread_time.empty() ? "-" : Table::cell(report.spread_time.median()),
                       Table::cell(seconds), Table::cell(trials / seconds)});
      }
    } catch (const std::exception& e) {
      all_completed = false;
      if (json) {
        JsonWriter writer(std::cout);
        writer.begin_object()
            .field("record", "scenario_matrix")
            .field("scenario", spec.name)
            .field("error", e.what())
            .end_object();
        std::cout << '\n';
      } else {
        table.add_row({spec.name, "-", "error", "-", "-", "-", "-"});
      }
      std::cerr << spec.name << ": " << e.what() << "\n";
    }
  }
  if (!json) {
    table.print(std::cout);
    bench::verdict(all_completed, "all scenarios completed all trials");
  }
  return all_completed ? 0 : 1;
}
