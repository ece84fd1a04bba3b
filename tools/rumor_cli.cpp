// rumor_cli — the production experiment driver over the scenario registry.
//
// Subcommands:
//   list        catalog every registered scenario (--markdown for README tables)
//   describe    full parameter schema of one scenario (--scenario NAME)
//   run         multi-trial run of one scenario (--json / --csv / default table)
//   sweep       grid runs: scenarios x engines x protocols x one swept parameter
//   replay      re-run a recorded sweep from its manifests and byte-diff it
//   fingerprint SHA-256 per grid cell over the canonical record stream
//
// Scenario parameters are passed as plain options (--n 512 --rho 0.25 ...);
// run, sweep and fingerprint read the request grammar rumor_serve reads too
// (expand_request, scenarios/experiment.h), so anything not a grid axis, a
// runner option or one of this driver's output flags is validated against
// the scenario's schema. Every JSON summary record carries the full
// reproducibility manifest (scenario, resolved params, engine, protocol,
// seed, build id), so a recorded run can be replayed exactly. See
// docs/ARCHITECTURE.md.
//
//   $ rumor_cli run --scenario dynamic_star --n 256 --trials 30 --seed 1 --json
//   $ rumor_cli sweep --scenarios static_clique,dynamic_star
//         --engines async_jump,sync --sweep n=128,256 --trials 10 --csv
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "core/trial_pool.h"
#include "repro/fingerprint.h"
#include "repro/manifest.h"
#include "repro/replay.h"
#include "scenarios/experiment.h"
#include "support/cli.h"
#include "support/table.h"
#include "support/timer.h"

#include "rumor_build_info.h"  // generated at build time; see tools/CMakeLists.txt

#define RUMOR_BUILD_INFO ::rumor::kRumorBuildInfo

namespace rumor {
namespace {

// The request grammar's options (scenarios/experiment.h): every option but
// the output and preset flags rumor_cli reads itself. The --scale preset sizes
// a run for large-n sweeps: every hardware thread by default and fewer (but
// bigger) trials. Explicit --threads/--trials always win.
RequestOptions request_options(const Cli& cli) {
  RequestOptions options = cli.entries();
  for (const char* own :
       {"json", "csv", "markdown", "help", "progress", "scale", "bounds", "strict-build"}) {
    options.erase(own);
  }
  if (cli.get_bool("scale", false)) {
    // Clamped to the pool cap so the preset works on >512-thread hosts too.
    const int hw = std::min(
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
        TrialPool::kMaxThreads);
    options.emplace("trials", "8");
    options.emplace("threads", std::to_string(hw));
  }
  return options;
}

// Per-chunk progress lines on stderr (opt-in via --progress): trials done,
// elapsed wall time, cumulative throughput, and a linear ETA, so a
// million-node sweep is never silent for minutes. Before any trial finished
// (or before the clock measurably advanced) the rate and ETA have no basis —
// they print as "--" instead of the misleading "eta 0.0s" the first chunk
// used to claim; the ETA is additionally clamped at zero so float jitter on
// the last chunk can never show a negative remainder. stdout stays
// byte-identical — the smoke tests assert the flag's absence keeps stderr
// quiet too, and scripts/check_cli_progress.sh pins the line format.
std::function<void(int, int)> make_progress(const Cli& cli, const std::string& label) {
  if (!cli.get_bool("progress", false)) return {};
  auto timer = std::make_shared<Timer>();
  return [timer, label](int done, int total) {
    const double elapsed = timer->seconds();
    std::ostringstream line;
    line << "progress [" << label << "] " << done << "/" << total << " trials  "
         << std::fixed << std::setprecision(1) << elapsed << "s elapsed  ";
    if (done > 0 && elapsed > 0.0) {
      const double rate = static_cast<double>(done) / elapsed;
      const double eta = std::max(0.0, elapsed / done * (total - done));
      line << rate << " trials/s  eta " << eta << "s\n";
    } else {
      line << "-- trials/s  eta --\n";
    }
    std::cerr << line.str();
  };
}

// The per-trial streaming emitters shared by run and sweep: with --json/--csv
// records go to stdout as chunks complete, so a sweep never buffers O(trials
// x n) results. Empty sink for the table outputs (aggregates only).
TrialSink make_sink(bool json, bool csv) {
  if (json) {
    return [](const ExperimentResult& r, int trial, const SpreadResult& t) {
      emit_trial_json(std::cout, r, trial, t);
    };
  }
  if (csv) {
    return [](const ExperimentResult& r, int trial, const SpreadResult& t) {
      emit_trial_csv(std::cout, r, trial, t);
    };
  }
  return {};
}

std::string params_summary(const ScenarioSpec& spec) {
  std::string out;
  for (const ParamSpec& p : spec.params) {
    if (!out.empty()) out += " ";
    out += p.name + "=" + format_param_value(p.kind, p.fallback);
  }
  return out;
}

int cmd_list(const Cli& cli) {
  if (cli.get_bool("markdown", false)) {
    std::cout << "| scenario | parameters (defaults) | paper anchor | description |\n";
    std::cout << "| --- | --- | --- | --- |\n";
    for (const ScenarioSpec& s : scenario_registry()) {
      std::cout << "| `" << s.name << "` | `" << params_summary(s) << "` | " << s.paper_anchor
                << " | " << s.summary << " |\n";
    }
    return 0;
  }
  Table table({"scenario", "parameters (defaults)", "paper anchor"});
  for (const ScenarioSpec& s : scenario_registry()) {
    table.add_row({s.name, params_summary(s), s.paper_anchor});
  }
  table.print(std::cout);
  std::cout << "\n" << scenario_registry().size()
            << " scenarios; `rumor_cli describe --scenario NAME` for details.\n";
  return 0;
}

int cmd_describe(const Cli& cli) {
  const ScenarioSpec& spec = require_scenario(cli.get("scenario", ""));
  std::cout << spec.name << " — " << spec.summary << "\n";
  std::cout << "paper anchor: " << spec.paper_anchor << "\n\n";
  Table table({"parameter", "kind", "default", "min", "max", "description"});
  for (const ParamSpec& p : spec.params) {
    table.add_row({p.name, to_string(p.kind), format_param_value(p.kind, p.fallback),
                   format_param_value(p.kind, p.min_value),
                   format_param_value(p.kind, p.max_value), p.description});
  }
  table.print(std::cout);
  return 0;
}

// Expands the run/sweep/fingerprint request (expand_request), then applies
// `--bounds [c]` and gives each cell its --progress label.
RequestGrid expand_cli_request(const Cli& cli, bool single_cell) {
  RequestGrid grid = expand_request(request_options(cli), single_cell, RequestSpelling::flag);
  const bool bounds = cli.has("bounds");
  // `--bounds` alone tracks with c = 1; `--bounds 2` sets the exponent.
  const double bound_c =
      cli.get("bounds", "true") != "true" ? cli.get_double("bounds", 1.0) : 1.0;
  const std::string cells = std::to_string(grid.cells.size());
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    ExperimentConfig& config = grid.cells[i].config;
    if (bounds) {
      config.runner.track_bounds = true;
      config.runner.bound_c = bound_c;
    }
    std::string label = config.scenario;
    if (!single_cell) {
      if (!grid.sweep_name.empty()) {
        label += " " + grid.sweep_name + "=" + grid.cells[i].swept_value;
      }
      label.append(" ").append(to_string(config.runner.engine));
      label.append(" cell ").append(std::to_string(i + 1)).append("/").append(cells);
    }
    config.runner.progress = make_progress(cli, label);
  }
  return grid;
}

int cmd_run(const Cli& cli) {
  // Expanded (and so validated) up front, so a typo'd scenario, parameter or
  // option leaves stdout empty: records stream during the run.
  const ExperimentConfig config = expand_cli_request(cli, /*single_cell=*/true).cells[0].config;

  // Per-trial records stream through a sink as chunks complete instead of
  // being buffered in the report, so --json/--csv stay memory-bounded at
  // million-node scale. Record order on stdout is unchanged: trials in trial
  // order, then the summary.
  const bool json = cli.get_bool("json", false);
  const bool csv = cli.get_bool("csv", false);
  if (csv) emit_csv_header(std::cout);

  const ExperimentResult result = run_experiment(config, make_sink(json, csv));
  if (json) {
    emit_summary_json(std::cout, result, RUMOR_BUILD_INFO);
  } else if (!csv) {
    emit_text(std::cout, result);
  }
  return 0;
}

// The scenario x swept value x engine x protocol grid, one row (or one
// summary record) per cell.
int cmd_sweep(const Cli& cli) {
  const RequestGrid grid = expand_cli_request(cli, /*single_cell=*/false);

  const bool json = cli.get_bool("json", false);
  const bool csv = cli.get_bool("csv", false);
  if (csv) emit_csv_header(std::cout);
  Table table({"scenario", grid.sweep_name.empty() ? "-" : grid.sweep_name, "engine",
               "protocol", "completed", "mean", "median", "max", "seconds"});

  for (const RequestCell& cell : grid.cells) {
    const ExperimentConfig& config = cell.config;
    const ExperimentResult result = run_experiment(config, make_sink(json, csv));
    if (json) {
      emit_summary_json(std::cout, result, RUMOR_BUILD_INFO);
    } else if (!csv) {
      const SampleSet& st = result.report.spread_time;
      table.add_row({config.scenario, cell.swept_value.empty() ? "-" : cell.swept_value,
                     to_string(config.runner.engine), to_string(config.runner.protocol),
                     std::to_string(result.report.completed) + "/" +
                         std::to_string(result.report.trials),
                     st.empty() ? "-" : Table::cell(st.mean()),
                     st.empty() ? "-" : Table::cell(st.median()),
                     st.empty() ? "-" : Table::cell(st.max()),
                     Table::cell(result.elapsed_seconds)});
    }
  }
  if (!json && !csv) table.print(std::cout);
  return 0;
}

// Re-run a recorded sweep from its manifests and prove the re-run
// byte-identical (src/repro/replay.h). Exit 0 only when every cell's trial
// records match the recording byte for byte; any mismatch exits 1 with a
// divergence message naming the trial and field. --threads probes the
// determinism contract by replaying under a different thread count — the
// bytes must not care. Any other option is a usage error: a typo such as
// --thread must never replay at the recorded topology and report success.
int cmd_replay(const Cli& cli) {
  const char* usage =
      "usage: rumor_cli replay RECORDED.json [--threads T] [--strict-build]\n"
      "(record one with `rumor_cli run/sweep --json`)\n";
  for (const auto& [name, value] : cli.entries()) {
    if (name != "threads" && name != "strict-build") {
      std::cerr << "replay: unknown option '--" << name << "'\n" << usage;
      return 2;
    }
  }
  if (cli.positionals().size() != 1) {
    std::cerr << usage;
    return 2;
  }
  const std::string& path = cli.positionals().front();
  std::ifstream in(path);
  if (!in) {
    std::cerr << "replay: cannot open '" << path << "'\n";
    return 2;
  }
  const std::vector<RecordedCell> recording = load_recording(in);

  // --threads reads as the threads column does; 0 keeps the recorded count.
  RunnerOptions topology;
  topology.threads = 0;
  read_runner_options(cli.entries(), RequestSpelling::flag, topology);
  ReplayOptions options;
  options.threads_override = topology.threads;
  options.strict_build = cli.get_bool("strict-build", false);
  options.build_info = RUMOR_BUILD_INFO;

  const ReplayReport report = replay_recording(recording, options, std::cout);
  if (report.ok) {
    std::cout << "replay OK: " << report.cells.size() << " cells, " << report.trials
              << " trials byte-identical to '" << path << "'\n";
    return 0;
  }
  for (const CellReplayResult& cell : report.cells) {
    if (cell.ok()) continue;
    std::cerr << "replay DIVERGED [" << cell.label << "]: "
              << (cell.divergence.identical
                      ? "manifest field '" + cell.manifest_field + "' is not a fixed point"
                      : cell.divergence.message)
              << "\n";
  }
  return 1;
}

// One {"record":"fingerprint",...} line per grid cell: a SHA-256 over the
// canonical trial-record stream (src/repro/fingerprint.h), keyed by the
// work-identifying manifest fields only — never the execution topology — so
// fingerprint tables from different thread counts, stdlibs, or machines diff
// directly. With a recorded file as operand the fingerprints
// are computed from the recorded bytes instead of a re-run.
int cmd_fingerprint(const Cli& cli) {
  if (!cli.positionals().empty()) {
    for (const std::string& path : cli.positionals()) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "fingerprint: cannot open '" << path << "'\n";
        return 2;
      }
      for (const RecordedCell& cell : load_recording(in)) {
        emit_fingerprint_json(std::cout, cell.manifest, fingerprint_records(cell.trial_lines));
      }
    }
    return 0;
  }

  for (const RequestCell& cell : expand_cli_request(cli, /*single_cell=*/false).cells) {
    const ExperimentConfig& config = cell.config;
    // Records hash as they stream — nothing is buffered, so the fingerprint
    // of a million-node cell costs O(1) memory.
    RecordHasher hasher;
    const TrialSink sink = [&hasher](const ExperimentResult& r, int trial,
                                     const SpreadResult& t) {
      std::ostringstream record;
      emit_trial_json(record, r, trial, t);
      std::string line = record.str();
      line.pop_back();  // the hasher supplies the newline
      hasher.add(line);
    };
    const ExperimentResult result = run_experiment(config, sink);
    const ReproManifest manifest{config.scenario, result.params, result.runner, ""};
    emit_fingerprint_json(std::cout, manifest, hasher.finish());
  }
  return 0;
}

// Emits one JSON line describing the machine and build this binary runs on:
// the host's thread budget, the sanitizer configuration baked into the build
// (cmake -DSANITIZE=...) and the build id. Benchmark recordings prepend this
// record so a BENCH file is self-describing — a flat thread curve can be read
// off against the machine that produced it, and a sanitized binary (5-20x
// slower per instruction) can never pollute a BENCH snapshot unnoticed:
// scripts/run_bench.sh refuses to record unless the sanitizer field reads
// "none".
int cmd_hwinfo(std::ostream& os) {
  os << "{\"record\":\"hw_info\",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"sanitizer\":\"" << RUMOR_SANITIZER
     << "\",\"build\":\"" << RUMOR_BUILD_INFO << "\"}\n";
  return 0;
}

int usage(std::ostream& os, int code) {
  os << "usage: rumor_cli <subcommand> [options]\n\n"
        "subcommands:\n"
        "  list      catalog all scenarios (--markdown for a markdown table)\n"
        "  describe  parameter schema of one scenario: --scenario NAME\n"
        "  run       multi-trial run: --scenario NAME [--<param> V ...]\n"
        "            [--engine async_jump|async_tick|sync|flooding]\n"
        "            [--protocol push|pull|push_pull] [--trials N] [--seed S]\n"
        "            [--threads T] [--bounds [c]] [--failure p] [--source ID]\n"
        "            [--clock-rate r] [--time-limit T] [--round-limit R]\n"
        "            [--json | --csv] [--progress] [--scale] [--chunk C]\n"
        "  sweep     grid of runs: --scenarios a,b --engines e1,e2\n"
        "            --protocols p1,p2 --sweep param=v1,v2 + run options\n"
        "\n"
        "reproducibility harness (docs/ARCHITECTURE.md):\n"
        "  replay RECORDED.json   re-run a recorded sweep from its manifests and\n"
        "            byte-diff the records; non-zero exit with a divergence\n"
        "            naming the trial/field on any mismatch. [--threads T]\n"
        "            replay under a different thread count (records must not\n"
        "            care); [--strict-build] fail on build-id drift\n"
        "  fingerprint            SHA-256 per cell over the canonical record\n"
        "            stream; grid options as sweep, or RECORDED.json operands\n"
        "            to fingerprint recordings without re-running them\n"
        "  hwinfo                 one-line hw_info JSON record: hardware\n"
        "            thread count, sanitizer, build id\n"
        "\n"
        "scale-tier options (run and sweep):\n"
        "  --scale     large-n preset: threads = hardware concurrency, trials 8\n"
        "              (explicit --threads/--trials win); results are always\n"
        "              bit-identical to --threads 1\n"
        "  --progress  per-chunk 'done/total, elapsed, ETA' lines on stderr\n"
        "  --chunk C   trials aggregated per chunk (memory bound; 0 = auto)\n";
  return code;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string subcommand = argv[1];
  if (subcommand == "help" || subcommand == "--help") return usage(std::cout, 0);

  // Parse everything after the subcommand as options. The reproducibility
  // subcommands take recorded files as bare-word operands; everything else
  // keeps the strict options-only grammar.
  const bool takes_operands = subcommand == "replay" || subcommand == "fingerprint";
  const Cli cli(argc - 1, argv + 1, takes_operands);
  if (subcommand == "list") return cmd_list(cli);
  if (subcommand == "describe") return cmd_describe(cli);
  if (subcommand == "run") return cmd_run(cli);
  if (subcommand == "sweep") return cmd_sweep(cli);
  if (subcommand == "replay") return cmd_replay(cli);
  if (subcommand == "fingerprint") return cmd_fingerprint(cli);
  if (subcommand == "hwinfo") return cmd_hwinfo(std::cout);
  std::cerr << "unknown subcommand '" << subcommand << "'\n\n";
  return usage(std::cerr, 2);
}

}  // namespace
}  // namespace rumor

int main(int argc, char** argv) {
  try {
    return rumor::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rumor_cli: " << e.what() << "\n";
    return 2;
  }
}
