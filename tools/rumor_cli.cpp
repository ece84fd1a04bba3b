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
// anything not a reserved driver option is validated against the scenario's
// schema. Every JSON summary record carries the full reproducibility
// manifest (scenario, resolved params, engine, protocol, seed, build id), so
// a recorded run can be replayed exactly. See docs/ARCHITECTURE.md.
//
//   $ rumor_cli run --scenario dynamic_star --n 256 --trials 30 --seed 1 --json
//   $ rumor_cli sweep --scenarios static_clique,dynamic_star
//         --engines async_jump,sync --sweep n=128,256 --trials 10 --csv
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// Driver options; everything else is treated as a scenario parameter.
// "bound-cap" sets RunnerOptions::bound_continuation_cap (rumor_serve's
// bound_cap).
const std::set<std::string>& reserved_options() {
  static const std::set<std::string> names = {
      "scenario", "scenarios", "engine",      "engines",     "protocol", "protocols",
      "trials",   "seed",      "threads",     "bounds",      "failure",  "clock-rate",
      "time-limit", "round-limit", "source",  "sweep",       "json",     "csv",
      "markdown", "help",      "progress",    "scale",       "chunk",    "bound-cap",
      "strict-build",
  };
  return names;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::map<std::string, std::string> scenario_overrides(const Cli& cli) {
  std::map<std::string, std::string> overrides;
  for (const auto& [name, value] : cli.entries()) {
    if (reserved_options().count(name) == 0) overrides[name] = value;
  }
  return overrides;
}

RunnerOptions runner_options(const Cli& cli) {
  // The --scale preset sizes a run for large-n sweeps: every hardware thread
  // by default and fewer (but bigger) trials. Explicit --threads/--trials
  // always win.
  const bool scale = cli.get_bool("scale", false);
  // Clamped to the pool cap so the preset works on >512-thread hosts too.
  const int hw = std::min(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
      TrialPool::kMaxThreads);
  RunnerOptions opt;
  opt.engine = parse_engine(cli.get("engine", "async_jump"));
  opt.protocol = parse_protocol(cli.get("protocol", "push_pull"));
  opt.trials = static_cast<int>(cli.get_int("trials", scale ? 8 : 30));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.threads = static_cast<int>(cli.get_int("threads", scale ? hw : 1));
  opt.chunk_trials = static_cast<int>(cli.get_int("chunk", 0));
  opt.bound_continuation_cap = cli.get_int("bound-cap", opt.bound_continuation_cap);
  opt.clock_rate = cli.get_double("clock-rate", 1.0);
  opt.time_limit = cli.get_double("time-limit", opt.time_limit);
  opt.round_limit = cli.get_int("round-limit", opt.round_limit);
  opt.source = static_cast<NodeId>(kSourceColumn.checked(cli.get_int("source", -1)));
  opt.transmission_failure_prob = cli.get_double("failure", 0.0);
  if (cli.has("bounds")) {
    opt.track_bounds = true;
    // `--bounds` alone tracks with c = 1; `--bounds 2` sets the exponent.
    if (cli.get("bounds", "true") != "true") opt.bound_c = cli.get_double("bounds", 1.0);
  }
  return opt;
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

int cmd_run(const Cli& cli) {
  // Sweep-only options would otherwise be reserved-but-ignored here, and a
  // plural slip (--engines for --engine) must not silently run defaults.
  const std::pair<const char*, const char*> sweep_only[] = {
      {"scenarios", "use --scenario NAME"},
      {"engines", "use --engine NAME"},
      {"protocols", "use --protocol NAME"},
      {"sweep", "pass the parameter directly, e.g. --n 256"},
  };
  for (const auto& [name, hint] : sweep_only) {
    if (cli.has(name)) {
      std::cerr << "--" << name << " is a sweep option; for `run` " << hint
                << " (or use `rumor_cli sweep`)\n";
      return 2;
    }
  }
  ExperimentConfig config;
  config.scenario = cli.get("scenario", "");
  config.param_overrides = scenario_overrides(cli);
  config.runner = runner_options(cli);
  config.runner.progress = make_progress(cli, config.scenario);

  // Per-trial records stream through a sink as chunks complete instead of
  // being buffered in the report, so --json/--csv stay memory-bounded at
  // million-node scale. Record order on stdout is unchanged: trials in trial
  // order, then the summary.
  // Validate up front so a typo'd scenario or parameter leaves stdout empty
  // (streaming emits during the run, so validation can no longer hide behind
  // the buffered-output path).
  ScenarioParams::resolve(require_scenario(config.scenario), config.param_overrides);

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

// The scenario x engine x protocol x swept-parameter grid shared by `sweep`
// and `fingerprint`: parsed from the plural options (singular forms honoured
// as one-element grids) and validated up front — a typo in a late cell must
// reject the grid in milliseconds, not abort it mid-run after hours.
struct SweepGrid {
  std::vector<std::string> scenarios;
  std::vector<std::string> engines;
  std::vector<std::string> protocols;
  std::string sweep_name;                   // "" when no parameter is swept
  std::vector<std::string> sweep_values;    // {""} when no parameter is swept
};

std::optional<SweepGrid> parse_grid(const Cli& cli, const char* subcommand) {
  SweepGrid grid;
  grid.scenarios = split_list(cli.get("scenarios", cli.get("scenario", "")));
  if (grid.scenarios.empty()) {
    std::cerr << subcommand << " needs --scenarios a,b,... (or --scenario NAME)\n";
    return std::nullopt;
  }
  grid.engines = split_list(cli.get("engines", cli.get("engine", "async_jump")));
  grid.protocols = split_list(cli.get("protocols", cli.get("protocol", "push_pull")));

  // One optional swept scenario parameter: --sweep name=v1,v2,...
  grid.sweep_values = {""};
  if (cli.has("sweep")) {
    const std::string sweep = cli.get("sweep", "");
    const auto eq = sweep.find('=');
    if (eq == std::string::npos || split_list(sweep.substr(eq + 1)).empty()) {
      std::cerr << "--sweep expects name=v1,v2,... got '" << sweep << "'\n";
      return std::nullopt;
    }
    grid.sweep_name = sweep.substr(0, eq);
    grid.sweep_values = split_list(sweep.substr(eq + 1));
  }

  for (const std::string& scenario : grid.scenarios) {
    const ScenarioSpec& spec = require_scenario(scenario);
    for (const std::string& value : grid.sweep_values) {
      std::map<std::string, std::string> overrides = scenario_overrides(cli);
      if (!grid.sweep_name.empty()) overrides[grid.sweep_name] = value;
      ScenarioParams::resolve(spec, overrides);
    }
  }
  for (const std::string& engine : grid.engines) parse_engine(engine);
  for (const std::string& protocol : grid.protocols) parse_protocol(protocol);
  return grid;
}

// Walks the grid once, in scenario x swept value x engine x protocol order,
// calling fn(config, value) for each cell: `config` is the shared run options
// with the cell's axes filled in and a progress label naming the cell, and
// `value` is the cell's swept value ("" when nothing is swept).
template <typename Fn>
void for_each_cell(const Cli& cli, const SweepGrid& grid, Fn&& fn) {
  const std::map<std::string, std::string> overrides = scenario_overrides(cli);
  const RunnerOptions runner = runner_options(cli);
  const std::size_t cells = grid.scenarios.size() * grid.sweep_values.size() *
                            grid.engines.size() * grid.protocols.size();
  std::size_t cell = 0;
  for (const std::string& scenario : grid.scenarios) {
    for (const std::string& value : grid.sweep_values) {
      for (const std::string& engine : grid.engines) {
        for (const std::string& protocol : grid.protocols) {
          ++cell;
          ExperimentConfig config{scenario, overrides, runner};
          if (!grid.sweep_name.empty()) config.param_overrides[grid.sweep_name] = value;
          config.runner.engine = parse_engine(engine);
          config.runner.protocol = parse_protocol(protocol);
          std::string label = scenario;
          if (!grid.sweep_name.empty()) label += " " + grid.sweep_name + "=" + value;
          label += " " + engine + " cell " + std::to_string(cell) + "/" +
                   std::to_string(cells);
          config.runner.progress = make_progress(cli, label);
          fn(config, value);
        }
      }
    }
  }
}

int cmd_sweep(const Cli& cli) {
  const std::optional<SweepGrid> grid = parse_grid(cli, "sweep");
  if (!grid) return 2;

  const bool json = cli.get_bool("json", false);
  const bool csv = cli.get_bool("csv", false);
  if (csv) emit_csv_header(std::cout);
  Table table({"scenario", grid->sweep_name.empty() ? "-" : grid->sweep_name, "engine",
               "protocol", "completed", "mean", "median", "max", "seconds"});

  for_each_cell(cli, *grid, [&](const ExperimentConfig& config, const std::string& value) {
    const ExperimentResult result = run_experiment(config, make_sink(json, csv));
    if (json) {
      emit_summary_json(std::cout, result, RUMOR_BUILD_INFO);
    } else if (!csv) {
      const SampleSet& st = result.report.spread_time;
      table.add_row({config.scenario, value.empty() ? "-" : value,
                     to_string(config.runner.engine), to_string(config.runner.protocol),
                     std::to_string(result.report.completed) + "/" +
                         std::to_string(result.report.trials),
                     st.empty() ? "-" : Table::cell(st.mean()),
                     st.empty() ? "-" : Table::cell(st.median()),
                     st.empty() ? "-" : Table::cell(st.max()),
                     Table::cell(result.elapsed_seconds)});
    }
  });
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

  ReplayOptions options;
  options.threads_override = static_cast<int>(cli.get_int("threads", 0));
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

  const std::optional<SweepGrid> grid = parse_grid(cli, "fingerprint");
  if (!grid) return 2;
  for_each_cell(cli, *grid, [](const ExperimentConfig& config, const std::string&) {
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
  });
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
