// Experiment driver over the scenario registry: the library half of
// `rumor_cli`, shared with the tests so CLI output provably matches direct
// library calls.
//
// run_experiment resolves a scenario's parameters, builds its NetworkFactory,
// and hands it to core/runner's run_trials; the emit_* functions render one
// run as human tables, JSON lines (one record per trial plus a summary record
// carrying the full reproducibility manifest), or CSV rows. A (scenario,
// params, engine, protocol, seed) tuple fully determines every emitted
// statistic; wall-clock timing is the only nondeterministic field.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenarios/registry.h"

namespace rumor {

class JsonWriter;

struct ExperimentConfig {
  std::string scenario;
  std::map<std::string, std::string> param_overrides;
  RunnerOptions runner;  // engine, protocol, trials, seed, threads, bounds, failure
};

struct ExperimentResult {
  const ScenarioSpec* spec = nullptr;
  std::vector<std::pair<std::string, std::string>> params;  // resolved, schema order
  RunnerOptions runner;                                     // options actually used
  RunnerReport report;
  double elapsed_seconds = 0.0;
};

// Per-trial streaming observer: invoked in trial order while the trials run,
// with the partially filled result (spec/params/runner valid, report not yet)
// for labelling. Wired to RunnerOptions::trial_sink, so at most one chunk of
// SpreadResults is ever resident — the memory contract that lets `rumor_cli
// --json` stream million-node sweeps.
using TrialSink =
    std::function<void(const ExperimentResult& partial, int trial, const SpreadResult& r)>;

// Resolves + validates the scenario and runs the trials. Runner options are
// forwarded verbatim; callers that buffer per-trial records (emit_json /
// emit_csv) must set runner.keep_per_trial themselves — it retains O(trials
// x n) memory, which aggregate-only output (emit_text) never reads.
// Streaming callers pass a sink instead and leave keep_per_trial off.
ExperimentResult run_experiment(const ExperimentConfig& config, const TrialSink& sink = {});

// Engine/protocol names as used on the command line (accepts '-' and '_'
// interchangeably); throws std::invalid_argument with the valid names.
EngineKind parse_engine(const std::string& name);
Protocol parse_protocol(const std::string& name);

// --- The manifest's runner columns -----------------------------------------

// One RunnerOptions field as the summary manifest records it. The field's C++
// type is its JSON type (engine and protocol are strings spelled by
// to_string); an integer column accepts only values in [min, max].
struct RunnerColumn {
  const char* name;
  // Identity columns name the work: a manifest must carry them, and a
  // fingerprint record carries only them. A recording that predates any
  // other column replays under that column's RunnerOptions default.
  bool identity = false;
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();

  // `value` when it lies in [min, max]; else std::invalid_argument naming
  // the column.
  std::int64_t checked(std::int64_t value) const;
};

// The `source` column, which front-ends also read under their own spelling:
// anything outside NodeId's range is rejected, never narrowed.
inline constexpr RunnerColumn kSourceColumn{"source", false, -1,
                                            std::numeric_limits<NodeId>::max()};

// The one list of manifest runner columns: calls visit(column, field) for
// each recorded field of `opt` (a RunnerOptions, const or not), in written
// order. write_manifest, parse_manifest, manifest_divergence, cache_key and
// the fingerprint record all walk it, so a column is added here and nowhere
// else.
template <typename Options, typename Visit>
void for_each_runner_column(Options& opt, Visit&& visit) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  visit(RunnerColumn{"engine", true}, opt.engine);
  visit(RunnerColumn{"protocol", true}, opt.protocol);
  visit(RunnerColumn{"trials", true, 1, 1'000'000'000}, opt.trials);
  visit(RunnerColumn{"seed", true}, opt.seed);
  // The execution topology: reproduced on replay, though by the determinism
  // contract the per-trial records never depend on it.
  visit(RunnerColumn{"threads", false, 1, kIntMax}, opt.threads);
  visit(RunnerColumn{"chunk_trials", false, 0, kIntMax}, opt.chunk_trials);
  visit(RunnerColumn{"clock_rate"}, opt.clock_rate);
  visit(RunnerColumn{"time_limit"}, opt.time_limit);
  visit(RunnerColumn{"round_limit"}, opt.round_limit);
  visit(RunnerColumn{"track_bounds"}, opt.track_bounds);
  visit(RunnerColumn{"bound_c"}, opt.bound_c);
  visit(RunnerColumn{"bound_continuation_cap"}, opt.bound_continuation_cap);
  visit(RunnerColumn{"transmission_failure_prob"}, opt.transmission_failure_prob);
  visit(kSourceColumn, opt.source);
}

// Writes the runner columns as JSON fields, in list order; only the identity
// columns when `identity_only`.
void write_runner_columns(JsonWriter& json, const RunnerOptions& opt, bool identity_only);

// Each runner column's name and written spelling (strings unquoted, doubles
// by json_number, so equal spellings mean equal bits), in list order: what
// manifest_divergence compares and cache_key hashes.
std::vector<std::pair<std::string_view, std::string>> runner_column_spellings(
    const RunnerOptions& opt);

// --- Output rendering -------------------------------------------------------

// The reproducibility manifest written into every JSON summary record:
// scenario + resolved params, the runner columns above, and the build
// identifier handed in by the binary (git describe) — everything needed to
// reproduce the run bit-for-bit — plus memory telemetry (peak_rss_mb), which
// like wall-clock timing is reported, not reproduced.
void write_manifest(JsonWriter& json, const ExperimentResult& result,
                    const std::string& build_info);

// One {"record":"trial",...} line; the per-record form the streaming drivers
// call from a TrialSink.
void emit_trial_json(std::ostream& os, const ExperimentResult& result, int trial,
                     const SpreadResult& r);

// One {"record":"summary",...} line with the manifest and aggregates.
void emit_summary_json(std::ostream& os, const ExperimentResult& result,
                       const std::string& build_info);

// JSON lines: one {"record":"trial",...} per trial (from the buffered
// report.per_trial), then the summary record.
void emit_json(std::ostream& os, const ExperimentResult& result,
               const std::string& build_info);

// CSV: a header plus one row per trial; `with_header` lets sweep drivers
// emit the header once across cells. emit_trial_csv is the streaming form.
void emit_csv_header(std::ostream& os);
void emit_trial_csv(std::ostream& os, const ExperimentResult& result, int trial,
                    const SpreadResult& r);
void emit_csv(std::ostream& os, const ExperimentResult& result);

// Human-readable summary table (the default `rumor_cli run` output).
void emit_text(std::ostream& os, const ExperimentResult& result);

}  // namespace rumor
