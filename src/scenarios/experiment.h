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
#include <type_traits>
#include <utility>
#include <vector>

#include "scenarios/registry.h"
#include "support/jsonl.h"

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
// forwarded verbatim; callers that want per-trial records pass a sink.
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
  // The request option that sets the column (read_runner_options), or
  // nullptr when a front end sets it its own way: engine and protocol are
  // grid axes, track_bounds and bound_c are rumor_cli's `--bounds [c]`.
  const char* option = nullptr;
  // Identity columns name the work: a manifest must carry them, and a
  // fingerprint record carries only them. A recording that predates any
  // other column replays under that column's RunnerOptions default.
  bool identity = false;
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();

  // `value` when it lies in [min, max]; else std::invalid_argument naming
  // the column.
  std::int64_t checked(std::int64_t value) const;

  // A written value of this column's type T, by json_scalar's whole-token
  // grammar; a signed integer must also lie in [min, max]. Manifests read
  // every column through it, requests every integer column.
  template <typename T>
  T read(std::string_view text) const {
    if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      return static_cast<T>(checked(json_scalar<std::int64_t>(text, name)));
    } else {
      return json_scalar<T>(text, name);
    }
  }
};

// The one list of manifest runner columns: calls visit(column, field) for
// each recorded field of `opt` (a RunnerOptions, const or not), in written
// order. write_manifest, parse_manifest, manifest_divergence, cache_key, the
// fingerprint record and the request reader (read_runner_options) all walk
// it, so a column and its request option are added here and nowhere else.
template <typename Options, typename Visit>
void for_each_runner_column(Options& opt, Visit&& visit) {
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  visit(RunnerColumn{"engine", nullptr, true}, opt.engine);
  visit(RunnerColumn{"protocol", nullptr, true}, opt.protocol);
  visit(RunnerColumn{"trials", "trials", true, 1, 1'000'000'000}, opt.trials);
  visit(RunnerColumn{"seed", "seed", true}, opt.seed);
  // The execution topology: reproduced on replay, though by the determinism
  // contract the per-trial records never depend on it.
  visit(RunnerColumn{"threads", "threads", false, 1, kIntMax}, opt.threads);
  visit(RunnerColumn{"chunk_trials", "chunk", false, 0, kIntMax}, opt.chunk_trials);
  visit(RunnerColumn{"clock_rate", "clock_rate"}, opt.clock_rate);
  visit(RunnerColumn{"time_limit", "time_limit"}, opt.time_limit);
  visit(RunnerColumn{"round_limit", "round_limit"}, opt.round_limit);
  visit(RunnerColumn{"track_bounds"}, opt.track_bounds);
  visit(RunnerColumn{"bound_c"}, opt.bound_c);
  visit(RunnerColumn{"bound_continuation_cap", "bound_cap"}, opt.bound_continuation_cap);
  visit(RunnerColumn{"transmission_failure_prob", "failure"}, opt.transmission_failure_prob);
  // Anything outside NodeId's range is rejected, never narrowed.
  visit(RunnerColumn{"source", "source", false, -1, std::numeric_limits<NodeId>::max()},
        opt.source);
}

// Writes the runner columns as JSON fields, in list order; only the identity
// columns when `identity_only`.
void write_runner_columns(JsonWriter& json, const RunnerOptions& opt, bool identity_only);

// Each runner column's name and written spelling (strings unquoted, doubles
// by json_number, so equal spellings mean equal bits), in list order: what
// manifest_divergence compares and cache_key hashes.
std::vector<std::pair<std::string_view, std::string>> runner_column_spellings(
    const RunnerOptions& opt);

// --- Requests: the grid grammar of rumor_cli and rumor_serve ----------------
//
// A request names its options: the grid axes (scenario/scenarios,
// engine/engines, protocol/protocols, sweep=name=v1,v2,...), the runner
// columns' options (RunnerColumn::option), and scenario parameters — every
// other name. It expands to cells in scenario x swept value x engine x
// protocol order.

// How a front end writes an option name: rumor_serve's JSON fields as named
// (clock_rate), rumor_cli's flags with '-' for '_' (--clock-rate). Errors
// name an option as its front end writes it.
enum class RequestSpelling { field, flag };

// A request's options: name as the front end writes it (without a flag's
// leading "--") to the value's text.
using RequestOptions = std::map<std::string, std::string>;

// Sets every runner column of `opt` whose option `options` names. Integer
// columns read as the manifest reads them (RunnerColumn::read: the column's
// range, errors naming the column); other columns read as JSON scalars named
// by the option. Throws std::invalid_argument on a value that does not read.
void read_runner_options(const RequestOptions& options, RequestSpelling spelling,
                         RunnerOptions& opt);

// One cell of an expanded request.
struct RequestCell {
  ExperimentConfig config;  // the scenario's registry name; runner options read
  std::string swept_value;  // "" when no parameter is swept
  std::vector<std::pair<std::string, std::string>> params;  // resolved, schema order
};

struct RequestGrid {
  std::string sweep_name;          // "" when no parameter is swept
  std::vector<RequestCell> cells;  // scenario x swept value x engine x protocol
};

// Expands a request into its cells, resolving every cell's parameters and
// parsing every engine and protocol before returning, so a bad late cell
// rejects the whole request before any trial runs. A single-cell request
// (rumor_cli run, rumor_serve run/bounds) takes one name per singular axis
// and no plural axis or sweep. Throws std::invalid_argument naming the
// option: a missing scenario, an axis that lists no names, a sweep without a
// name or values, more than `max_cells` cells, a value that does not read.
RequestGrid expand_request(const RequestOptions& options, bool single_cell,
                           RequestSpelling spelling,
                           std::size_t max_cells = std::numeric_limits<std::size_t>::max());

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

// CSV: a header, then one row per trial from a TrialSink; sweep drivers emit
// the header once across cells.
void emit_csv_header(std::ostream& os);
void emit_trial_csv(std::ostream& os, const ExperimentResult& result, int trial,
                    const SpreadResult& r);

// Human-readable summary table (the default `rumor_cli run` output).
void emit_text(std::ostream& os, const ExperimentResult& result);

}  // namespace rumor
