#include "scenarios/experiment.h"

#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "support/contracts.h"
#include "support/json.h"
#include "support/resource.h"
#include "support/table.h"
#include "support/timer.h"

namespace rumor {

namespace {

std::string canonical(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

// Aggregate statistics of one SampleSet as a JSON object (null when empty so
// consumers need no sentinel conventions).
void write_sample_stats(JsonWriter& json, const std::string& key, const SampleSet& s) {
  json.key(key);
  if (s.empty()) {
    json.null();
    return;
  }
  json.begin_object()
      .field("count", static_cast<std::int64_t>(s.count()))
      .field("mean", s.mean())
      .field("stddev", s.stddev())
      .field("min", s.min())
      .field("median", s.median())
      .field("max", s.max())
      .end_object();
}

}  // namespace

EngineKind parse_engine(const std::string& name) {
  const std::string c = canonical(name);
  if (c == "async_jump") return EngineKind::async_jump;
  if (c == "async_tick") return EngineKind::async_tick;
  if (c == "sync" || c == "sync_rounds") return EngineKind::sync_rounds;
  if (c == "flooding") return EngineKind::flooding;
  DG_REQUIRE(false, "unknown engine '" + name +
                        "' (known: async_jump, async_tick, sync, flooding)");
  return EngineKind::async_jump;
}

Protocol parse_protocol(const std::string& name) {
  const std::string c = canonical(name);
  if (c == "push") return Protocol::push;
  if (c == "pull") return Protocol::pull;
  if (c == "push_pull") return Protocol::push_pull;
  DG_REQUIRE(false, "unknown protocol '" + name + "' (known: push, pull, push_pull)");
  return Protocol::push_pull;
}

ExperimentResult run_experiment(const ExperimentConfig& config, const TrialSink& sink) {
  const ScenarioSpec& spec = require_scenario(config.scenario);
  const ScenarioParams params = ScenarioParams::resolve(spec, config.param_overrides);

  ExperimentResult result;
  result.spec = &spec;
  result.params = params.items();

  RunnerOptions options = config.runner;
  result.runner = options;

  // The sink observes results as chunks complete, labelled with the resolved
  // spec/params already present in `result`.
  if (sink) {
    options.trial_sink = [&result, &sink](int trial, const SpreadResult& r) {
      sink(result, trial, r);
    };
  }

  // The timer covers factory creation too: shared-static factories build
  // their one Graph snapshot up front, and that cost belongs in the recorded
  // elapsed_seconds (BENCH snapshots compare builds against each other).
  Timer timer;
  const NetworkFactory factory = spec.make_factory(params);
  result.report = run_trials(factory, options);
  result.elapsed_seconds = timer.seconds();
  return result;
}

std::int64_t RunnerColumn::checked(std::int64_t value) const {
  if (value >= min && value <= max) return value;
  throw std::invalid_argument(std::string("field '") + name + "' is out of range [" +
                              std::to_string(min) + ", " + std::to_string(max) +
                              "]: " + std::to_string(value));
}

void write_runner_columns(JsonWriter& json, const RunnerOptions& opt, bool identity_only) {
  for_each_runner_column(opt, [&](const RunnerColumn& column, const auto& value) {
    if (identity_only && !column.identity) return;
    if constexpr (std::is_enum_v<std::decay_t<decltype(value)>>) {
      json.field(column.name, to_string(value));
    } else {
      json.field(column.name, value);
    }
  });
}

std::vector<std::pair<std::string_view, std::string>> runner_column_spellings(
    const RunnerOptions& opt) {
  std::vector<std::pair<std::string_view, std::string>> out;
  for_each_runner_column(opt, [&out](const RunnerColumn& column, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_enum_v<T>) {
      out.emplace_back(column.name, to_string(value));
    } else if constexpr (std::is_same_v<T, bool>) {
      out.emplace_back(column.name, value ? "true" : "false");
    } else if constexpr (std::is_floating_point_v<T>) {
      out.emplace_back(column.name, json_number(value));
    } else {
      out.emplace_back(column.name, std::to_string(value));
    }
  });
  return out;
}

void write_manifest(JsonWriter& json, const ExperimentResult& result,
                    const std::string& build_info) {
  json.begin_object();
  json.field("scenario", result.spec->name);
  json.key("params").begin_object();
  for (const auto& [name, value] : result.params) json.field(name, value);
  json.end_object();
  write_runner_columns(json, result.runner, /*identity_only=*/false);
  json.field("build", build_info);
  json.field("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  json.end_object();
}

void emit_trial_json(std::ostream& os, const ExperimentResult& result, int trial,
                     const SpreadResult& r) {
  JsonWriter json(os);
  json.begin_object()
      .field("record", "trial")
      .field("scenario", result.spec->name)
      .field("trial", static_cast<std::int64_t>(trial))
      .field("completed", r.completed)
      .field("spread_time", r.spread_time)
      .field("informed_count", r.informed_count)
      .field("informative_contacts", r.informative_contacts)
      .field("total_contacts", r.total_contacts)
      .field("graph_changes", r.graph_changes)
      .field("theorem11_crossing", r.theorem11_crossing)
      .field("theorem13_crossing", r.theorem13_crossing)
      .end_object();
  os << '\n';
}

void emit_summary_json(std::ostream& os, const ExperimentResult& result,
                       const std::string& build_info) {
  JsonWriter json(os);
  json.begin_object().field("record", "summary");
  json.key("manifest");
  write_manifest(json, result, build_info);
  json.field("completed", result.report.completed);
  json.field("completion_rate", result.report.completion_rate());
  write_sample_stats(json, "spread_time", result.report.spread_time);
  write_sample_stats(json, "informative_contacts", result.report.informative_contacts);
  write_sample_stats(json, "theorem11_crossing", result.report.theorem11_crossing);
  write_sample_stats(json, "theorem13_crossing", result.report.theorem13_crossing);
  json.field("elapsed_seconds", result.elapsed_seconds);
  json.end_object();
  os << '\n';
}

void emit_json(std::ostream& os, const ExperimentResult& result,
               const std::string& build_info) {
  for (std::size_t i = 0; i < result.report.per_trial.size(); ++i) {
    emit_trial_json(os, result, static_cast<int>(i), result.report.per_trial[i]);
  }
  emit_summary_json(os, result, build_info);
}

void emit_csv_header(std::ostream& os) {
  os << "scenario,params,engine,protocol,seed,trial,completed,spread_time,"
        "informative_contacts,total_contacts,graph_changes,"
        "theorem11_crossing,theorem13_crossing\n";
}

void emit_trial_csv(std::ostream& os, const ExperimentResult& result, int trial,
                    const SpreadResult& r) {
  // Resolved parameters as one semicolon-joined cell (comma-free by
  // construction), so sweep rows from different grid cells stay
  // distinguishable.
  std::string params;
  for (const auto& [name, value] : result.params) {
    if (!params.empty()) params += ';';
    params += name + "=" + value;
  }
  os << result.spec->name << ',' << params << ',' << to_string(result.runner.engine) << ','
     << to_string(result.runner.protocol) << ',' << result.runner.seed << ',' << trial << ','
     << (r.completed ? 1 : 0) << ',' << json_number(r.spread_time) << ','
     << r.informative_contacts << ',' << r.total_contacts << ',' << r.graph_changes << ','
     << r.theorem11_crossing << ',' << r.theorem13_crossing << '\n';
}

void emit_csv(std::ostream& os, const ExperimentResult& result) {
  for (std::size_t i = 0; i < result.report.per_trial.size(); ++i) {
    emit_trial_csv(os, result, static_cast<int>(i), result.report.per_trial[i]);
  }
}

void emit_text(std::ostream& os, const ExperimentResult& result) {
  os << "scenario  " << result.spec->name << "  (" << result.spec->paper_anchor << ")\n";
  os << "params    ";
  for (std::size_t i = 0; i < result.params.size(); ++i) {
    if (i > 0) os << "  ";
    os << result.params[i].first << "=" << result.params[i].second;
  }
  os << "\nengine    " << to_string(result.runner.engine) << "  protocol "
     << to_string(result.runner.protocol) << "  trials " << result.runner.trials << "  seed "
     << result.runner.seed << "  threads " << result.runner.threads << "\n\n";

  Table table({"metric", "count", "mean", "stddev", "min", "median", "max"});
  const std::pair<const char*, const SampleSet*> rows[] = {
      {"spread_time", &result.report.spread_time},
      {"informative_contacts", &result.report.informative_contacts},
      {"theorem11_crossing", &result.report.theorem11_crossing},
      {"theorem13_crossing", &result.report.theorem13_crossing},
  };
  for (const auto& [label, set] : rows) {
    if (set->empty()) continue;
    table.add_row({label, Table::cell(set->count()), Table::cell(set->mean()),
                   Table::cell(set->stddev()), Table::cell(set->min()),
                   Table::cell(set->median()), Table::cell(set->max())});
  }
  table.print(os);
  os << "\ncompleted " << result.report.completed << "/" << result.report.trials << " in "
     << json_number(result.elapsed_seconds) << "s\n";
}

}  // namespace rumor
