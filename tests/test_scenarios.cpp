// Tests for the scenario registry and the experiment driver: every
// registered scenario constructs and runs deterministically, parameter
// validation rejects bad input, and the rumor_cli run path (run_experiment)
// produces exactly the statistics of a direct run_trials call.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenarios/experiment.h"
#include "scenarios/registry.h"

namespace rumor {
namespace {

// Small-n overrides so every family finishes in milliseconds. n = 128 keeps
// the adversaries' rho constraints satisfiable with the schema defaults
// (diligent needs rho >= 1/sqrt(n), absolute needs rho >= 10/n).
std::map<std::string, std::string> small_overrides(const ScenarioSpec& spec) {
  std::map<std::string, std::string> overrides;
  if (spec.find_param("n") != nullptr) overrides["n"] = "128";
  if (spec.find_param("dims") != nullptr) overrides["dims"] = "6";
  if (spec.find_param("rows") != nullptr) overrides["rows"] = "8";
  if (spec.find_param("cols") != nullptr) overrides["cols"] = "8";
  // G(n,p) must stay above the connectivity threshold at the reduced n, or a
  // static disconnected draw runs to the time limit instead of completing.
  if (spec.name == "erdos_renyi") overrides["p"] = "0.1";
  return overrides;
}

TEST(Registry, HasAtLeastTenScenarios) {
  EXPECT_GE(scenario_registry().size(), 10u);
}

TEST(Registry, NamesUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const ScenarioSpec& s : scenario_registry()) {
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate scenario " << s.name;
    EXPECT_FALSE(s.summary.empty()) << s.name;
    EXPECT_FALSE(s.paper_anchor.empty()) << s.name;
    EXPECT_NE(s.make_factory, nullptr) << s.name;
    for (const ParamSpec& p : s.params) {
      EXPECT_LE(p.min_value, p.max_value) << s.name << "." << p.name;
      EXPECT_GE(p.fallback, p.min_value) << s.name << "." << p.name;
      EXPECT_LE(p.fallback, p.max_value) << s.name << "." << p.name;
      EXPECT_FALSE(p.description.empty()) << s.name << "." << p.name;
    }
  }
}

TEST(Registry, LookupFindsEveryEntryAndRejectsUnknown) {
  for (const ScenarioSpec& s : scenario_registry()) {
    EXPECT_EQ(find_scenario(s.name), &s);
    EXPECT_EQ(&require_scenario(s.name), &s);
  }
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
  EXPECT_THROW(require_scenario("no_such_scenario"), std::invalid_argument);
}

// The acceptance bar for the registry: every entry constructs a network and
// runs 2 trials, and a second identical invocation reproduces the values.
TEST(Registry, EveryScenarioRunsTwoTrialsDeterministically) {
  for (const ScenarioSpec& spec : scenario_registry()) {
    SCOPED_TRACE(spec.name);
    const ScenarioParams params = ScenarioParams::resolve(spec, small_overrides(spec));
    const NetworkFactory factory = spec.make_factory(params);

    auto net = factory(7);
    ASSERT_NE(net, nullptr);
    EXPECT_GT(net->node_count(), 0);
    EXPECT_FALSE(net->name().empty());

    RunnerOptions opt;
    opt.trials = 2;
    opt.seed = 3;
    const RunnerReport a = run_trials(factory, opt);
    const RunnerReport b = run_trials(spec.make_factory(params), opt);
    EXPECT_EQ(a.completed, 2);
    ASSERT_EQ(a.spread_time.count(), b.spread_time.count());
    for (std::size_t i = 0; i < a.spread_time.count(); ++i) {
      EXPECT_DOUBLE_EQ(a.spread_time.values()[i], b.spread_time.values()[i]);
    }
  }
}

TEST(ScenarioParams, DefaultsAndOverrides) {
  const ScenarioSpec& spec = require_scenario("diligent_adversary");
  const ScenarioParams defaults = ScenarioParams::resolve(spec, {});
  EXPECT_EQ(defaults.integer("n"), 512);
  EXPECT_DOUBLE_EQ(defaults.real("rho"), 0.25);

  const ScenarioParams overridden = ScenarioParams::resolve(spec, {{"n", "256"}, {"rho", "0.5"}});
  EXPECT_EQ(overridden.integer("n"), 256);
  EXPECT_DOUBLE_EQ(overridden.real("rho"), 0.5);
  // items() preserves schema order with formatted values.
  ASSERT_EQ(overridden.items().size(), 3u);
  EXPECT_EQ(overridden.items()[0], (std::pair<std::string, std::string>{"n", "256"}));
}

TEST(ScenarioParams, ValidationRejectsBadInput) {
  const ScenarioSpec& spec = require_scenario("edge_markovian");
  EXPECT_THROW(ScenarioParams::resolve(spec, {{"bogus", "1"}}), std::invalid_argument);
  EXPECT_THROW(ScenarioParams::resolve(spec, {{"p", "1.5"}}), std::invalid_argument);   // range
  EXPECT_THROW(ScenarioParams::resolve(spec, {{"n", "12.5"}}), std::invalid_argument);  // int
  EXPECT_THROW(ScenarioParams::resolve(spec, {{"n", "abc"}}), std::invalid_argument);   // number
  EXPECT_THROW(ScenarioParams::resolve(spec, {{"start_empty", "maybe"}}),
               std::invalid_argument);  // flag
  const ScenarioParams flags = ScenarioParams::resolve(spec, {{"start_empty", "true"}});
  EXPECT_TRUE(flags.flag("start_empty"));
}

TEST(EngineProtocolParsing, AcceptsBothSpellingsAndRejectsUnknown) {
  EXPECT_EQ(parse_engine("async_jump"), EngineKind::async_jump);
  EXPECT_EQ(parse_engine("async-tick"), EngineKind::async_tick);
  EXPECT_EQ(parse_engine("sync"), EngineKind::sync_rounds);
  EXPECT_EQ(parse_engine("flooding"), EngineKind::flooding);
  EXPECT_THROW(parse_engine("warp"), std::invalid_argument);
  EXPECT_EQ(parse_protocol("push"), Protocol::push);
  EXPECT_EQ(parse_protocol("push-pull"), Protocol::push_pull);
  EXPECT_THROW(parse_protocol("gossip"), std::invalid_argument);
}

// The acceptance criterion: the CLI run path reproduces the same
// RunnerReport statistics as the equivalent direct library call.
TEST(Experiment, MatchesDirectRunTrialsCall) {
  ExperimentConfig config;
  config.scenario = "dynamic_star";
  config.param_overrides = {{"n", "64"}};
  config.runner.engine = EngineKind::async_jump;
  config.runner.trials = 10;
  config.runner.seed = 1;
  config.runner.track_bounds = true;
  const ExperimentResult cli_result = run_experiment(config);

  const ScenarioSpec& spec = require_scenario("dynamic_star");
  const ScenarioParams params = ScenarioParams::resolve(spec, config.param_overrides);
  RunnerOptions direct = config.runner;
  const RunnerReport direct_report = run_trials(spec.make_factory(params), direct);

  EXPECT_EQ(cli_result.report.completed, direct_report.completed);
  const std::pair<const SampleSet*, const SampleSet*> sets[] = {
      {&cli_result.report.spread_time, &direct_report.spread_time},
      {&cli_result.report.informative_contacts, &direct_report.informative_contacts},
      {&cli_result.report.theorem11_crossing, &direct_report.theorem11_crossing},
      {&cli_result.report.theorem13_crossing, &direct_report.theorem13_crossing},
  };
  for (const auto& [a, b] : sets) {
    ASSERT_EQ(a->count(), b->count());
    for (std::size_t i = 0; i < a->count(); ++i) {
      EXPECT_DOUBLE_EQ(a->values()[i], b->values()[i]);
    }
  }
}

TEST(Experiment, PerTrialRecordsMatchAggregates) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "32"}};
  config.runner.trials = 6;
  config.runner.seed = 11;
  std::vector<SpreadResult> per_trial;
  const ExperimentResult result =
      run_experiment(config, [&per_trial](const ExperimentResult&, int, const SpreadResult& r) {
        per_trial.push_back(r);
      });
  ASSERT_EQ(per_trial.size(), 6u);
  std::size_t completed = 0;
  for (const SpreadResult& t : per_trial) {
    if (!t.completed) continue;
    EXPECT_DOUBLE_EQ(t.spread_time, result.report.spread_time.values()[completed]);
    ++completed;
  }
  EXPECT_EQ(static_cast<int>(completed), result.report.completed);
}

TEST(Experiment, JsonOutputIsDeterministicPerTrial) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "32"}};
  config.runner.trials = 3;
  config.runner.seed = 5;

  // Trial records (everything before the summary, whose elapsed-seconds field
  // is wall clock) must be byte-identical across repeated runs.
  auto emit = [&config](std::ostream& os) {
    const ExperimentResult result = run_experiment(
        config, [&os](const ExperimentResult& partial, int trial, const SpreadResult& r) {
          emit_trial_json(os, partial, trial, r);
        });
    emit_summary_json(os, result, "test-build");
  };
  std::ostringstream a, b;
  emit(a);
  emit(b);
  const std::string sa = a.str(), sb = b.str();
  EXPECT_EQ(sa.substr(0, sa.rfind("{\"record\":\"summary\"")),
            sb.substr(0, sb.rfind("{\"record\":\"summary\"")));
  EXPECT_NE(sa.find("\"record\":\"summary\""), std::string::npos);
  EXPECT_NE(sa.find("\"build\":\"test-build\""), std::string::npos);
}

TEST(Experiment, FailureInjectionSlowsSpreading) {
  ExperimentConfig config;
  config.scenario = "static_clique";
  config.param_overrides = {{"n", "64"}};
  config.runner.trials = 10;
  config.runner.seed = 21;
  const double clean = run_experiment(config).report.spread_time.mean();
  config.runner.transmission_failure_prob = 0.8;
  const double lossy = run_experiment(config).report.spread_time.mean();
  EXPECT_GT(lossy, clean);
}

TEST(Experiment, CsvEmitsOneRowPerTrial) {
  ExperimentConfig config;
  config.scenario = "static_cycle";
  config.param_overrides = {{"n", "16"}};
  config.runner.trials = 4;
  std::ostringstream os;
  emit_csv_header(os);
  run_experiment(config, [&os](const ExperimentResult& partial, int trial, const SpreadResult& r) {
    emit_trial_csv(os, partial, trial, r);
  });
  std::size_t lines = 0;
  for (char c : os.str()) lines += c == '\n' ? 1u : 0u;
  EXPECT_EQ(lines, 5u);  // header + 4 trials
}

// --- expand_request: the request grammar both front ends read -------------

// The message of the std::invalid_argument `fn` throws ("" when none).
template <typename Fn>
std::string rejection(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RequestGrammar, ExpandsTheGridInScenarioValueEngineProtocolOrder) {
  const RequestGrid grid = expand_request(
      {{"scenarios", "static_clique,dynamic_star"}, {"engines", "async_jump,sync"},
       {"sweep", "n=16,32"}, {"clock-rate", "0.5"}},
      /*single_cell=*/false, RequestSpelling::flag);
  ASSERT_EQ(grid.cells.size(), 8u);
  EXPECT_EQ(grid.sweep_name, "n");
  std::vector<std::string> order;
  for (const RequestCell& cell : grid.cells) {
    order.push_back(cell.config.scenario + " " + cell.swept_value + " " +
                    to_string(cell.config.runner.engine));
    EXPECT_EQ(cell.config.runner.clock_rate, 0.5);
    EXPECT_EQ(cell.config.param_overrides.at("n"), cell.swept_value);
  }
  EXPECT_EQ(order, (std::vector<std::string>{
                       "static_clique 16 async-jump", "static_clique 16 sync",
                       "static_clique 32 async-jump", "static_clique 32 sync",
                       "dynamic_star 16 async-jump", "dynamic_star 16 sync",
                       "dynamic_star 32 async-jump", "dynamic_star 32 sync"}));
}

TEST(RequestGrammar, EveryOptionedRunnerColumnIsReadUnderBothSpellings) {
  // A column with a request option is read by walking for_each_runner_column,
  // so declaring the option there is all a new runner column needs.
  const RunnerOptions defaults;
  const auto spellings = runner_column_spellings(defaults);
  for_each_runner_column(defaults, [&](const RunnerColumn& column, const auto&) {
    if (column.option == nullptr) return;
    for (const RequestSpelling spelling : {RequestSpelling::field, RequestSpelling::flag}) {
      std::string name = column.option;
      if (spelling == RequestSpelling::flag) std::replace(name.begin(), name.end(), '_', '-');
      RunnerOptions read;
      read_runner_options({{name, "2"}}, spelling, read);
      const auto changed = runner_column_spellings(read);
      for (std::size_t i = 0; i < spellings.size(); ++i) {
        EXPECT_EQ(spellings[i].second != changed[i].second, spellings[i].first == column.name)
            << "option '" << name << "' and column '" << spellings[i].first << "'";
      }
    }
  });
}

TEST(RequestGrammar, NamesEmptyAxesNamelessSweepsAndGridOptionsOfOneCell) {
  const auto expand = [](RequestOptions options, bool single_cell) {
    options.emplace("scenario", "dynamic_star");
    return [=] { expand_request(options, single_cell, RequestSpelling::flag); };
  };
  EXPECT_NE(rejection(expand({{"engines", ","}}, false)).find("'--engines'"), std::string::npos);
  EXPECT_NE(rejection(expand({{"protocol", ""}}, false)).find("'--protocol'"),
            std::string::npos);
  EXPECT_NE(rejection(expand({{"sweep", "=16,32"}}, false)).find("'--sweep'"),
            std::string::npos);
  EXPECT_NE(rejection(expand({{"sweep", "n="}}, false)).find("'--sweep'"), std::string::npos);
  EXPECT_NE(rejection(expand({{"engines", "sync"}}, true)).find("single cell"),
            std::string::npos);
  EXPECT_NE(rejection(expand({{"engine", "async_jump,sync"}}, true)).find("async_jump,sync"),
            std::string::npos);
  EXPECT_NE(rejection([] { expand_request({}, false, RequestSpelling::field); })
                .find("missing 'scenario'"),
            std::string::npos);
  // A bad late cell rejects the whole grid.
  EXPECT_NE(rejection(expand({{"sweep", "n=16,x"}}, false)).find("'n'"), std::string::npos);
}

}  // namespace
}  // namespace rumor
