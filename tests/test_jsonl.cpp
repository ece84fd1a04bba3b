// Tests for support/jsonl: LineReader framing and its line cap, the strict
// JsonObject reader (grammar, named errors, typed reads), regression cases
// for the misreads the former field scanners made, and a deterministic
// mutation fuzzer over every reader of outside bytes (JsonObject,
// parse_manifest, load_recording, parse_request): each input must parse or
// fail with std::invalid_argument.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/manifest.h"
#include "scenarios/experiment.h"
#include "serve/protocol.h"
#include "support/json.h"
#include "support/jsonl.h"

namespace rumor {
namespace {

// EXPECT that `fn` throws std::invalid_argument whose message contains every
// needle.
template <typename Fn>
void expect_named_error(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error message missing '" << needle << "': " << what;
    }
  }
}

// A summary line whose manifest carries `fields` after its required ones.
std::string summary_with(const std::string& params, const std::string& fields) {
  return R"({"record":"summary","manifest":{"scenario":"dynamic_star","params":)" +
         params + R"(,"engine":"async-jump","protocol":"push-pull",)" + fields + "}}";
}

// --- LineReader -------------------------------------------------------------

TEST(Jsonl, LineReaderFramesAndKeepsPartialTail) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const char* payload = "{\"a\":1}\n{\"b\":2}\n{\"trunc";
  ASSERT_EQ(write(fds[1], payload, strlen(payload)),
            static_cast<ssize_t>(strlen(payload)));
  close(fds[1]);
  LineReader reader(fds[0]);
  std::vector<std::string> lines;
  while (reader.drain(lines)) {
  }
  close(fds[0]);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "{\"b\":2}");
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(reader.partial(), "{\"trunc");
}

TEST(Jsonl, LineReaderCapsAnUnterminatedLine) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // A line of exactly the cap is framed; one byte more without a newline is
  // refused once it arrives.
  const std::string payload =
      std::string(kMaxLineBytes, 'x') + "\n" + std::string(kMaxLineBytes + 1, 'y');
  std::thread writer([&] {
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = write(fds[1], payload.data() + sent, payload.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    close(fds[1]);  // a reader without the cap sees EOF instead of hanging
  });
  LineReader reader(fds[0]);
  std::vector<std::string> lines;
  bool capped = false;
  try {
    while (reader.drain(lines)) {
    }
  } catch (const std::length_error& e) {
    capped = std::string(e.what()).find(std::to_string(kMaxLineBytes)) != std::string::npos;
  }
  writer.join();  // every byte was read before the cap tripped
  close(fds[0]);
  EXPECT_TRUE(capped);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].size(), kMaxLineBytes);
}

// --- JsonObject: fields and typed reads -----------------------------------

TEST(Jsonl, TypedReadsOfTopLevelFields) {
  const std::string line =
      "{\"record\":\"trial\",\"scenario\":\"edge_markovian\",\"trial\":42,"
      "\"completed\":true,\"spread_time\":19.425733953796847,"
      "\"theorem11_crossing\":-1}";
  const JsonObject object(line);
  std::string s;
  std::int64_t i = 0;
  double d = 0;
  bool b = false;
  EXPECT_TRUE(object.get("record", &s));
  EXPECT_EQ(s, "trial");
  EXPECT_TRUE(object.get("scenario", &s));
  EXPECT_EQ(s, "edge_markovian");
  EXPECT_TRUE(object.get("trial", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(object.get("theorem11_crossing", &i));
  EXPECT_EQ(i, -1);
  EXPECT_TRUE(object.get("completed", &b));
  EXPECT_TRUE(b);
  // The parsed double must round-trip the record's bits exactly.
  EXPECT_TRUE(object.get("spread_time", &d));
  EXPECT_EQ(json_number(d), "19.425733953796847");
  EXPECT_FALSE(object.get("absent", &i));
  // A present value of another type is an error, not "absent".
  expect_named_error([&] { object.get("trial", &b); }, {"'trial'", "true or false"});
  expect_named_error([&] { object.get("trial", &s); }, {"'trial'", "a string"});
  expect_named_error([&] { object.get("record", &i); }, {"'record'", "an int64 integer"});
  // The compatibility wrappers say false for all three.
  EXPECT_TRUE(jsonl_get_bool(line, "completed", &b));
  EXPECT_FALSE(jsonl_get_bool(line, "trial", &b));
  EXPECT_FALSE(jsonl_get_string(line, "absent", &s));
  EXPECT_FALSE(jsonl_get_string(line + "x", "record", &s));
}

TEST(Jsonl, NestedObjectsParseFromTheirText) {
  const std::string line =
      R"({"record":"summary","manifest":{"scenario":"x","params":{"n":"8"},"seed":7},"mean":1.5})";
  JsonObject manifest;
  ASSERT_TRUE(JsonObject(line).get("manifest", &manifest));
  ASSERT_EQ(manifest.fields().size(), 3u);
  EXPECT_EQ(manifest.fields()[1].text, R"({"n":"8"})");
  JsonObject params;
  ASSERT_TRUE(manifest.get("params", &params));
  ASSERT_EQ(params.fields().size(), 1u);
  EXPECT_EQ(json_spelling(params.fields()[0]), "8");
  expect_named_error([&] { JsonObject(line).get("mean", &params); }, {"'mean'", "an object"});
  EXPECT_FALSE(JsonObject(line).get("absent", &params));
}

TEST(Jsonl, TruncatedObjectIsANamedError) {
  expect_named_error([] { JsonObject(R"({"manifest":{"scenario":"x")"); }, {"unexpected end"});
  expect_named_error([] { JsonObject(R"({"a":"cut)"); }, {"unterminated string"});
}

TEST(Jsonl, ScalarSpellingsInSourceOrder) {
  const JsonObject object(R"({"n":"128","p":8e-05,"flag":true,"none":null})");
  std::vector<std::pair<std::string, std::string>> items;
  for (const JsonField& field : object.fields()) {
    items.emplace_back(field.key, json_spelling(field));
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"n", "128"}, {"p", "8e-05"}, {"flag", "true"}, {"none", "null"}};
  EXPECT_EQ(items, expected);
  EXPECT_TRUE(JsonObject("{}").fields().empty());
  expect_named_error([] { json_spelling(JsonObject(R"({"a":{"b":1}})").fields()[0]); },
                     {"'a'", "a scalar"});
  expect_named_error([] { json_spelling(JsonObject(R"({"a":[1]})").fields()[0]); },
                     {"'a'", "a scalar"});
  expect_named_error([] { JsonObject("not json"); }, {"expected '{'"});
}

// --- The full grammar and its named errors ---------------------------------

TEST(JsonGrammar, AcceptsEveryValueKind) {
  const JsonObject object(
      " {\"a\" : [1, {\"b\":[]}, \"x\", true, null, -0.5e+3] ,\"c\":{},\"d\":null,"
      "\"e\":false,\"f\":\"\\/\\b\\f\\n\\r\\t\"}\r");
  ASSERT_EQ(object.fields().size(), 5u);
  EXPECT_EQ(object.fields()[0].text, R"([1, {"b":[]}, "x", true, null, -0.5e+3])");
  EXPECT_EQ(object.fields()[1].text, "{}");
  EXPECT_EQ(object.fields()[2].text, "null");
  EXPECT_EQ(object.fields()[3].text, "false");
  std::string f;
  ASSERT_TRUE(object.get("f", &f));
  EXPECT_EQ(f, "/\b\f\n\r\t");
}

TEST(JsonGrammar, MalformedInputsAreNamed) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"a":1} x)", "bytes after the closing brace"},
      {R"({"a":1}{"b":2})", "bytes after the closing brace"},
      {R"({"a":"\ud800"})", "lone surrogate"},
      {R"({"a":"\ud800\u0041"})", "lone surrogate"},
      {R"({"a":"\udc00"})", "lone surrogate"},
      {R"({"a":"\u12"})", "four hex digits"},
      {R"({"a":"\q"})", "invalid escape"},
      {std::string("{\"a\":\"\x01\"}"), "control character"},
      {R"({"a":01})", "malformed number"},
      {R"({"a":1.})", "malformed number"},
      {R"({"a":.5})", "malformed number"},
      {R"({"a":-})", "malformed number"},
      {R"({"a":1e})", "malformed number"},
      {R"({"a":+1})", "malformed number"},
      {R"({"a":})", "unexpected value"},
      {R"({"a":tru})", "unexpected value 'tru'"},
      {R"({"a":NaN})", "unexpected value"},
      {R"({"a":1,})", "quoted key"},
      {R"({"a" 1})", "':'"},
      {R"({"a":1 "b":2})", "',' or '}'"},
      {R"({"a":[1 2]})", "',' or ']'"},
      {R"({"a":1,"a":2})", "duplicate key 'a'"},
      {R"({"x":{"a":1,"a":2}})", "duplicate key 'a'"},
      {"[1]", "expected '{'"},
      {"", "unexpected end"},
  };
  for (const auto& [input, needle] : cases) {
    SCOPED_TRACE(input);
    expect_named_error([&] { JsonObject{input}; }, {"invalid JSON at byte", needle});
  }
}

TEST(JsonGrammar, NestingIsCappedAtAFixedDepth) {
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 1; i < depth; ++i) text += "{\"a\":";
    text += "{}";
    for (int i = 1; i < depth; ++i) text += "}";
    return text;
  };
  EXPECT_NO_THROW(JsonObject{nested(kMaxJsonDepth)});
  expect_named_error([&] { JsonObject{nested(kMaxJsonDepth + 1)}; }, {"nesting deeper"});
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += "{\"a\":";
  expect_named_error([&] { JsonObject{deep}; }, {"nesting deeper"});
  expect_named_error([] { JsonObject{"{\"a\":" + std::string(10000, '[')}; }, {"nesting deeper"});
}

TEST(JsonGrammar, UnicodeEscapesDecodeToUtf8) {
  std::string s;
  ASSERT_TRUE(JsonObject(R"({"a":"\u0041\u00e9\u20ac\ud83d\ude00"})").get("a", &s));
  EXPECT_EQ(s, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // Keys are compared decoded: an escaped spelling finds, and repeats, "a".
  EXPECT_TRUE(JsonObject(R"({"\u0061":"x"})").get("a", &s));
  EXPECT_EQ(s, "x");
  expect_named_error([] { JsonObject(R"({"a":1,"\u0061":2})"); }, {"duplicate key 'a'"});
}

TEST(JsonGrammar, DuplicatesAreFoundAmongManyKeys) {
  std::string text = "{";
  for (int i = 0; i < 200; ++i) text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  EXPECT_EQ(JsonObject(text + "\"last\":0}").fields().size(), 201u);
  expect_named_error([&] { JsonObject(text + "\"k7\":0}"); }, {"duplicate key 'k7'"});
}

TEST(JsonScalar, IntegersReadTheWholeTokenInRange) {
  EXPECT_EQ(json_scalar<std::int64_t>("9223372036854775807", "x"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json_scalar<std::int64_t>("-9223372036854775808", "x"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(json_scalar<std::int64_t>("-0", "x"), 0);
  EXPECT_EQ(json_scalar<std::uint64_t>("18446744073709551615", "x"),
            std::numeric_limits<std::uint64_t>::max());
  expect_named_error([] { json_scalar<std::int64_t>("9223372036854775808", "x"); },
                     {"'x'", "int64 integer"});
  expect_named_error([] { json_scalar<std::int64_t>("-9223372036854775809", "x"); },
                     {"int64 integer"});
  expect_named_error([] { json_scalar<std::uint64_t>("18446744073709551616", "x"); },
                     {"uint64 integer"});
  expect_named_error([] { json_scalar<std::uint64_t>("-1", "x"); }, {"uint64 integer"});
  for (const char* text : {"1.5", "1e3", "12abc", " 1", "+1", "007", "", "\"1\""}) {
    expect_named_error([&] { json_scalar<std::int64_t>(text, "x"); }, {"an int64 integer"});
  }
}

TEST(JsonScalar, DoublesAndBoolsAreStrict) {
  EXPECT_EQ(json_scalar<double>("8e-05", "x"), 8e-05);
  EXPECT_EQ(json_scalar<double>("-0", "x"), 0.0);
  expect_named_error([] { json_scalar<double>("1e999", "x"); }, {"finite"});
  for (const char* text : {"inf", "nan", "0x10", "1.", " 1", "1 "}) {
    expect_named_error([&] { json_scalar<double>(text, "x"); }, {"finite number"});
  }
  EXPECT_TRUE(json_scalar<bool>("true", "x"));
  EXPECT_FALSE(json_scalar<bool>("false", "x"));
  expect_named_error([] { json_scalar<bool>("1", "x"); }, {"true or false"});
}

TEST(JsonEscape, EveryAsciiByteRoundTrips) {
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    std::string original = "a_b";
    original[1] = static_cast<char>(byte);
    const std::string line = "{\"k\":\"" + json_escape(original) + "\"}";
    std::string read;
    ASSERT_TRUE(JsonObject(line).get("k", &read)) << byte;
    EXPECT_EQ(read, original) << "byte " << byte;
  }
}

// --- Regressions: inputs the former field scanners misread ------------------

TEST(JsonlRegression, NestedKeyDoesNotShadowTheTopLevelOne) {
  std::uint64_t seed = 0;
  ASSERT_TRUE(JsonObject(R"({"params":{"seed":3},"seed":7})").get("seed", &seed));
  EXPECT_EQ(seed, 7u);
}

TEST(JsonlRegression, DuplicateManifestFieldIsNamed) {
  expect_named_error(
      [] { parse_manifest(summary_with(R"({"n":"16"})", R"("trials":5,"trials":6,"seed":1)")); },
      {"duplicate key 'trials'"});
}

TEST(JsonlRegression, EscapedQuoteInAStringIsDecoded) {
  std::string id;
  ASSERT_TRUE(jsonl_get_string(R"({"id":"a\"b","cmd":"stats"})", "id", &id));
  EXPECT_EQ(id, "a\"b");
}

TEST(JsonlRegression, NumberWithTrailingBytesIsNamed) {
  expect_named_error(
      [] { parse_manifest(summary_with(R"({"n":"16"})", R"("trials":12abc,"seed":1)")); },
      {"malformed number", "12abc"});
}

TEST(JsonlRegression, ParamsMayShareNamesWithManifestFields) {
  const ReproManifest m =
      parse_manifest(summary_with(R"({"n":"128","seed":"5"})", R"("trials":2,"seed":7)"));
  EXPECT_EQ(m.runner.seed, 7u);
  EXPECT_EQ(m.runner.trials, 2);
  const std::vector<std::pair<std::string, std::string>> params = {{"n", "128"}, {"seed", "5"}};
  EXPECT_EQ(m.params, params);
}

TEST(JsonlRegression, RequestStringEscapesAreDecoded) {
  const ServeRequest request = parse_request(R"({"cmd":"run","n":"a\"b"})");
  ASSERT_EQ(request.options.size(), 1u);
  EXPECT_EQ(request.options[0].second, "a\"b");
}

// --- Deterministic mutation fuzzer -------------------------------------------

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::string> fuzz_corpus() {
  ExperimentConfig config;
  config.scenario = "dynamic_star";
  config.param_overrides = {{"n", "16"}};
  config.runner.trials = 2;
  config.runner.seed = 3;
  std::ostringstream recording;
  const ExperimentResult result = run_experiment(
      config, [&recording](const ExperimentResult& partial, int trial, const SpreadResult& r) {
        emit_trial_json(recording, partial, trial, r);
      });
  emit_summary_json(recording, result, "fuzz-build");

  std::vector<std::string> corpus = {
      recording.str(),
      R"({"cmd":"stats"})",
      R"({"id":"ok","cmd":"run","scenario":"dynamic_star","n":16,"trials":2})",
      R"({"id":"b1","cmd":"dance"})",
      R"({"id":"b2","cmd":"run"})",
      R"({"id":"b3","cmd":"run","scenario":"no_such_scenario"})",
      R"({"id":"b4","cmd":"run","scenario":"dynamic_star","threads":4})",
      R"({"x":1e999})",
      R"({"x":-0})",
      R"({"x":9223372036854775808})",
      R"({"x":18446744073709551616})",
      std::string(10000, '{'),
      "{\"x\":\"" + std::string(std::size_t{1} << 20, 'a') + "\"}",
  };
  std::istringstream lines(recording.str());
  for (std::string line; std::getline(lines, line);) corpus.push_back(line);
  return corpus;
}

std::string mutate(const std::string& input, const std::vector<std::string>& corpus,
                   std::uint64_t& rng) {
  static const std::string alphabet = "{}[]\":,\\/0123456789-+.eEtrufalsn \x01\x7f\x80\xff";
  static const std::vector<std::string> extremes = {
      "1e999", "-0", "9223372036854775808", "18446744073709551616", "-9223372036854775809",
      "1e-999", "\"\\ud800\"", "{}", "[]", "null"};
  std::string s = input;
  const auto pick = [&rng](std::size_t n) { return n == 0 ? 0 : splitmix(rng) % n; };
  for (std::uint64_t edits = 1 + pick(3); edits > 0; --edits) {
    switch (pick(5)) {
      case 0:  // byte flip
        if (!s.empty()) {
          const bool wild = pick(4) == 0;
          s[pick(s.size())] = wild ? static_cast<char>(pick(256)) : alphabet[pick(alphabet.size())];
        }
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2: {  // splice with another corpus entry
        const std::string& other = corpus[pick(corpus.size())];
        s = s.substr(0, pick(s.size() + 1)) + other.substr(pick(other.size() + 1));
        break;
      }
      case 3: {  // duplicate one field: ,"k":v becomes ,"k":v,"k":v
        const std::size_t at = s.find(",\"", pick(s.size() + 1));
        const std::size_t end = at == std::string::npos ? at : s.find_first_of(",}", at + 1);
        if (end != std::string::npos) s.insert(end, s.substr(at, end - at));
        break;
      }
      default: {  // numeric extreme in place of the next digit run
        const std::size_t at = s.find_first_of("0123456789", pick(s.size() + 1));
        if (at == std::string::npos) break;
        const std::size_t end = s.find_first_not_of("0123456789.eE+-", at);
        s.replace(at, end == std::string::npos ? std::string::npos : end - at,
                  extremes[pick(extremes.size())]);
      }
    }
  }
  return s;
}

// Runs `fn`, which may succeed or throw std::invalid_argument; anything else
// thrown is a failure.
template <typename Fn>
void succeeds_or_names(Fn fn, const std::string& input) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << e.what() << " on input of " << input.size()
                  << " bytes starting " << input.substr(0, 200);
  }
}

void read_back(const std::string& input) {
  succeeds_or_names(
      [&] {
        const JsonObject object(input);
        for (const JsonField& field : object.fields()) {
          std::int64_t i = 0;
          std::uint64_t u = 0;
          double d = 0;
          bool b = false;
          std::string s;
          JsonObject nested;
          succeeds_or_names([&] { object.get(field.key, &i); }, input);
          succeeds_or_names([&] { object.get(field.key, &u); }, input);
          succeeds_or_names([&] { object.get(field.key, &d); }, input);
          succeeds_or_names([&] { object.get(field.key, &b); }, input);
          succeeds_or_names([&] { object.get(field.key, &s); }, input);
          succeeds_or_names([&] { object.get(field.key, &nested); }, input);
          succeeds_or_names([&] { json_spelling(field); }, input);
        }
      },
      input);
  succeeds_or_names([&] { parse_manifest(input); }, input);
  succeeds_or_names([&] { parse_request(input); }, input);
  succeeds_or_names(
      [&] {
        std::istringstream in(input);
        load_recording(in);
      },
      input);
}

TEST(JsonlFuzz, EveryMutantParsesOrFailsWithANamedError) {
  const std::vector<std::string> corpus = fuzz_corpus();
  for (const std::string& entry : corpus) read_back(entry);
  std::uint64_t rng = 0x5EED;
  for (int round = 0; round < 3000; ++round) {
    const std::string& entry = corpus[splitmix(rng) % corpus.size()];
    // The 1 MiB entry is slow to mutate; a few of its mutants suffice.
    if (entry.size() > 65536 && splitmix(rng) % 32 != 0) continue;
    const std::string mutant = mutate(entry, corpus, rng);
    read_back(mutant);
    // Recordings are read line by line too.
    std::istringstream lines(mutant);
    for (std::string line; std::getline(lines, line);) {
      if (line.size() != mutant.size()) read_back(line);
    }
  }
}

}  // namespace
}  // namespace rumor
