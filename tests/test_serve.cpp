// Tests for the serving layer (src/serve/ + support/socket.h): the
// manifest-keyed cache's key semantics (manifests differing only in the
// provenance fields manifest_divergence ignores share a key; any resolved
// field it compares splits keys), LRU eviction, the two-knob admission gate's
// deterministic rejection, the request protocol's parse/resolve failure
// modes, and the full request path through ServeServer::handle_request_line —
// miss-then-hit byte identity, bounds/fingerprint verbs, dead-client
// mid-response behavior, the socket transport's EOF/dead-peer reporting, and
// the daemon's answer to a line longer than the LineReader cap.
// The daemon half (real sockets, concurrent clients, signals, clean
// shutdown) lives in scripts/serve_load.sh and scripts/check_serve_cli.sh.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "repro/manifest.h"
#include "repro/resolver.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/jsonl.h"
#include "support/socket.h"

namespace rumor {
namespace {

// A canonical manifest that resolves against today's registry; tests perturb
// one field at a time.
ReproManifest base_manifest() {
  const ServeRequest request = parse_request(
      R"({"cmd":"run","scenario":"dynamic_star","n":32,"trials":3,"seed":1})");
  return resolve_request_cells(request, ServeLimits{})[0].manifest;
}

template <typename Fn>
void expect_bad_request(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  }
}

// --- cache_key: the exact field set manifest_divergence compares -----------

TEST(CacheKey, IgnoredProvenanceFieldsShareAKey) {
  const ReproManifest a = base_manifest();
  ReproManifest b = a;
  b.build = "some-other-build-id";
  // The precondition that makes sharing sound: the comparator calls them equal.
  EXPECT_EQ(manifest_divergence(a, b), "");
  EXPECT_EQ(cache_key(a), cache_key(b));
}

TEST(CacheKey, EveryComparedFieldSplitsTheKey) {
  const ReproManifest a = base_manifest();
  const std::string base = cache_key(a);
  std::vector<std::string> perturbed;
  const auto expect_split = [&](const std::string& field, auto perturb) {
    ReproManifest m = a;
    perturb(m);
    EXPECT_EQ(manifest_divergence(a, m), field);
    EXPECT_NE(cache_key(m), base) << "field " << field << " did not split the key";
    perturbed.push_back(field);
  };
  expect_split("scenario", [](ReproManifest& m) { m.scenario = "static_clique"; });
  ASSERT_FALSE(a.params.empty());
  expect_split("params", [](ReproManifest& m) { m.params[0].second = "33"; });
  expect_split("engine", [](ReproManifest& m) { m.runner.engine = EngineKind::sync_rounds; });
  expect_split("protocol", [](ReproManifest& m) { m.runner.protocol = Protocol::push; });
  expect_split("trials", [](ReproManifest& m) { m.runner.trials = 4; });
  expect_split("seed", [](ReproManifest& m) { m.runner.seed = 2; });
  expect_split("threads", [](ReproManifest& m) { m.runner.threads = 8; });
  expect_split("chunk_trials", [](ReproManifest& m) { m.runner.chunk_trials = 16; });
  expect_split("clock_rate", [](ReproManifest& m) { m.runner.clock_rate = 2.5; });
  expect_split("time_limit", [](ReproManifest& m) { m.runner.time_limit = 1e6; });
  expect_split("round_limit", [](ReproManifest& m) { m.runner.round_limit = 5000; });
  expect_split("track_bounds", [](ReproManifest& m) { m.runner.track_bounds = true; });
  expect_split("bound_c", [](ReproManifest& m) { m.runner.bound_c = 2.0; });
  expect_split("bound_continuation_cap",
               [](ReproManifest& m) { m.runner.bound_continuation_cap = 1000; });
  expect_split("transmission_failure_prob",
               [](ReproManifest& m) { m.runner.transmission_failure_prob = 0.25; });
  expect_split("source", [](ReproManifest& m) { m.runner.source = 0; });

  // The runner column list names exactly the runner fields perturbed above,
  // so a column added to or dropped from it without a key and compare
  // decision fails here.
  std::vector<std::string> columns = {"scenario", "params"};
  for (const auto& [name, spelling] : runner_column_spellings(a.runner)) {
    columns.emplace_back(name);
  }
  EXPECT_EQ(columns, perturbed);
}

// --- ResultCache: LRU within a byte budget ---------------------------------

CachedCell cell_of_bytes(std::size_t bytes) {
  CachedCell cell;
  cell.summary_line = std::string(bytes, 's');
  return cell;
}

TEST(ResultCache, HitsMissesAndLruEviction) {
  ResultCache cache(250);
  EXPECT_EQ(cache.find("a"), nullptr);
  cache.insert("a", cell_of_bytes(100));
  cache.insert("b", cell_of_bytes(100));
  ASSERT_NE(cache.find("a"), nullptr);  // touches "a": "b" is now LRU
  cache.insert("c", cell_of_bytes(100));
  EXPECT_EQ(cache.find("b"), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ResultCache, OversizedCellIsKeptAlone) {
  ResultCache cache(100);
  cache.insert("big", cell_of_bytes(500));
  EXPECT_NE(cache.find("big"), nullptr)
      << "a cell larger than the budget still beats re-simulating";
  EXPECT_EQ(cache.entries(), 1u);
  cache.insert("next", cell_of_bytes(50));
  EXPECT_EQ(cache.find("big"), nullptr) << "the next insertion evicts it";
  EXPECT_NE(cache.find("next"), nullptr);
}

// --- AdmissionGate: deterministic two-knob rejection -----------------------

TEST(AdmissionGate, RejectsOnlyBeyondActivePlusWaiting) {
  AdmissionGate gate(1, 0);  // one active slot, no waiting room
  auto first = gate.admit();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(gate.admit().has_value()) << "no waiting room: must reject, not park";
  EXPECT_EQ(gate.stats().rejected, 1u);
  first.reset();  // RAII release frees the slot
  EXPECT_TRUE(gate.admit().has_value());
  EXPECT_EQ(gate.stats().admitted, 2u);
}

TEST(AdmissionGate, WaitingRoomParksUntilRelease) {
  AdmissionGate gate(1, 1);
  auto first = gate.admit();
  ASSERT_TRUE(first.has_value());
  std::atomic<bool> parked_got_in{false};
  std::thread waiter([&] {
    const auto ticket = gate.admit();  // parks: active full, waiting has room
    parked_got_in = ticket.has_value();
  });
  while (gate.stats().waiting == 0) std::this_thread::yield();
  EXPECT_FALSE(gate.admit().has_value()) << "waiting room full: third caller rejected";
  first.reset();
  waiter.join();
  EXPECT_TRUE(parked_got_in.load());
}

// --- Request protocol: parse and resolve failure modes ---------------------

TEST(ServeProtocol, ParseRejectsMalformedLines) {
  expect_bad_request([] { parse_request("not json"); }, {"flat JSON object"});
  expect_bad_request([] { parse_request(R"({"scenario":"x"})"); }, {"cmd"});
  expect_bad_request([] { parse_request(R"({"cmd":"run","n":1,"n":2})"); },
                     {"'n'", "twice"});
}

TEST(ServeProtocol, ResolveRejectsTopologyFieldsByName) {
  for (const char* field : {"threads", "chunk", "shards", "worker_cmd", "backend",
                            "build"}) {
    const std::string line = std::string(R"({"cmd":"run","scenario":"dynamic_star",")") +
                             field + R"(":"2"})";
    expect_bad_request(
        [&] { resolve_request_cells(parse_request(line), ServeLimits{}); },
        {std::string("'") + field + "'", "server's concern"});
  }
}

TEST(ServeProtocol, ResolveNamesTheBadFieldOrCell) {
  const auto resolve = [](const std::string& line) {
    return resolve_request_cells(parse_request(line), ServeLimits{});
  };
  expect_bad_request([&] { resolve(R"({"cmd":"run"})"); }, {"scenario"});
  expect_bad_request([&] { resolve(R"({"cmd":"run","scenario":"no_such"})"); },
                     {"no_such"});
  expect_bad_request(
      [&] { resolve(R"({"cmd":"run","scenario":"dynamic_star","trials":0})"); },
      {"trials"});
  expect_bad_request(
      [&] { resolve(R"({"cmd":"run","scenario":"dynamic_star","trials":"x"})"); },
      {"trials", "integer"});
  expect_bad_request(
      [&] { resolve(R"({"cmd":"run","scenario":"dynamic_star","bogus_param":1})"); },
      {"bogus_param"});
  // A source outside NodeId's range is rejected, never narrowed: 2^32 once
  // served as source 0, and anything below -1 as "suggested source".
  for (const char* source : {"4294967296", "2147483648", "-2"}) {
    expect_bad_request(
        [&] {
          resolve(std::string(R"({"cmd":"run","scenario":"static_clique","n":"64",)") +
                  R"("trials":2,"source":)" + source + "}");
        },
        {"'source'", "out of range", source});
  }
  EXPECT_EQ(
      resolve(R"({"cmd":"run","scenario":"static_clique","n":"64","source":2147483647})")[0]
          .manifest.runner.source,
      2147483647);
  // run/bounds are single-cell verbs: grid axes are sweep vocabulary.
  expect_bad_request(
      [&] { resolve(R"({"cmd":"run","scenarios":"dynamic_star,static_clique"})"); },
      {"single cell", "scenarios"});
  // Grid ceiling, counted before anything runs.
  ServeLimits tight;
  tight.max_cells = 1;
  expect_bad_request(
      [&] {
        resolve_request_cells(
            parse_request(
                R"({"cmd":"sweep","scenarios":"dynamic_star","sweep":"n=16,32"})"),
            tight);
      },
      {"2 cells", "at most 1"});
}

TEST(ServeProtocol, EmptyAxisAndNamelessSweepAreNamed) {
  // An axis that lists no names would run zero cells, and a sweep that names
  // no parameter the same default cell once per value; each is named instead.
  const auto resolve = [](const std::string& line) {
    return resolve_request_cells(parse_request(line), ServeLimits{});
  };
  expect_bad_request(
      [&] { resolve(R"({"cmd":"sweep","scenario":"dynamic_star","engines":","})"); },
      {"'engines'"});
  expect_bad_request(
      [&] { resolve(R"({"cmd":"fingerprint","scenarios":",","trials":2})"); }, {"'scenarios'"});
  expect_bad_request(
      [&] { resolve(R"({"cmd":"sweep","scenario":"dynamic_star","sweep":"=16,32"})"); },
      {"'sweep'", "=16,32"});
}

TEST(ServeProtocol, GridExpansionAndNormalization) {
  ServeLimits limits;
  limits.job_threads = 3;
  const ServeRequest request = parse_request(
      R"({"cmd":"sweep","scenarios":"dynamic_star","engines":"async_jump,sync",)"
      R"("sweep":"n=16,32","trials":2})");
  const std::vector<ResolvedCell> cells = resolve_request_cells(request, limits);
  ASSERT_EQ(cells.size(), 4u);
  std::vector<std::string> keys;
  for (const ResolvedCell& cell : cells) {
    keys.push_back(cell.key);
    // The server's topology policy, never the client's.
    EXPECT_EQ(cell.manifest.runner.threads, 3);
    EXPECT_EQ(cell.manifest.runner.trials, 2);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end())
      << "distinct grid cells must never share a cache key";
}

TEST(ServeProtocol, AliasSpellingsShareACell) {
  // Engine/protocol aliases ('-' vs '_') canonicalize before keying.
  const auto key_of = [](const std::string& line) {
    return resolve_request_cells(parse_request(line), ServeLimits{})[0].key;
  };
  EXPECT_EQ(
      key_of(R"({"cmd":"run","scenario":"dynamic_star","engine":"async_jump"})"),
      key_of(R"({"cmd":"run","scenario":"dynamic_star","engine":"async-jump"})"));
}

TEST(ServeProtocol, BoundsVerbForcesBoundTracking) {
  const ServeRequest request =
      parse_request(R"({"cmd":"bounds","scenario":"dynamic_star","trials":2})");
  const std::vector<ResolvedCell> cells =
      resolve_request_cells(request, ServeLimits{});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].manifest.runner.track_bounds);
  EXPECT_TRUE(cells[0].config.runner.track_bounds);
  // ...and therefore keys apart from the plain run of the same cell.
  const ServeRequest plain =
      parse_request(R"({"cmd":"run","scenario":"dynamic_star","trials":2})");
  EXPECT_NE(cells[0].key, resolve_request_cells(plain, ServeLimits{})[0].key);
}

// --- ServeServer::handle_request_line: the full path, transport-free -------

ServeServer::Options small_server() {
  ServeServer::Options options;
  options.build_info = "test-build";
  return options;
}

std::vector<std::string> collect(ServeServer& server, const std::string& line,
                                 ServeServer::RequestOutcome expected =
                                     ServeServer::RequestOutcome::served) {
  std::vector<std::string> lines;
  const auto outcome = server.handle_request_line(line, [&](const std::string& out) {
    lines.push_back(out);
    return true;
  });
  EXPECT_EQ(static_cast<int>(outcome), static_cast<int>(expected));
  return lines;
}

std::string get_field(const std::string& line, const std::string& key) {
  std::string value;
  jsonl_get_string(line, key, &value);
  return value;
}

TEST(ServeServer, MissThenHitIsByteIdentical) {
  ServeServer server(small_server());
  const std::string request =
      R"({"id":"q","cmd":"run","scenario":"dynamic_star","n":32,"trials":3})";
  const std::vector<std::string> first = collect(server, request);
  const std::vector<std::string> second = collect(server, request);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 2u + 3u + 1u);  // serve_cell + trials + summary + done
  EXPECT_EQ(get_field(first.front(), "cache"), "miss");
  EXPECT_EQ(get_field(second.front(), "cache"), "hit");
  // The body — every trial record and the summary line, served verbatim from
  // the cache, telemetry and all — is byte-identical; only the serve_cell
  // verdict and the serve_done hit/miss counters differ.
  for (std::size_t i = 1; i + 1 < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "response line " << i;
  }
  const CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// Regression coverage for the stats/cache synchronization audit (the TSan
// leg's serve target): concurrent request handlers and stats readers must
// not race. Before the audit pinned every counter behind the cache mutex,
// an unsynchronized cache_stats() read could tear against a handler
// incrementing hits/misses — a bug only TSan sees (the torn read is benign
// on x86). Run under -DSANITIZE=thread this test is the detector; under a
// plain build it still pins the hits+misses == requests-served invariant.
TEST(ServeServer, ConcurrentStatsReadsDoNotRaceHandlers) {
  ServeServer server(small_server());
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> stats_reads{0};

  // Reader: hammer the stats and cache accessors while handlers run.
  std::thread reader([&]() {
    while (!done.load()) {
      const CacheStats stats = server.cache_stats();
      EXPECT_LE(stats.hits + stats.misses,
                static_cast<std::uint64_t>(kClients * kRequestsPerClient));
      stats_reads.fetch_add(1);
    }
  });

  // Clients: distinct cells per client (misses) plus a shared cell every
  // other request (hits), so both counters move concurrently.
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, c]() {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        std::string request;
        if (r % 2 == 0) {
          request = R"({"cmd":"run","scenario":"dynamic_star","n":16,"trials":1})";
        } else {
          request = R"({"cmd":"run","scenario":"static_clique","n":)" +
                    std::to_string(16 + 8 * c) + R"(,"trials":1})";
        }
        std::vector<std::string> lines;
        const auto outcome =
            server.handle_request_line(request, [&](const std::string& out) {
              lines.push_back(out);
              return true;
            });
        EXPECT_EQ(static_cast<int>(outcome),
                  static_cast<int>(ServeServer::RequestOutcome::served));
        EXPECT_GE(lines.size(), 2u);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  reader.join();

  const CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // The shared cell misses once, then every repeat is a hit; each client's
  // private cells miss on first sight. Exact hit counts depend on
  // interleaving, but insertions can never exceed misses.
  EXPECT_GE(stats.misses, 1u + kClients);
  EXPECT_LE(stats.insertions, stats.misses);
  EXPECT_GT(stats_reads.load(), 0u);
}

TEST(ServeServer, BadRequestsBecomeServeErrorRecords) {
  ServeServer server(small_server());
  const std::vector<std::string> parse_error =
      collect(server, R"({"id":"e1","nocmd":true})");
  ASSERT_EQ(parse_error.size(), 1u);
  EXPECT_EQ(get_field(parse_error[0], "record"), "serve_error");
  EXPECT_EQ(get_field(parse_error[0], "id"), "e1") << "id salvaged from a bad line";
  const std::vector<std::string> resolve_error = collect(
      server, R"({"id":"e2","cmd":"run","scenario":"dynamic_star","threads":4})");
  ASSERT_EQ(resolve_error.size(), 1u);
  EXPECT_EQ(get_field(resolve_error[0], "record"), "serve_error");
  const std::vector<std::string> bad_cmd =
      collect(server, R"({"id":"e3","cmd":"dance"})");
  ASSERT_EQ(bad_cmd.size(), 1u);
  EXPECT_NE(bad_cmd[0].find("unknown cmd"), std::string::npos);
  EXPECT_EQ(server.cache_stats().insertions, 0u) << "no work ran for bad requests";
}

TEST(ServeServer, FingerprintVerbSharesTheCache) {
  ServeServer server(small_server());
  const std::string run =
      R"({"id":"r","cmd":"run","scenario":"dynamic_star","n":32,"trials":3})";
  const std::string fingerprint =
      R"({"id":"f","cmd":"fingerprint","scenario":"dynamic_star","n":32,"trials":3})";
  collect(server, run);
  const std::vector<std::string> response = collect(server, fingerprint);
  ASSERT_EQ(response.size(), 3u);  // serve_cell + fingerprint + serve_done
  EXPECT_EQ(get_field(response[0], "cache"), "hit")
      << "a fingerprint query of an already-run cell must not re-simulate";
  EXPECT_EQ(get_field(response[1], "record"), "fingerprint");
  EXPECT_EQ(get_field(response[1], "sha256"), get_field(response[0], "fingerprint"));
}

TEST(ServeServer, DeadClientMidResponseCachesTheCellAndStops) {
  ServeServer server(small_server());
  const std::string sweep =
      R"({"id":"s","cmd":"sweep","scenarios":"dynamic_star","sweep":"n=16,32",)"
      R"("trials":2})";
  int delivered = 0;
  const auto outcome = server.handle_request_line(sweep, [&](const std::string&) {
    return ++delivered < 2;  // client dies after the first record
  });
  EXPECT_EQ(static_cast<int>(outcome),
            static_cast<int>(ServeServer::RequestOutcome::client_lost));
  const CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.insertions, 1u)
      << "the in-flight cell completes and is cached; the rest is skipped";
  // The next asker gets the disconnected client's work from cache.
  const std::string first_cell =
      R"({"id":"n","cmd":"run","scenario":"dynamic_star","n":16,"trials":2})";
  EXPECT_EQ(get_field(collect(server, first_cell).front(), "cache"), "hit");
}

TEST(ServeServer, ShutdownVerbStopsServing) {
  ServeServer server(small_server());
  const std::vector<std::string> response = collect(
      server, R"({"id":"x","cmd":"shutdown"})", ServeServer::RequestOutcome::shutdown);
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(get_field(response[0], "record"), "serve_shutdown");
}

// --- Socket transport ------------------------------------------------------

TEST(SocketTransport, LinesRoundTripAndEofIsReported) {
  const std::string path = "/tmp/rumor_test_" + std::to_string(::getpid()) + ".sock";
  UnixListener listener(path);
  std::thread client_thread([&path] {
    Socket client = connect_unix(path);
    ASSERT_TRUE(client.write_all("hello\nworld\n"));
  });
  Socket accepted = listener.accept_next();
  ASSERT_TRUE(accepted.valid());
  client_thread.join();  // client closed: reader must see both lines then EOF
  LineReader reader(accepted.fd());
  std::vector<std::string> lines;
  while (reader.drain(lines)) {
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "hello");
  EXPECT_EQ(lines[1], "world");
  EXPECT_TRUE(reader.eof());
}

// A client that never sends a newline gets a serve_error naming the line cap
// and loses its connection; the daemon keeps serving everyone else.
TEST(SocketTransport, OverlongLineClosesOnlyThatConnection) {
  const std::string path = "/tmp/rumor_test_" + std::to_string(::getpid()) + "c.sock";
  ServeServer server(small_server());
  std::ostringstream log;
  struct Serving {  // stopped and joined on every exit, failed assertions too
    ServeServer& server;
    std::thread thread;
    ~Serving() {
      server.request_stop();
      thread.join();
    }
  } serving{server, std::thread([&] { server.serve(path, log); })};
  const auto connect = [&path] {
    for (int attempt = 0;; ++attempt) {
      try {
        return connect_unix(path);
      } catch (const std::runtime_error&) {
        if (attempt > 10000) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  // Lines read until `count` arrived or the server closed the connection.
  const auto read_lines = [](Socket& socket, std::size_t count) {
    LineReader reader(socket.fd());
    std::vector<std::string> lines;
    while (lines.size() < count && reader.drain(lines)) {
    }
    return lines;
  };

  Socket hog = connect();
  ASSERT_TRUE(hog.write_all(std::string(kMaxLineBytes + 1, 'x')));
  ::shutdown(hog.fd(), SHUT_WR);  // a daemon without the cap sees EOF instead of waiting
  const std::vector<std::string> refused = read_lines(hog, 2);
  ASSERT_EQ(refused.size(), 1u) << "one serve_error, then the connection closes";
  EXPECT_EQ(get_field(refused[0], "record"), "serve_error");
  const std::string error = get_field(refused[0], "error");
  EXPECT_NE(error.find(std::to_string(kMaxLineBytes)), std::string::npos) << error;

  Socket other = connect();
  ASSERT_TRUE(other.write_all("{\"id\":\"s\",\"cmd\":\"stats\"}\n"));
  const std::vector<std::string> served = read_lines(other, 1);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(get_field(served[0], "record"), "serve_stats");
}

TEST(SocketTransport, WriteToDeadPeerReturnsFalseNotSignal) {
  const std::string path = "/tmp/rumor_test_" + std::to_string(::getpid()) + "w.sock";
  UnixListener listener(path);
  Socket client = connect_unix(path);
  {
    Socket accepted = listener.accept_next();
    ASSERT_TRUE(accepted.valid());
  }  // server side closed
  // The first write may land in the socket buffer; keep writing until the
  // dead peer is reported. Under SIGPIPE this would kill the process instead.
  bool reported_dead = false;
  for (int i = 0; i < 64 && !reported_dead; ++i) {
    reported_dead = !client.write_all(std::string(1024, 'x'));
  }
  EXPECT_TRUE(reported_dead);
}

TEST(SocketTransport, PathTooLongAndAbsentDaemonFailLoudly) {
  EXPECT_THROW(UnixListener(std::string(200, 'p')), std::runtime_error);
  EXPECT_THROW(connect_unix("/tmp/rumor_no_such_daemon.sock"), std::runtime_error);
}

}  // namespace
}  // namespace rumor
