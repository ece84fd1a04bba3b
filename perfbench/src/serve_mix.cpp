// serve_mix: an in-process ServeServer on a unix socket, driven by closed-loop
// clients (each sends its next request only after the previous answer).
//
// Requests ask for cells of a fixed pool of six small static and dynamic
// cells, 4 trials each. Hot requests draw one of four request seeds per cell
// (24 keys) uniformly from a per-client generator seeded from --seed. Every
// hot key is asked once before the timed section; those asks miss and fill
// the cache, so timed hot requests hit (cache + transport). Every
// kFreshEvery-th request of a client asks a pool cell with a fresh request
// seed instead, so it misses (simulate -> emit -> hash -> insert). The cache
// budget is small, so once it is full each insert evicts the least recently
// used fresh entry; the hot entries are used all the time and stay. The
// steady state thus holds hits, misses and evictions at a fixed share.
#include <unistd.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "repro/fingerprint.h"
#include "scenarios/registry.h"
#include "serve/server.h"
#include "stats/rng.h"
#include "stats/summary.h"
#include "support/jsonl.h"
#include "support/socket.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSeedsPerCell = 4;
constexpr std::size_t kTrialsPerRequest = 4;
// One request in kFreshEvery misses. At about 0.06 ms per hit and 80 ms per
// miss (queueing for the one job slot included) on a 4-vCPU x86 VM, the
// misses take about a third of a client's time, so both paths move the
// throughput.
constexpr std::int64_t kFreshEvery = 2048;
// Fresh request seeds lie above the hot ones (1..kSeedsPerCell).
constexpr std::uint64_t kFreshSeedBase = 1000;
constexpr std::uint64_t kFreshSeedRange = 1'000'000'000;
// Holds the hot entries (~1.8 KB each) about three times over: about fifty
// fresh entries fit before evictions start.
constexpr std::size_t kCacheBytes = std::size_t{128} << 10;
// Per-client memory stays fixed, so the resident peak measures the server:
// hit latencies are a uniform reservoir sample, and only the first requests
// are kept for the re-drive.
constexpr std::size_t kHitSamples = 1 << 16;
constexpr std::size_t kMaxRedrive = 20000;

struct PoolCell {
  const char* scenario;
  std::vector<std::pair<std::string, std::string>> params;
};

const std::vector<PoolCell>& pool() {
  static const std::vector<PoolCell> cells = {
      {"static_torus", {{"rows", "32"}, {"cols", "32"}}},
      {"static_hypercube", {{"dims", "10"}}},
      {"erdos_renyi", {{"n", "2048"}, {"p", "0.01"}}},
      {"dynamic_star", {{"n", "1024"}}},
      {"edge_markovian", {{"n", "2048"}, {"p", "0.004"}, {"q", "0.2"}}},
      {"mobile_geometric", {{"n", "1024"}}},
  };
  return cells;
}

// One run request: a pool cell and a request seed.
struct Ask {
  std::size_t cell = 0;
  std::uint64_t seed = 1;
};

int hot_keys() { return static_cast<int>(pool().size()) * kSeedsPerCell; }

Ask hot_ask(int key) {
  return {static_cast<std::size_t>(key / kSeedsPerCell),
          static_cast<std::uint64_t>(1 + key % kSeedsPerCell)};
}

std::string label(const Ask& ask) {
  return std::string(pool()[ask.cell].scenario) + " seed " + std::to_string(ask.seed);
}

std::string request_line(const Ask& ask, const std::string& id) {
  const PoolCell& cell = pool()[ask.cell];
  std::string line = "{\"id\":\"" + id + "\",\"cmd\":\"run\",\"scenario\":\"" + cell.scenario + "\"";
  for (const auto& [name, value] : cell.params) line += ",\"" + name + "\":\"" + value + "\"";
  line += ",\"trials\":" + std::to_string(kTrialsPerRequest) +
          ",\"seed\":" + std::to_string(ask.seed) + "}\n";
  return line;
}

bool starts_with(const std::string& line, const char* prefix) { return line.rfind(prefix, 0) == 0; }

// A response body: the trial lines and the summary, exactly as served.
struct Body {
  std::vector<std::string> lines;
  std::string fingerprint;
  bool from_miss = false;
};

// What is wrong with a body, or "" when it holds kTrialsPerRequest completed
// trials and the summary, and matches its advertised fingerprint.
std::string body_error(const Body& body) {
  if (body.lines.size() != kTrialsPerRequest + 1) return "wrong record count";
  rumor::RecordHasher hasher;
  for (std::size_t t = 0; t < kTrialsPerRequest; ++t) {
    hasher.add(body.lines[t]);
    bool done = false;
    if (!rumor::jsonl_get_bool(body.lines[t], "completed", &done) || !done) {
      return "a trial did not complete";
    }
  }
  if (hasher.finish() != body.fingerprint) return "body does not match its fingerprint";
  return "";
}

// A server running serve() on its own thread; stopped and joined on scope
// exit.
class RunningServer {
 public:
  RunningServer(const rumor::ServeServer::Options& options, std::string path)
      : server_(options), path_(std::move(path)), thread_([this] {
          try {
            server_.serve(path_, log_);
          } catch (const std::exception& e) {
            log_ << e.what();  // connect() then times out and reports it
          }
        }) {}
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() {
    server_.request_stop();
    thread_.join();
  }

  // Connects, retrying until the listener is bound.
  rumor::Socket connect() const {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      try {
        return rumor::connect_unix(path_);
      } catch (const std::exception&) {
        if (Clock::now() > deadline) throw;
        std::this_thread::yield();
      }
    }
  }

  rumor::ServeServer& server() { return server_; }

 private:
  rumor::ServeServer server_;
  const std::string path_;
  std::ostringstream log_;  // written by the serve thread only
  std::thread thread_;  // declared last: it uses every member above
};

// One client connection: sends a request line and reads its whole response.
class Connection {
 public:
  explicit Connection(const RunningServer& running)
      : socket_(running.connect()), reader_(socket_.fd()) {}

  // Fills `body` and returns "", or returns what went wrong: "server hung
  // up", "serve_reject" or "serve_error".
  std::string ask(const std::string& request, Body& body) {
    body.lines.clear();
    std::string line;
    if (!socket_.write_all(request) || !next(line)) return "server hung up";
    if (!starts_with(line, "{\"record\":\"serve_cell\"")) {
      return starts_with(line, "{\"record\":\"serve_reject\"") ? "serve_reject" : "serve_error";
    }
    std::string cache;
    rumor::jsonl_get_string(line, "cache", &cache);
    rumor::jsonl_get_string(line, "fingerprint", &body.fingerprint);
    body.from_miss = cache == "miss";
    while (next(line) && !starts_with(line, "{\"record\":\"serve_done\"")) {
      body.lines.push_back(std::move(line));
    }
    return "";
  }

 private:
  bool next(std::string& out) {
    while (at_ >= lines_.size()) {
      lines_.clear();
      at_ = 0;
      if (!reader_.drain(lines_) && lines_.empty()) return false;
    }
    out = std::move(lines_[at_++]);
    return true;
  }

  rumor::Socket socket_;
  rumor::LineReader reader_;
  std::vector<std::string> lines_;
  std::size_t at_ = 0;
};

rumor::ServeServer::Options server_options() {
  rumor::ServeServer::Options o;
  o.build_info = "perfbench";
  o.cache_bytes = kCacheBytes;
  return o;  // 1 active job and 4 waiting: the daemon defaults
}

// Server construction and start until it has answered its first request, a
// fixed small run (a cold miss: resolve, simulate, emit, hash, insert).
double measure_setup(const std::string& path, int* reps_out) {
  rumor::SampleSet times;
  double spent = 0.0;
  const std::string probe = request_line(hot_ask(0), "setup");
  Body body;
  while (times.count() < 5 || (spent < 0.5 && times.count() < 200)) {
    const auto t0 = Clock::now();
    RunningServer running(server_options(), path);
    Connection connection(running);
    std::string error = connection.ask(probe, body);
    if (error.empty()) error = body_error(body);
    if (!error.empty()) throw std::runtime_error("serve_mix: the set-up request failed: " + error);
    const double elapsed = seconds_between(t0, Clock::now());
    times.add(elapsed);
    spent += elapsed;
  }
  *reps_out = static_cast<int>(times.count());
  return times.median();
}

// Asks every hot key once, untimed. These first asks miss; their bodies are
// the reference every later (hit) body of the key must equal byte for byte.
std::vector<Body> warm_up(const RunningServer& running, Report& report) {
  std::vector<Body> warm(static_cast<std::size_t>(hot_keys()));
  Connection connection(running);
  for (int key = 0; key < hot_keys(); ++key) {
    Body& body = warm[static_cast<std::size_t>(key)];
    std::string error = connection.ask(request_line(hot_ask(key), "warm"), body);
    if (error.empty()) error = body_error(body);
    report.check(error.empty(), label(hot_ask(key)) + " (warm-up): " + error);
    report.check(body.from_miss, label(hot_ask(key)) + " (warm-up): first ask did not miss");
  }
  return warm;
}

struct ClientResult {
  std::vector<double> hit_ms;  // reservoir sample of hits_seen latencies
  std::int64_t hits_seen = 0;
  std::vector<double> miss_ms;
  std::int64_t hot_misses = 0;  // hot keys that had been evicted
  std::vector<Ask> asks;  // the first requests, in order, for the re-drive
  std::int64_t requests = 0;
  std::int64_t records = 0;  // trial records of correct responses
  std::vector<std::string> failures;
};

void run_client(const RunningServer& running, int client, std::uint64_t seed,
                Clock::time_point deadline, const std::vector<Body>& warm, ClientResult& out) {
  rumor::Rng rng(seed * std::uint64_t{1000003} + static_cast<std::uint64_t>(client));
  rumor::Rng sampler(~seed + static_cast<std::uint64_t>(client));
  out.hit_ms.reserve(kHitSamples);
  out.asks.reserve(kMaxRedrive);
  Connection connection(running);
  Body body;
  for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
    const bool fresh = (i + 1) % kFreshEvery == 0;
    const int key = fresh ? -1 : static_cast<int>(rng.below(static_cast<std::uint64_t>(hot_keys())));
    const Ask ask =
        fresh ? Ask{static_cast<std::size_t>(client + i / kFreshEvery) % pool().size(),
                    kFreshSeedBase + rng.below(kFreshSeedRange)}
              : hot_ask(key);
    if (out.asks.size() < kMaxRedrive) out.asks.push_back(ask);
    ++out.requests;
    std::string id(1, 'c');  // built piecewise: "c" + std::string trips GCC 12's -Wrestrict
    id += std::to_string(client);
    id += '-';
    id += std::to_string(i);
    const std::string request = request_line(ask, id);
    const auto t0 = Clock::now();
    const std::string error = connection.ask(request, body);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    if (!error.empty()) {
      out.failures.push_back(label(ask) + ": " + error);
      if (error == "server hung up") return;
      continue;
    }
    if (body.from_miss) {
      out.miss_ms.push_back(ms);
      if (!fresh) ++out.hot_misses;
    } else if (out.hit_ms.size() < kHitSamples) {
      out.hit_ms.push_back(ms);
      ++out.hits_seen;
    } else {
      const std::uint64_t slot = sampler.below(static_cast<std::uint64_t>(++out.hits_seen));
      if (slot < kHitSamples) out.hit_ms[slot] = ms;
    }

    // A hot body must equal the checked warm-up miss body; a fresh one is
    // checked on its own.
    std::string wrong;
    if (fresh) {
      wrong = body_error(body);
    } else {
      const Body& first = warm[static_cast<std::size_t>(key)];
      if (body.lines != first.lines || body.fingerprint != first.fingerprint) {
        wrong = "body differs from the key's first (miss) body";
      }
    }
    if (wrong.empty()) {
      out.records += static_cast<std::int64_t>(kTrialsPerRequest);
    } else {
      out.failures.push_back(label(ask) + ": " + wrong);
    }
  }
}

}  // namespace

Report run_serve_mix(const Options& opt) {
  Report report;
  const std::string path = opt.scratch_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  int setup_reps = 0;
  const double setup_s = measure_setup(path, &setup_reps);

  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int clients = opt.threads;
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<Body> warm;
  rumor::CacheStats cache;
  rumor::AdmissionGate::Stats gate;
  double wall_s = 0.0;
  double peak_mb = 0.0;
  {
    RunningServer running(server_options(), path);
    warm = warm_up(running, report);
    reset_peak_rss();
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          run_client(running, c, opt.seed, deadline, warm, results[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          results[static_cast<std::size_t>(c)].failures.push_back(e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall_s = seconds_between(t0, Clock::now());
    peak_mb = peak_rss_mb();
    cache = running.server().cache_stats();
    gate = running.server().admission_stats();
  }

  rumor::SampleSet hit_ms;
  rumor::SampleSet miss_ms;
  std::int64_t hits = 0;
  std::int64_t hot_misses = 0;
  std::int64_t requests = 0;
  std::int64_t records = 0;
  for (const ClientResult& r : results) {
    requests += r.requests;
    records += r.records;
    hits += r.hits_seen;
    hot_misses += r.hot_misses;
    for (double ms : r.hit_ms) hit_ms.add(ms);
    for (double ms : r.miss_ms) miss_ms.add(ms);
    for (const std::string& f : r.failures) report.fail(f);
  }
  report.attempted += requests;

  if (!opt.trace) {
    const auto [tail_label, tail_ms] = tail_percentile(hit_ms);
    report.metric("trials_per_s", static_cast<double>(records) / wall_s, "1/s");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_mb, "MiB");
    report.metric("req_per_s", static_cast<double>(requests) / wall_s, "1/s");
    report.metric("hit_ms_p50", hit_ms.empty() ? 0.0 : hit_ms.median(), "ms");
    report.metric("hit_ms_p95", hit_ms.empty() ? 0.0 : hit_ms.quantile(0.95), "ms");
    report.metric("miss_ms_p50", miss_ms.empty() ? 0.0 : miss_ms.median(), "ms");
    report.note("hit_tail", tail_label + " = " + std::to_string(tail_ms) + " ms over a " +
                                std::to_string(hit_ms.count()) + "-sample reservoir of " +
                                std::to_string(hits) + " hits");
    report.note("throughput", "trials_per_s counts the trial records of correct responses, "
                              "req_per_s every request, both over the whole timed run; "
                              "peak_rss_mb is the timed run's resident peak");
    report.note("setup", "median of " + std::to_string(setup_reps) +
                             " server starts, each until its first run request was answered");
  }
  report.note("load", std::to_string(clients) + " closed-loop clients, " +
                          std::to_string(requests) + " requests (" + std::to_string(hits) +
                          " hits, " + std::to_string(miss_ms.count()) + " misses, one in " +
                          std::to_string(kFreshEvery) + " a fresh seed) after " +
                          std::to_string(hot_keys()) + " warm-up misses; " +
                          std::to_string(hot_misses) + " hot keys missed after eviction");

  if (opt.trace) {
    report.metric("serve.cache_hits", static_cast<double>(cache.hits), "count");
    report.metric("serve.cache_misses", static_cast<double>(cache.misses), "count");
    report.metric("serve.cache_evictions", static_cast<double>(cache.evictions), "count");
    report.metric("serve.hit_ratio",
                  cache.hits + cache.misses == 0
                      ? 0.0
                      : static_cast<double>(cache.hits) /
                            static_cast<double>(cache.hits + cache.misses),
                  "ratio");
    report.metric("serve.admitted", static_cast<double>(gate.admitted), "count");
    report.metric("serve.rejected", static_cast<double>(gate.rejected), "count");

    // The same request sequence (clients interleaved round-robin) through
    // handle_request_line on a fresh server, with no socket.
    rumor::ServeServer direct(server_options());
    rumor::SampleSet handle_ms;
    const rumor::ServeServer::LineSink sink = [](const std::string&) { return true; };
    for (std::size_t i = 0; handle_ms.count() < kMaxRedrive; ++i) {
      bool any = false;
      for (std::size_t c = 0; c < results.size() && handle_ms.count() < kMaxRedrive; ++c) {
        if (i >= results[c].asks.size()) continue;
        any = true;
        std::string line = request_line(results[c].asks[i], "redrive");
        line.pop_back();  // handle_request_line takes the line without its newline
        const auto t0 = Clock::now();
        direct.handle_request_line(line, sink);
        handle_ms.add(seconds_between(t0, Clock::now()) * 1e3);
      }
      if (!any) break;
    }
    report.metric("serve.handle_ms_p50", handle_ms.empty() ? 0.0 : handle_ms.median(), "ms");
    report.metric("trace_overhead_frac", 0.0, "ratio");
    report.note("serve_trace",
                "serve.* counters from cache_stats()/admission_stats() after the socket run "
                "(warm-up included; at most 4 clients never overfill the 1 active + 4 "
                "waiting slots, so rejected stays 0); handle_ms_p50 re-drives " +
                    std::to_string(handle_ms.count()) +
                    " of its requests through handle_request_line with no socket; no "
                    "wrappers run here, so trace_overhead_frac is 0");

    // Every hot key's fingerprint, for the cross-check against rumor_cli.
    for (int key = 0; key < hot_keys(); ++key) {
      const Ask ask = hot_ask(key);
      const PoolCell& cell = pool()[ask.cell];
      const rumor::ScenarioSpec& spec = rumor::require_scenario(cell.scenario);
      std::map<std::string, std::string> overrides(cell.params.begin(), cell.params.end());
      report.cells.push_back({cell.scenario,
                              rumor::ScenarioParams::resolve(spec, overrides).items(), 1.0,
                              static_cast<int>(kTrialsPerRequest), ask.seed,
                              warm[static_cast<std::size_t>(key)].fingerprint});
    }
  }
  return report;
}

}  // namespace perfbench
