#include "serve/server.h"

#include <unistd.h>

#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "repro/fingerprint.h"
#include "support/contracts.h"
#include "support/json.h"
#include "support/jsonl.h"

namespace rumor {

namespace {

std::string error_record(const std::string& id, const std::string& what) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_error")
      .field("id", id)
      .field("error", what)
      .end_object();
  return os.str();
}

std::string reject_record(const std::string& id, const AdmissionGate::Stats& gate) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_reject")
      .field("id", id)
      .field("error", "server at capacity; retry later")
      .field("jobs_active", gate.active)
      .field("jobs_waiting", gate.waiting)
      .end_object();
  return os.str();
}

std::string cell_record(const std::string& id, const ResolvedCell& cell, bool hit,
                        const std::string& fingerprint) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_cell")
      .field("id", id)
      .field("cache", hit ? "hit" : "miss")
      .field("cell", cell.label)
      .field("key", cell.key)
      .field("fingerprint", fingerprint)
      .end_object();
  return os.str();
}

std::string done_record(const std::string& id, std::size_t cells, std::uint64_t hits,
                        std::uint64_t misses) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_done")
      .field("id", id)
      .field("cells", static_cast<std::uint64_t>(cells))
      .field("hits", hits)
      .field("misses", misses)
      .end_object();
  return os.str();
}

std::string shutdown_record(const std::string& id) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_shutdown")
      .field("id", id)
      .end_object();
  return os.str();
}

std::string fingerprint_record(const ReproManifest& manifest,
                               const std::string& sha256) {
  std::ostringstream os;
  emit_fingerprint_json(os, manifest, sha256);
  std::string line = os.str();
  line.pop_back();  // emit_* terminate the line; the sink frames it
  return line;
}

}  // namespace

ServeServer::ServeServer(const Options& options)
    : options_(options),
      cache_(options.cache_bytes),
      gate_(options.max_active_jobs, options.max_waiting_jobs) {
  DG_REQUIRE(::pipe(stop_pipe_) == 0, "rumor_serve: cannot create shutdown pipe");
}

ServeServer::~ServeServer() {
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
}

void ServeServer::request_stop() {
  stopping_.store(true);
  const char byte = 's';
  // A full pipe just means a wake-up is already pending.
  (void)::write(stop_pipe_[1], &byte, 1);
}

std::shared_ptr<const CachedCell> ServeServer::run_and_cache(const ResolvedCell& cell) {
  CachedCell out;
  RecordHasher hasher;
  std::ostringstream buffer;
  const TrialSink sink = [&](const ExperimentResult& partial, int trial,
                             const SpreadResult& r) {
    buffer.str("");
    emit_trial_json(buffer, partial, trial, r);
    std::string text = buffer.str();
    text.pop_back();  // emit_* terminate the line; cached lines are bare
    hasher.add(text);
    out.trial_lines.push_back(std::move(text));
  };
  const ExperimentResult result = run_experiment(cell.config, sink);
  buffer.str("");
  emit_summary_json(buffer, result, options_.build_info);
  out.summary_line = buffer.str();
  out.summary_line.pop_back();
  out.fingerprint = hasher.finish();
  return cache_.insert(cell.key, std::move(out));
}

std::string ServeServer::stats_record(const std::string& id) const {
  const CacheStats cache = cache_.stats();
  const AdmissionGate::Stats gate = gate_.stats();
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object()
      .field("record", "serve_stats")
      .field("id", id)
      .field("cache_hits", cache.hits)
      .field("cache_misses", cache.misses)
      .field("cache_insertions", cache.insertions)
      .field("cache_evictions", cache.evictions)
      .field("cache_entries", static_cast<std::uint64_t>(cache_.entries()))
      .field("cache_bytes", static_cast<std::uint64_t>(cache_.bytes()))
      .field("jobs_active", gate.active)
      .field("jobs_waiting", gate.waiting)
      .field("jobs_admitted", gate.admitted)
      .field("jobs_rejected", gate.rejected)
      .end_object();
  return os.str();
}

ServeServer::RequestOutcome ServeServer::handle_request_line(const std::string& line,
                                                             const LineSink& sink) {
  ServeRequest request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    std::string id;
    jsonl_get_string(line, "id", &id);  // salvage the id when there is one
    return sink(error_record(id, e.what())) ? RequestOutcome::served
                                            : RequestOutcome::client_lost;
  }

  try {
    if (request.cmd == "stats") {
      return sink(stats_record(request.id)) ? RequestOutcome::served
                                            : RequestOutcome::client_lost;
    }
    if (request.cmd == "shutdown") {
      sink(shutdown_record(request.id));
      return RequestOutcome::shutdown;
    }
    const bool fingerprints = request.cmd == "fingerprint";
    if (request.cmd != "run" && request.cmd != "bounds" && request.cmd != "sweep" &&
        !fingerprints) {
      throw std::invalid_argument(
          "bad request: unknown cmd '" + request.cmd +
          "' (run | bounds | sweep | fingerprint | stats | shutdown)");
    }
    const std::vector<ResolvedCell> cells =
        resolve_request_cells(request, options_.limits);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    bool client_ok = true;
    // One admission ticket covers every miss in the request; an all-hit
    // request never takes one — cache hits are reads, not jobs.
    std::optional<AdmissionGate::Ticket> ticket;
    for (const ResolvedCell& cell : cells) {
      std::shared_ptr<const CachedCell> cached = cache_.find(cell.key);
      const bool hit = cached != nullptr;
      if (hit) {
        ++hits;
      } else {
        if (!ticket.has_value()) {
          ticket = gate_.admit();
          if (!ticket.has_value()) {
            return sink(reject_record(request.id, gate_.stats()))
                       ? RequestOutcome::served
                       : RequestOutcome::client_lost;
          }
        }
        cached = run_and_cache(cell);
        ++misses;
      }
      client_ok = sink(cell_record(request.id, cell, hit, cached->fingerprint));
      if (client_ok) {
        if (fingerprints) {
          client_ok = sink(fingerprint_record(cell.manifest, cached->fingerprint));
        } else {
          for (const std::string& trial_line : cached->trial_lines) {
            client_ok = sink(trial_line);
            if (!client_ok) break;
          }
          if (client_ok) client_ok = sink(cached->summary_line);
        }
      }
      // Dead client: the cell just computed is cached for the next asker;
      // running the rest of its grid would be work nobody reads.
      if (!client_ok) return RequestOutcome::client_lost;
    }
    return sink(done_record(request.id, cells.size(), hits, misses))
               ? RequestOutcome::served
               : RequestOutcome::client_lost;
  } catch (const std::exception& e) {
    return sink(error_record(request.id, e.what())) ? RequestOutcome::served
                                                    : RequestOutcome::client_lost;
  }
}

void ServeServer::serve_connection(Socket& socket) {
  LineReader reader(socket.fd());
  const LineSink sink = [&socket](const std::string& line) {
    return socket.write_all(line + "\n");
  };
  std::vector<std::string> lines;
  bool open = true;
  while (open) {
    lines.clear();
    bool more = false;
    try {
      more = reader.drain(lines);
    } catch (const std::length_error& e) {
      sink(error_record("", std::string("bad request: ") + e.what()));
      break;  // the rest of that line cannot be framed; drop the connection
    } catch (const std::exception&) {
      break;  // read error (e.g. reset) — client load, not a server fault
    }
    for (const std::string& line : lines) {
      if (line.empty()) continue;
      const RequestOutcome outcome = handle_request_line(line, sink);
      if (outcome == RequestOutcome::shutdown) {
        request_stop();
        open = false;
        break;
      }
      if (outcome == RequestOutcome::client_lost) {
        open = false;
        break;
      }
    }
    if (!more) break;  // EOF: client closed (or shutdown half-closed us)
  }
  socket.shutdown_both();
}

int ServeServer::serve(const std::string& socket_path, std::ostream& log) {
  UnixListener listener(socket_path);
  log << "rumor_serve: listening on " << socket_path << std::endl;
  while (!stopping_.load()) {
    Socket client = listener.accept_next(stop_pipe_[0]);
    if (!client.valid()) break;  // woken by request_stop()
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.socket = std::move(client);
    Socket* socket = &conn.socket;  // std::list: stable for the thread's life
    conn.thread = std::thread([this, socket] { serve_connection(*socket); });
  }
  {
    // Wake every reader blocked on its socket, then join all of them — the
    // "no leaked workers" half of the clean-shutdown contract.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (Connection& conn : conns_) conn.socket.shutdown_both();
  }
  for (Connection& conn : conns_) conn.thread.join();
  const CacheStats cache = cache_.stats();
  const AdmissionGate::Stats gate = gate_.stats();
  log << "rumor_serve: shut down cleanly (connections=" << conns_.size()
      << " cache_hits=" << cache.hits << " cache_misses=" << cache.misses
      << " rejected=" << gate.rejected << ")" << std::endl;
  return 0;
}

}  // namespace rumor
