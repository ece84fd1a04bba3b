// rumor_serve — the persistent simulation service over the scenario registry.
//
// Subcommands:
//   serve    run the daemon: bind a unix socket, answer JSON-lines requests
//            (run | bounds | sweep | fingerprint | stats | shutdown), cache
//            completed cells by their reproducibility manifest so a repeated
//            query is answered from memory, byte-identical, without
//            re-simulating
//   client   send request lines (operands, or stdin when none) to a running
//            daemon and print every response record to stdout
//
// Requests use the rumor_cli field spellings as flat JSON, e.g.
//   {"id":"q1","cmd":"run","scenario":"dynamic_star","n":64,"trials":5}
// Execution topology (threads/chunk) is fixed by the daemon's
// own flags and rejected inside requests — clients ask for experiments, not
// placements, which is what keeps the manifest-keyed cache dense. Responses
// are the same record streams rumor_cli emits, bracketed by serve_* records;
// docs/SERVICE.md documents the full schema and cache-key semantics.
//
//   $ rumor_serve serve --socket /tmp/rumor.sock &
//   $ rumor_serve client --socket /tmp/rumor.sock
//         '{"id":"q1","cmd":"run","scenario":"dynamic_star","n":64,"trials":5}'
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "support/cli.h"
#include "support/jsonl.h"
#include "support/socket.h"

#include "rumor_build_info.h"  // generated at build time; see tools/CMakeLists.txt

namespace rumor {
namespace {

ServeServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();  // async-signal-safe
}

int usage(std::ostream& os, int code) {
  os << "usage: rumor_serve <subcommand> [options]\n\n"
        "subcommands:\n"
        "  serve     run the daemon in the foreground until SIGINT/SIGTERM or a\n"
        "            shutdown request:\n"
        "            --socket PATH   unix socket to bind (required; keep it short,\n"
        "                            sockaddr_un paths are ~100 bytes)\n"
        "            --jobs N        simulating requests running at once (default 1)\n"
        "            --queue N       requests allowed to wait for a job slot before\n"
        "                            new work is rejected (default 4)\n"
        "            --threads T     TrialPool threads per running job (default 1;\n"
        "                            part of the served manifests' topology)\n"
        "            --cache-mb M    result-cache budget in MiB (default 64)\n"
        "            --max-trials N  per-cell trial ceiling (default 100000)\n"
        "            --max-cells N   grid-cell ceiling per request (default 256)\n"
        "  client    send each operand (or each stdin line when no operands) as one\n"
        "            request and print the response records:\n"
        "            --socket PATH   daemon socket to connect to (required)\n"
        "            exits 0 when every request was served, 3 on any serve_error,\n"
        "            4 on any serve_reject\n"
        "\n"
        "request schema and cache-key semantics: docs/SERVICE.md\n";
  return code;
}

int cmd_serve(const Cli& cli) {
  const std::string socket_path = cli.get("socket", "");
  if (socket_path.empty()) {
    std::cerr << "rumor_serve: serve requires --socket PATH\n";
    return 2;
  }
  ServeServer::Options options;
  options.max_active_jobs = static_cast<int>(cli.get_int("jobs", 1));
  options.max_waiting_jobs = static_cast<int>(cli.get_int("queue", 4));
  options.limits.job_threads = static_cast<int>(cli.get_int("threads", 1));
  options.limits.max_trials = static_cast<int>(cli.get_int("max-trials", 100000));
  options.limits.max_cells = static_cast<int>(cli.get_int("max-cells", 256));
  options.cache_bytes =
      static_cast<std::size_t>(cli.get_int("cache-mb", 64)) << 20;
  options.build_info = kRumorBuildInfo;

  ServeServer server(options);
  g_server = &server;
  struct sigaction action = {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  const int code = server.serve(socket_path, std::cerr);
  g_server = nullptr;
  return code;
}

// Response records that end one request's response stream.
bool is_terminal_record(const std::string& line, std::string* kind) {
  if (!jsonl_get_string(line, "record", kind)) return false;
  return *kind == "serve_done" || *kind == "serve_error" ||
         *kind == "serve_reject" || *kind == "serve_stats" ||
         *kind == "serve_shutdown";
}

int cmd_client(const Cli& cli) {
  const std::string socket_path = cli.get("socket", "");
  if (socket_path.empty()) {
    std::cerr << "rumor_serve: client requires --socket PATH\n";
    return 2;
  }
  std::vector<std::string> requests = cli.positionals();
  if (requests.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
  }
  if (requests.empty()) {
    std::cerr << "rumor_serve: client needs request operands or stdin lines\n";
    return 2;
  }

  Socket socket = connect_unix(socket_path);
  LineReader reader(socket.fd());
  bool saw_error = false;
  bool saw_reject = false;
  std::vector<std::string> lines;
  for (const std::string& request : requests) {
    if (!socket.write_all(request + "\n")) {
      std::cerr << "rumor_serve: daemon closed the connection\n";
      return 1;
    }
    bool done = false;
    while (!done) {
      lines.clear();
      const bool more = reader.drain(lines);
      for (const std::string& line : lines) {
        std::cout << line << "\n";
        std::string kind;
        if (is_terminal_record(line, &kind)) {
          saw_error = saw_error || kind == "serve_error";
          saw_reject = saw_reject || kind == "serve_reject";
          done = true;
        }
      }
      if (!more && !done) {
        std::cerr << "rumor_serve: daemon closed the connection mid-response\n";
        return 1;
      }
    }
  }
  std::cout.flush();
  if (saw_error) return 3;
  if (saw_reject) return 4;
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string subcommand = argv[1];
  if (subcommand == "help" || subcommand == "--help") return usage(std::cout, 0);
  const bool takes_operands = subcommand == "client";
  const Cli cli(argc - 1, argv + 1, takes_operands);
  if (subcommand == "serve") return cmd_serve(cli);
  if (subcommand == "client") return cmd_client(cli);
  std::cerr << "unknown subcommand '" << subcommand << "'\n\n";
  return usage(std::cerr, 2);
}

}  // namespace
}  // namespace rumor

int main(int argc, char** argv) {
  try {
    return rumor::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rumor_serve: " << e.what() << "\n";
    return 2;
  }
}
