// The rumor_serve request protocol: JSON-lines requests resolved through the
// scenario registry into cache-keyed experiment cells.
//
// A request is one flat JSON object per line, e.g.
//
//   {"id":"q1","cmd":"run","scenario":"dynamic_star","n":"64",
//    "trials":5,"seed":1}
//
// `cmd` selects the verb (run | bounds | sweep | fingerprint | stats |
// shutdown); grid axes and runner options use the rumor_cli spellings
// (scenarios, engines, protocols, sweep=name=v1,v2, trials, seed, failure,
// track_bounds, bound_c, bound_cap, clock_rate, time_limit, round_limit,
// source); every other field is a scenario parameter override. Values may be
// JSON numbers or strings — both arrive as the same spelling. Execution
// topology (threads, chunk, build, and the legacy multi-process fields
// shards, worker_cmd and backend) is the server's concern and is rejected by
// name: admitting it would let clients fragment the manifest-keyed cache with
// placement noise the records provably do not depend on. docs/SERVICE.md is
// the schema reference; the full field-by-field contract is asserted by
// tests/test_serve.cpp.
//
// Resolution is the same trust boundary replay uses: each cell's raw values
// are resolved against the scenario schema (ScenarioParams::resolve), spelled
// into a canonical ReproManifest, and pushed through repro/resolver.h's
// resolve_manifest — so a request that would not replay bit-for-bit is
// rejected with a named error before any trial runs, and the manifest that
// survives is exactly the cache identity (serve/cache.h).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "repro/manifest.h"
#include "scenarios/experiment.h"

namespace rumor {

struct ServeRequest {
  std::string id;   // echoed in every response record; may be empty
  std::string cmd;  // run | bounds | sweep | fingerprint | stats | shutdown
  // Every other field, in source order, values with string quotes stripped.
  std::vector<std::pair<std::string, std::string>> options;
};

// Parses one request line. Throws std::invalid_argument (naming the problem)
// on text that is not a flat JSON object, lacks `cmd`, or repeats a field.
ServeRequest parse_request(const std::string& line);

// Server-side resolution policy: the execution-topology and job-size budget
// every admitted cell is normalized to.
struct ServeLimits {
  int job_threads = 1;      // TrialPool threads per running job
  int max_trials = 100000;  // per cell; larger requests are rejected
  int max_cells = 256;      // grid cells per request; larger grids rejected
};

// One grid cell of a request, fully resolved: the experiment to run, the
// canonical manifest that identifies it, and the manifest's cache key.
struct ResolvedCell {
  ExperimentConfig config;
  ReproManifest manifest;
  std::string key;    // cache_key(manifest)
  std::string label;  // "scenario engine protocol [sweep=v]" for messages
};

// Expands the request's grid (scenario x engine x protocol x swept value)
// and resolves every cell as described above, normalizing the execution
// topology to `limits`. `bounds` requests force track_bounds on. Throws
// std::invalid_argument naming the offending field or cell on any invalid
// request; a valid return means every cell is runnable and cache-keyed.
std::vector<ResolvedCell> resolve_request_cells(const ServeRequest& request,
                                                const ServeLimits& limits);

}  // namespace rumor
