// Golden fingerprints: one SHA-256 per (scenario x engine x protocol) cell
// over its canonical per-trial record stream.
//
// The canonical stream is exactly the bytes `rumor_cli --json` emits for the
// cell's trial records, each line newline-terminated, in trial order. Because
// the determinism contract makes those bytes a pure function of (scenario,
// params, engine, protocol, seed, runner options) — invariant to threads,
// chunks, stdlib, and the delta-vs-rebuild rate paths — a 64-char
// fingerprint is a faithful stand-in for the full record dump, and
// tests/golden/fingerprints.json can pin whole suites across CI legs where
// shipping megabytes of records around would not scale
// (docs/ARCHITECTURE.md, "The reproducibility harness").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "support/sha256.h"

namespace rumor {

struct ReproManifest;

// Streaming hasher for the canonical record stream: add() each record line
// (without its trailing newline; the hasher supplies it) in trial order.
class RecordHasher {
 public:
  void add(const std::string& record_line) {
    hasher_.update(record_line);
    hasher_.update("\n", 1);
    ++records_;
  }

  int records() const { return records_; }

  // Finalizes: the fingerprint of everything added so far, resetting for the
  // next cell.
  std::string finish() {
    records_ = 0;
    return hasher_.hex_digest();
  }

 private:
  Sha256 hasher_;
  int records_ = 0;
};

// One-shot form over buffered record lines (e.g. a loaded recording's cell).
std::string fingerprint_records(const std::vector<std::string>& record_lines);

// One {"record":"fingerprint",...} JSON line for the cell `manifest` names:
// its scenario, params and identity runner columns (engine, protocol,
// trials, seed), then `sha256`. The execution topology is deliberately
// absent, which is what makes fingerprint tables from different thread
// counts directly diffable.
void emit_fingerprint_json(std::ostream& os, const ReproManifest& manifest,
                           const std::string& sha256);

}  // namespace rumor
