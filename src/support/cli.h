// Minimal command-line option parser for the benches and examples.
//
// Options take the form --name=value or --name value. Unknown options raise a
// precondition failure so typos surface immediately. Every accessor supplies a
// default, keeping all binaries runnable with no arguments.
//
// Bare words are rejected by default; subcommands that take file operands
// (`rumor_cli replay RECORDED.json`) opt in with allow_positionals, and the
// collected words come back from positionals() in order. A bare word directly
// after `--flag` still binds to the flag as its value — put positionals
// first, as usage strings show.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rumor {

class Cli {
 public:
  Cli(int argc, char** argv, bool allow_positionals = false);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  // Numbers are whole tokens in json_scalar's grammar (support/jsonl.h), the
  // one the manifest and the serve protocol read: "3abc", "0.1x", "abc" and
  // an integer outside int64 are std::invalid_argument naming the option.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::string& program() const { return program_; }

  // All parsed options, for drivers that forward unrecognized names (e.g.
  // rumor_cli treating non-reserved options as scenario parameters).
  const std::map<std::string, std::string>& entries() const { return values_; }

  // Bare-word operands in argv order; always empty unless constructed with
  // allow_positionals.
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace rumor
