#include "support/cli.h"

#include "support/contracts.h"
#include "support/jsonl.h"

namespace rumor {

Cli::Cli(int argc, char** argv, bool allow_positionals) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 && allow_positionals) {
      positionals_.push_back(arg);
      continue;
    }
    DG_REQUIRE(arg.rfind("--", 0) == 0, "options must start with --: " + arg);
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return json_scalar<std::int64_t>(it->second, "--" + name);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return json_scalar<double>(it->second, "--" + name);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace rumor
