#include "report.h"

#include <fstream>

#include "support/json.h"
#include "support/resource.h"

namespace perfbench {

void Report::write_json(std::ostream& os) const {
  rumor::JsonWriter json(os);
  json.begin_object().field("record", "perfbench");
  json.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  json.end_object();
  json.key("notes").begin_object();
  for (const auto& [key, text] : notes) json.field(key, text);
  json.end_object();
  json.key("cells").begin_array();
  for (const CellRecord& c : cells) {
    json.begin_object().field("scenario", c.scenario);
    json.key("params").begin_object();
    for (const auto& [name, value] : c.params) json.field(name, value);
    json.end_object();
    json.field("clock_rate", c.clock_rate)
        .field("trials", c.trials)
        .field("seed", c.seed)
        .field("sha256", c.sha256)
        .end_object();
  }
  json.end_array();
  json.key("failures").begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array();
  json.field("attempted", attempted).field("failed", failed).end_object();
  os << '\n';
}

std::pair<std::string, double> tail_percentile(const rumor::SampleSet& samples) {
  const std::pair<const char*, double> levels[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p50", 0.50}};
  const double count = static_cast<double>(samples.count());
  for (const auto& [label, q] : levels) {
    if ((1.0 - q) * count >= 10.0) return {label, samples.quantile(q)};
  }
  return {"", 0.0};
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM (Linux >= 4.0); harmless where unsupported
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return static_cast<double>(rumor::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
