#include "repro/record_diff.h"

#include <stdexcept>

#include "support/jsonl.h"

namespace rumor {

namespace {

// The record's own trial index when it carries one (trial records do); the
// stream position otherwise.
int trial_index(const std::string& line, std::size_t position) {
  std::int64_t trial = -1;
  try {
    if (JsonObject(line).get("trial", &trial)) return static_cast<int>(trial);
  } catch (const std::invalid_argument&) {
  }
  return static_cast<int>(position);
}

// Labels one established byte divergence by walking both records' fields in
// order, comparing values as written. Reports whole lines when no field value
// differs or either side is not a JSON record (e.g. it was cut mid-line).
RecordDivergence label_divergence(const std::string& recorded,
                                  const std::string& replayed, std::size_t position) {
  RecordDivergence d;
  d.trial = trial_index(recorded, position);
  d.expected = recorded;
  d.actual = replayed;
  const std::string trial = "trial " + std::to_string(d.trial);
  try {
    const JsonObject rec(recorded), rep(replayed);
    const std::size_t common = std::min(rec.fields().size(), rep.fields().size());
    for (std::size_t i = 0; i < common; ++i) {
      const JsonField& a = rec.fields()[i];
      const JsonField& b = rep.fields()[i];
      if (a.key == b.key && a.text == b.text) continue;
      d.field = a.key;
      if (a.key != b.key) {
        d.expected = a.key;
        d.actual = b.key;
        d.message = trial + ": record structure diverged — field #" + std::to_string(i) +
                    " is '" + d.expected + "' in the recording but '" + d.actual +
                    "' in the replay";
      } else {
        d.expected = a.text;
        d.actual = b.text;
        d.message = trial + ": field '" + d.field + "' diverged (recorded " + d.expected +
                    ", replayed " + d.actual + ")";
      }
      return d;
    }
  } catch (const std::invalid_argument& e) {
    d.message = trial + ": record diverged and is not a JSON record on both sides (" +
                e.what() + "; recorded line: " + recorded + ")";
    return d;
  }
  // Same fields, same values, different bytes: whitespace/ordering damage.
  d.message = trial + ": record bytes diverged outside any field value "
                      "(formatting or field-count damage)";
  return d;
}

}  // namespace

RecordDivergence diff_records(const std::vector<std::string>& recorded,
                              const std::vector<std::string>& replayed) {
  const std::size_t common = std::min(recorded.size(), replayed.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (recorded[i] != replayed[i]) return label_divergence(recorded[i], replayed[i], i);
  }
  if (recorded.size() != replayed.size()) {
    RecordDivergence d;
    const bool missing = replayed.size() < recorded.size();
    const std::string& edge_line = missing ? recorded[common] : replayed[common];
    d.trial = trial_index(edge_line, common);
    d.field = "record_count";
    d.expected = std::to_string(recorded.size());
    d.actual = std::to_string(replayed.size());
    d.message = "replay produced " + d.actual + " records where the recording has " +
                d.expected + " (first " + (missing ? "missing" : "extra") +
                " record: trial " + std::to_string(d.trial) + ")";
    return d;
  }
  RecordDivergence d;
  d.identical = true;
  return d;
}

}  // namespace rumor
