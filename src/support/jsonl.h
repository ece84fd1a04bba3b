// JSON-lines framing and field scanners.
//
// The repo's wire formats are newline-framed flat JSON records: rumor_serve
// requests and responses over a unix socket, and the recordings
// `rumor_cli replay` loads. LineReader turns the byte stream of a file
// descriptor into complete lines (keeping any unterminated tail as
// truncation evidence), and the jsonl_get_* scanners pull typed top-level
// fields out of one such line without a general JSON parser.
//
// The scanners are deliberately minimal: they assume a flat record whose
// string values contain no escapes — exactly what support/json.h's writer
// emits — and match keys by their quoted form, so a key name embedded in a
// string value could confuse them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rumor {

// Incremental line framing over a pipe/socket fd (not owned). Call drain()
// whenever the fd is readable (e.g. after poll); it performs one read() and
// appends every newly completed line (newline stripped) to `out`.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Returns false once the fd reached EOF (no further lines will come).
  // Throws std::runtime_error on a read error.
  bool drain(std::vector<std::string>& out);

  // Bytes received after the last newline; non-empty at EOF means the peer
  // died mid-record.
  const std::string& partial() const { return partial_; }

  bool eof() const { return eof_; }

 private:
  int fd_;
  bool eof_ = false;
  std::string partial_;
};

// Top-level field scanners for one flat JSON-lines record. Each returns true
// and fills *out when `key` is present with a value of the right shape.
bool jsonl_get_raw(const std::string& line, const std::string& key, std::string* out);
bool jsonl_get_int(const std::string& line, const std::string& key, std::int64_t* out);
bool jsonl_get_uint(const std::string& line, const std::string& key, std::uint64_t* out);
bool jsonl_get_double(const std::string& line, const std::string& key, double* out);
bool jsonl_get_bool(const std::string& line, const std::string& key, bool* out);
bool jsonl_get_string(const std::string& line, const std::string& key, std::string* out);

// Extracts the object value of `key` — braces balanced, string-aware — so the
// reproducibility layer can pull "manifest":{...} (and its nested
// "params":{...}) out of a summary record, then scan the extracted text with
// the flat accessors above. *out includes the surrounding braces.
bool jsonl_get_object(const std::string& line, const std::string& key, std::string* out);

// The key/value pairs of one flat JSON object ("{...}"), in source order —
// this is what preserves a recorded manifest's params in schema order.
// Values keep their raw spelling except strings, which lose their quotes.
// Returns false (leaving *out unspecified) on text that is not a flat object.
bool jsonl_object_items(const std::string& object,
                        std::vector<std::pair<std::string, std::string>>* out);

}  // namespace rumor
