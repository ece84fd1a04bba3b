// JSON-lines framing and the one strict reader of JSON lines.
//
// rumor_serve requests and responses and the recordings rumor_cli replays are
// newline-framed JSON objects from outside the process. Every reader of them
// goes through JsonObject: the full JSON grammar, escapes decoded (\uXXXX
// pairs included), and a std::invalid_argument naming a duplicate key, bytes
// after the closing brace, nesting deeper than kMaxJsonDepth, a lone
// surrogate or a malformed number. Bytes >= 0x80 pass through unchecked.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rumor {

// Longest unterminated line LineReader buffers (the longest line in any
// checked-in recording is ~1.1 KB).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

// Deepest nesting JsonObject accepts; recordings reach 3 (record, manifest,
// params).
inline constexpr int kMaxJsonDepth = 16;

// Incremental line framing over a pipe/socket fd (not owned). Call drain()
// whenever the fd is readable (e.g. after poll); it performs one read() and
// appends every newly completed line (newline stripped) to `out`.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Returns false once the fd reached EOF (no further lines will come).
  // Throws std::runtime_error on a read error, and std::length_error once the
  // bytes after the last newline exceed kMaxLineBytes.
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

// One field of a parsed object. `text` views the parsed text, and so does
// `key` unless its spelling had escapes.
struct JsonField {
  std::string_view key;   // decoded
  std::string_view text;  // the value as written; a string keeps its quotes
};

// A whole scalar spelling as T: bool (true or false), or a JSON number that
// fits std::int64_t, std::uint64_t or a finite double. Throws
// std::invalid_argument naming `name` otherwise.
template <typename T>
T json_scalar(std::string_view text, std::string_view name);

// A scalar field's spelling: a string decoded, a number, true, false or null
// as written. Throws std::invalid_argument for an object or an array.
std::string json_spelling(const JsonField& field);

// One object (a whole line, or the text of a nested object) parsed into its
// top-level fields in source order. Nested values are checked as well; an
// object value is read by parsing its text again. The text must outlive the
// JsonObject.
class JsonObject {
 public:
  JsonObject() = default;
  explicit JsonObject(std::string_view text);  // throws std::invalid_argument

  const std::vector<JsonField>& fields() const { return fields_; }
  const JsonField* find(std::string_view key) const;  // nullptr when absent

  // Reads field `key` as T (a json_scalar type, std::string or JsonObject).
  // False when there is no such field; throws std::invalid_argument naming
  // the key when its value is of another type or does not fit T.
  template <typename T>
  bool get(std::string_view key, T* out) const {
    const JsonField* field = find(key);
    if (field == nullptr) return false;
    if constexpr (std::is_same_v<T, std::string>) {
      *out = string_value(*field);
    } else if constexpr (std::is_same_v<T, JsonObject>) {
      *out = object_value(*field);
    } else {
      *out = json_scalar<T>(field->text, field->key);
    }
    return true;
  }

 private:
  static std::string string_value(const JsonField& field);
  static JsonObject object_value(const JsonField& field);

  std::vector<JsonField> fields_;
  std::vector<std::unique_ptr<std::string>> escaped_keys_;  // decoded; keys view them
};

// One field of a JSON-lines record; false when the key is absent, the value
// has another type, or the line does not parse.
bool jsonl_get_bool(const std::string& line, const std::string& key, bool* out);
bool jsonl_get_string(const std::string& line, const std::string& key, std::string* out);

}  // namespace rumor
