#include "support/jsonl.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace rumor {

bool LineReader::drain(std::vector<std::string>& out) {
  if (eof_) return false;
  char buf[65536];
  ssize_t got;
  do {
    got = read(fd_, buf, sizeof(buf));
  } while (got < 0 && errno == EINTR);
  if (got < 0) throw std::system_error(errno, std::generic_category(), "read");
  if (got == 0) {
    eof_ = true;
    return false;
  }
  std::size_t start = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(got); ++i) {
    if (buf[i] == '\n') {
      partial_.append(buf + start, i - start);
      out.push_back(std::move(partial_));
      partial_.clear();
      start = i + 1;
    }
  }
  partial_.append(buf + start, static_cast<std::size_t>(got) - start);
  if (partial_.size() > kMaxLineBytes) {
    throw std::length_error("line exceeds the " + std::to_string(kMaxLineBytes) +
                            "-byte limit without a newline");
  }
  return true;
}

namespace {

// At most the first 40 bytes of `text`, quoted, for error messages.
std::string excerpt(std::string_view text) {
  std::string out = "'";
  out.append(text.substr(0, 40)).append(text.size() > 40 ? "...'" : "'");
  return out;
}

[[noreturn]] void malformed(std::size_t at, const std::string& what) {
  throw std::invalid_argument("invalid JSON at byte " + std::to_string(at) + ": " + what);
}

[[noreturn]] void wrong_value(std::string_view name, const char* expected, std::string_view text) {
  throw std::invalid_argument("field '" + std::string(name) + "' expects " + expected +
                              ", got " + excerpt(text));
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// A byte a number or a literal may contain.
bool is_token_byte(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         c == '.' || c == '+' || c == '-';
}

// RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and nothing else.
bool is_json_number(std::string_view s) {
  std::size_t i = 0;
  const auto skip = [&](char a, char b) {  // the next byte, if it is a or b
    const bool hit = i < s.size() && (s[i] == a || s[i] == b);
    if (hit) ++i;
    return hit;
  };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  skip('-', '-');
  if (!skip('0', '0') && !digits()) return false;
  if (skip('.', '.') && !digits()) return false;
  if (skip('e', 'E')) {
    skip('+', '-');
    if (!digits()) return false;
  }
  return i == s.size();
}

unsigned hex4(std::string_view text, std::size_t at) {
  const std::string_view digits = text.substr(std::min(at, text.size()), 4);
  unsigned code = 0;
  const char* end = digits.data() + digits.size();
  if (digits.size() != 4 || std::from_chars(digits.data(), end, code, 16).ptr != end) {
    malformed(at - 2, "\\u needs four hex digits");
  }
  return code;
}

void append_utf8(std::string& out, unsigned code) {
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out.push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out.push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
  }
}

// Checks the string whose opening quote is text[at], appends its decoded bytes
// to *out when given, and returns the index past its closing quote.
std::size_t scan_string(std::string_view text, std::size_t at, std::string* out) {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt", kDecoded = "\"\\/\b\f\n\r\t";
  for (std::size_t i = at + 1;;) {
    const std::size_t run = i;
    while (i < text.size() && text[i] != '"' && text[i] != '\\' &&
           static_cast<unsigned char>(text[i]) >= 0x20) {
      ++i;
    }
    if (out != nullptr) out->append(text.substr(run, i - run));
    if (i >= text.size()) malformed(at, "unterminated string");
    if (text[i] == '"') return i + 1;
    if (text[i] != '\\') malformed(i, "unescaped control character in a string");
    const std::size_t escape = i;
    const char kind = i + 1 < text.size() ? text[i + 1] : '\0';
    const std::size_t simple = kEscapes.find(kind);
    i += 2;
    unsigned code = 0;
    if (simple != kEscapes.npos) {
      code = static_cast<unsigned char>(kDecoded[simple]);
    } else if (kind == 'u') {
      code = hex4(text, i);
      i += 4;
      const bool high = code >= 0xD800 && code < 0xDC00;
      const unsigned low = high && text.substr(i, 2) == "\\u" ? hex4(text, i + 2) : 0;
      if (low >= 0xDC00 && low < 0xE000) {
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        i += 6;
      }
      if (code >= 0xD800 && code < 0xE000) malformed(escape, "lone surrogate");
    } else {
      malformed(escape, "invalid escape " + excerpt(text.substr(escape, 2)));
    }
    if (out != nullptr) append_utf8(*out, code);
  }
}

std::string decoded(std::string_view quoted) {
  std::string out;
  scan_string(quoted, 0, &out);
  return out;
}

// Recursive-descent check of one text, collecting the fields of the object it
// starts with.
struct Parser {
  std::string_view text;
  std::vector<std::unique_ptr<std::string>>& escaped_keys;
  std::size_t at = 0;

  char peek() {  // the next byte after whitespace, which must exist
    while (at < text.size() && is_space(text[at])) ++at;
    if (at >= text.size()) malformed(at, "unexpected end of text");
    return text[at];
  }

  // An object, collecting its fields, or (with no `fields`) an array.
  void container(int depth, std::vector<JsonField>* fields) {
    const std::size_t begin = at++;
    const char close = fields != nullptr ? '}' : ']';
    if (depth > kMaxJsonDepth) {
      malformed(begin, "nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    }
    if (peek() == close) {
      ++at;
      return;
    }
    for (char next = ','; next == ','; ++at) {
      std::string_view key;
      if (fields != nullptr) {
        if (peek() != '"') malformed(at, "expected a quoted key");
        const std::size_t key_at = at;
        at = scan_string(text, at, nullptr);
        key = text.substr(key_at + 1, at - key_at - 2);
        if (key.find('\\') != key.npos) {
          escaped_keys.push_back(std::make_unique<std::string>());
          scan_string(text, key_at, escaped_keys.back().get());
          key = *escaped_keys.back();
        }
        if (peek() != ':') malformed(at, "expected ':' after a key");
        ++at;
      }
      const std::size_t value_at = value(depth);
      if (fields != nullptr) fields->push_back({key, text.substr(value_at, at - value_at)});
      next = peek();
      if (next != ',' && next != close) {
        malformed(at, std::string("expected ',' or '") + close + "'");
      }
    }
    if (fields != nullptr) reject_duplicate_keys(*fields, begin);
  }

  // Checks one value; returns the index it starts at.
  std::size_t value(int depth) {
    const char c = peek();
    const std::size_t begin = at;
    if (c == '{' || c == '[') {
      std::vector<JsonField> nested;
      container(depth + 1, c == '{' ? &nested : nullptr);
    } else if (c == '"') {
      at = scan_string(text, at, nullptr);
    } else {  // a number or a literal: the run of characters either may use
      while (at < text.size() && is_token_byte(text[at])) ++at;
      // At least one byte, so that an unexpected character is named.
      const std::string_view token = text.substr(begin, std::max(at - begin, std::size_t{1}));
      if (token != "true" && token != "false" && token != "null" && !is_json_number(token)) {
        const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.';
        malformed(begin, (numeric ? "malformed number " : "unexpected value ") + excerpt(token));
      }
    }
    return begin;
  }

  // Sorted by length, then bytes, so repeats meet: n log n even for a hostile
  // line of many keys, and mostly length compares for the keys of a record.
  static void reject_duplicate_keys(const std::vector<JsonField>& fields, std::size_t begin) {
    std::vector<std::string_view> keys;
    keys.reserve(fields.size());
    for (const JsonField& field : fields) keys.push_back(field.key);
    std::sort(keys.begin(), keys.end(), [](std::string_view a, std::string_view b) {
      return a.size() != b.size() ? a.size() < b.size() : a < b;
    });
    const auto twice = std::adjacent_find(keys.begin(), keys.end());
    if (twice != keys.end()) {
      malformed(begin, "duplicate key " + excerpt(*twice) + " appears twice in one object");
    }
  }
};

}  // namespace

template <typename T>
T json_scalar(std::string_view text, std::string_view name) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "true" && text != "false") wrong_value(name, "true or false", text);
    return text == "true";
  } else if constexpr (std::is_same_v<T, double>) {
    // strtod, not from_chars: libc++ lacks the double overload. Both round
    // correctly, so a recorded double reads back bit for bit.
    const double value =
        is_json_number(text) ? std::strtod(std::string(text).c_str(), nullptr) : NAN;
    if (!std::isfinite(value)) wrong_value(name, "a finite number", text);
    return value;
  } else {
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (!is_json_number(text) || error != std::errc() || stop != end) {
      wrong_value(name, std::is_signed_v<T> ? "an int64 integer" : "a uint64 integer", text);
    }
    return value;
  }
}
template bool json_scalar(std::string_view, std::string_view);
template double json_scalar(std::string_view, std::string_view);
template std::int64_t json_scalar(std::string_view, std::string_view);
template std::uint64_t json_scalar(std::string_view, std::string_view);

std::string json_spelling(const JsonField& field) {
  const char first = field.text.front();
  if (first == '{' || first == '[') wrong_value(field.key, "a scalar", field.text);
  return first == '"' ? decoded(field.text) : std::string(field.text);
}

JsonObject::JsonObject(std::string_view text) {
  fields_.reserve(16);
  Parser parser{text, escaped_keys_};
  if (parser.peek() != '{') malformed(parser.at, "expected '{' (a record is one JSON object)");
  parser.container(1, &fields_);
  if (text.find_first_not_of(" \t\n\r", parser.at) != text.npos) {
    malformed(parser.at, "bytes after the closing brace");
  }
}

const JsonField* JsonObject::find(std::string_view key) const {
  for (const JsonField& field : fields_) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

std::string JsonObject::string_value(const JsonField& field) {
  if (field.text.front() != '"') wrong_value(field.key, "a string", field.text);
  return decoded(field.text);
}

JsonObject JsonObject::object_value(const JsonField& field) {
  if (field.text.front() != '{') wrong_value(field.key, "an object", field.text);
  return JsonObject(field.text);
}

bool jsonl_get_bool(const std::string& line, const std::string& key, bool* out) {
  try {
    return JsonObject(line).get(key, out);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

bool jsonl_get_string(const std::string& line, const std::string& key, std::string* out) {
  try {
    return JsonObject(line).get(key, out);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace rumor
