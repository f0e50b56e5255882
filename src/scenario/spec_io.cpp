#include "scenario/spec_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"

namespace rss::scenario::spec {

namespace {

// --- error helpers --------------------------------------------------------

[[noreturn]] void fail(SpecError::Code code, const std::string& field, int line,
                       const std::string& msg) {
  std::string what = "spec";
  if (!field.empty()) what += ": " + field;
  if (line > 0) what += " (line " + std::to_string(line) + ")";
  what += ": " + msg;
  throw SpecError(code, field, line, what);
}

/// A value's place in the document, as a chain of stack frames (one per
/// object key or array index), so the dotted path "links[2].a_dev.rate" is
/// only built when an error reports it.
struct Where {
  static constexpr std::size_t kKey = static_cast<std::size_t>(-1);
  const Where* parent{nullptr};
  std::string_view key{};     ///< object key; a whole path when parent is null
  std::size_t index{kKey};    ///< array index, when not kKey

  [[nodiscard]] Where operator/(std::string_view k) const { return {this, k}; }
  [[nodiscard]] Where operator[](std::size_t i) const { return {this, {}, i}; }

  [[nodiscard]] std::string path() const {
    std::string p = parent ? parent->path() : std::string{};
    if (index != kKey) return p + "[" + std::to_string(index) + "]";
    if (!p.empty() && !key.empty()) p += '.';
    return p += key;
  }
};

[[noreturn]] void fail(SpecError::Code code, const Where& at, int line, const std::string& msg) {
  fail(code, at.path(), line, msg);
}

// --- checked scalar readers -----------------------------------------------

double double_of(const JsonValue& v, const Where& at) {
  if (v.type != JsonValue::Type::kNumber)
    fail(SpecError::Code::kWrongType, at, v.line, "expected a number");
  return std::strtod(v.number.c_str(), nullptr);
}

constexpr std::int64_t kNoMin = std::numeric_limits<std::int64_t>::min();

/// An integer of type T, no less than `min`. A fraction, an exponent, or a
/// value outside that range is kBadValue, never a silent wrap.
template <typename T>
T int_of(const JsonValue& v, const Where& at, std::int64_t min = kNoMin) {
  constexpr bool kSigned = std::is_signed_v<T>;
  if (v.type != JsonValue::Type::kNumber)
    fail(SpecError::Code::kWrongType, at, v.line, "expected a number");
  if (v.number.find_first_of(kSigned ? ".eE" : ".eE-") != std::string::npos)
    fail(SpecError::Code::kBadValue, at, v.line,
         std::string{kSigned ? "expected an integer" : "expected a non-negative integer"} +
             ", got '" + v.number + "'");
  errno = 0;
  char* end = nullptr;
  const auto x = [&] {
    if constexpr (kSigned) return std::strtoll(v.number.c_str(), &end, 10);
    else return std::strtoull(v.number.c_str(), &end, 10);
  }();
  const std::int64_t lo = std::max<std::int64_t>(min, std::numeric_limits<T>::min());
  if (errno == ERANGE || end != v.number.c_str() + v.number.size() || std::cmp_less(x, lo) ||
      !std::in_range<T>(x))
    fail(SpecError::Code::kBadValue, at, v.line,
         "integer out of range: '" + v.number + "' (expected " + std::to_string(lo) + " to " +
             std::to_string(std::numeric_limits<T>::max()) + ")");
  return static_cast<T>(x);
}

bool bool_of(const JsonValue& v, const Where& at) {
  if (v.type != JsonValue::Type::kBool)
    fail(SpecError::Code::kWrongType, at, v.line, "expected true or false");
  return v.boolean;
}

const std::string& string_of(const JsonValue& v, const Where& at) {
  if (v.type != JsonValue::Type::kString)
    fail(SpecError::Code::kWrongType, at, v.line, "expected a string");
  return v.string;
}

}  // namespace

// --- JsonValue ------------------------------------------------------------

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.type = Type::kBool;
  j.boolean = v;
  return j;
}

JsonValue JsonValue::make_number(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(double v) {
  // Ten digits keep hand-written values as written ("0.002", not
  // "0.0020000000000000000416"); seventeen always read back exactly.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  if (std::strtod(buf, nullptr) != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number_literal(std::string literal) {
  JsonValue j;
  j.type = Type::kNumber;
  j.number = std::move(literal);
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.type = Type::kString;
  j.string = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.type = Type::kArray;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.type = Type::kObject;
  return j;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  if (type != Type::kObject) return nullptr;
  for (auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (JsonValue* existing = find(key)) {
    *existing = std::move(value);
    return;
  }
  object.emplace_back(std::string{key}, std::move(value));
}

double JsonValue::as_double(const std::string& field) const {
  return double_of(*this, {nullptr, field});
}

std::uint64_t JsonValue::as_u64(const std::string& field) const {
  return int_of<std::uint64_t>(*this, {nullptr, field});
}

std::int64_t JsonValue::as_i64(const std::string& field) const {
  return int_of<std::int64_t>(*this, {nullptr, field});
}

bool JsonValue::as_bool(const std::string& field) const { return bool_of(*this, {nullptr, field}); }

const std::string& JsonValue::as_string(const std::string& field) const {
  return string_of(*this, {nullptr, field});
}

// --- JSON parser ----------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size())
      fail(SpecError::Code::kSyntax, "", line_, "trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void syntax(const std::string& msg) {
    fail(SpecError::Code::kSyntax, "", line_, msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) syntax("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      syntax(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) syntax("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue::make_null();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        syntax(std::string{"unexpected character '"} + c + "'");
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue obj = JsonValue::make_object();
    obj.line = line_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    std::set<std::string> keys;
    while (true) {
      skip_ws();
      if (peek() != '"') syntax("expected a quoted object key");
      const int key_line = line_;
      std::string key = parse_string_text();
      if (!keys.insert(key).second)
        fail(SpecError::Code::kSyntax, "", key_line, "duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      syntax("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue arr = JsonValue::make_array();
    arr.line = line_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      syntax("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string_value() {
    const int at = line_;
    JsonValue v = JsonValue::make_string(parse_string_text());
    v.line = at;
    return v;
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) syntax("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') syntax("unescaped newline in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) syntax("unterminated escape sequence");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: syntax(std::string{"invalid escape '\\"} + c + "'");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) syntax("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else syntax("invalid hex digit in \\u escape");
    }
    // UTF-8 encode the BMP code point (surrogate pairs are out of scope for
    // topology names; reject them explicitly).
    if (code >= 0xD800 && code <= 0xDFFF) syntax("surrogate \\u escapes are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_bool() {
    if (text_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      JsonValue v = JsonValue::make_bool(true);
      v.line = line_;
      return v;
    }
    parse_literal("false");
    JsonValue v = JsonValue::make_bool(false);
    v.line = line_;
    return v;
  }

  void parse_literal(std::string_view word) {
    if (!text_.substr(pos_).starts_with(word))
      syntax("invalid literal (expected " + std::string{word} + ")");
    pos_ += word.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const int at = line_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      syntax("malformed number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      syntax("malformed number (leading zeros are not allowed)");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required after '.')");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required in exponent)");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    JsonValue v = JsonValue::make_number_literal(std::string{text_.substr(start, pos_ - start)});
    v.line = at;
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
  int line_{1};
};

}  // namespace

JsonValue json_parse(std::string_view text) { return JsonParser{text}.parse_document(); }

// --- JSON serializer ------------------------------------------------------

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

[[nodiscard]] bool is_scalar_array(const JsonValue& v) {
  for (const auto& e : v.array)
    if (e.type == JsonValue::Type::kArray || e.type == JsonValue::Type::kObject) return false;
  return true;
}

void serialize_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      out += v.number;
      return;
    case JsonValue::Type::kString:
      append_quoted(out, v.string);
      return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      // Scalar-only arrays render inline; nested ones get a line per element.
      if (is_scalar_array(v)) {
        out.push_back('[');
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          if (i) out += ", ";
          serialize_value(out, v.array[i], indent);
        }
        out.push_back(']');
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad_in;
        serialize_value(out, v.array[i], indent + 1);
        if (i + 1 < v.array.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad_in;
        append_quoted(out, v.object[i].first);
        out += ": ";
        serialize_value(out, v.object[i].second, indent + 1);
        if (i + 1 < v.object.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "}";
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(out, value, 0);
  out.push_back('\n');
  return out;
}

// --- unit-tagged scalars --------------------------------------------------

namespace {

/// One unit suffix and its size in the base unit (ns for times, bps for
/// rates); the same table parses and formats.
struct Unit {
  std::string_view suffix;
  std::int64_t scale;
};
constexpr Unit kTimeUnits[] = {{"ns", 1}, {"us", 1'000}, {"ms", 1'000'000}, {"s", 1'000'000'000}};
constexpr Unit kRateUnits[] = {
    {"bps", 1}, {"kbps", 1'000}, {"mbps", 1'000'000}, {"gbps", 1'000'000'000}};

/// "<number><unit>" in base units, rounded to the nearest. The numeric part
/// is held to a strict `digits[.digits]` grammar (no sign, whitespace, hex,
/// or exponent — strtod alone would accept all of those), matching the
/// strictness of the JSON layer. Throws kBadValue on a malformed number, an
/// unknown unit, or a result outside [lo, hi].
double in_base_units(const std::string& text, const Where& at, std::span<const Unit> units,
                     std::string_view kind, double lo, double hi) {
  std::size_t i = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
  const std::size_t int_digits = i;
  if (i < text.size() && text[i] == '.') {
    ++i;
    const std::size_t frac_start = i;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i == frac_start)
      fail(SpecError::Code::kBadValue, at, 0, "malformed value '" + text + "'");
  }
  const double v = std::strtod(text.substr(0, i).c_str(), nullptr);
  if (int_digits == 0 || !std::isfinite(v))
    fail(SpecError::Code::kBadValue, at, 0, "malformed value '" + text + "'");
  for (const Unit& unit : units) {
    if (unit.suffix != std::string_view{text}.substr(i)) continue;
    const double x = v * static_cast<double>(unit.scale);
    if (x < lo || x > hi)
      fail(SpecError::Code::kBadValue, at, 0, std::string{kind} + " '" + text + "' out of range");
    return x + 0.5;
  }
  std::string expected;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u > 0) expected += u + 1 < units.size() ? ", " : ", or ";
    expected += units[u].suffix;
  }
  fail(SpecError::Code::kBadValue, at, 0,
       "bad " + std::string{kind} + " unit in '" + text + "' (expected " + expected + ")");
}

/// `count` base units in the largest unit that divides it exactly.
template <typename N>
std::string with_unit(N count, std::span<const Unit> units) {
  std::size_t u = units.size() - 1;
  while (u > 0 && count % static_cast<N>(units[u].scale) != 0) --u;
  return std::to_string(count / static_cast<N>(units[u].scale)) + std::string{units[u].suffix};
}

sim::Time time_of(const std::string& text, const Where& at) {
  const double ns = in_base_units(text, at, kTimeUnits, "time", 0, 9.2e18);
  return sim::Time::nanoseconds(static_cast<std::int64_t>(ns));
}

net::DataRate rate_of(const std::string& text, const Where& at) {
  const double bps = in_base_units(text, at, kRateUnits, "rate", 1, 1.8e19);
  return net::DataRate::bps(static_cast<std::uint64_t>(bps));
}

}  // namespace

sim::Time parse_time(const std::string& text, const std::string& field) {
  return time_of(text, {nullptr, field});
}

std::string format_time(sim::Time t) { return with_unit(t.nanoseconds_count(), kTimeUnits); }

net::DataRate parse_rate(const std::string& text, const std::string& field) {
  return rate_of(text, {nullptr, field});
}

std::string format_rate(net::DataRate rate) {
  const std::uint64_t bps = rate.bits_per_second();
  return bps == 0 ? "0bps" : with_unit(bps, kRateUnits);
}

// --- the schema -----------------------------------------------------------
//
// Each spec struct has one Schema<S> specialization whose `fields` list is
// its whole file format: JSON name, member, and emission order. The
// member's type picks how a value is read and written: a unit-tagged time
// or rate, a number, an integer within its type's range (and an optional
// minimum), a bool, a string, an enum by name (Schema<E>::names), an
// optional, an array, or a nested struct with its own schema.
// read_object walks an object's keys once against the list; write_object
// emits each field unless it equals the value-initialised struct's, so the
// struct's member initialisers stay the only place a default is written.
// Rules that are not per-field live beside the list, in Schema<S>::check
// (after reading) and Schema<S>::trim (after writing).

namespace {

template <typename S>
struct Schema;

enum class Presence : std::uint8_t {
  kOptional,  ///< may be absent; emitted only when it differs from the default
  kRequired,  ///< must be present; always emitted
  kEmitted,   ///< may be absent; always emitted
};

template <typename S>
struct Field {
  std::string_view name;
  void (*read)(S& s, const JsonValue& v, const Where& at, std::int64_t min);
  /// Appends the member to `out` as `name`, unless it equals `*def`'s
  /// (`def` is null when the field is always emitted). Null: never emitted.
  void (*write)(const S& s, const S* def, JsonValue& out, std::string_view name) = nullptr;
  Presence presence = Presence::kOptional;
  std::int64_t min = kNoMin;  ///< lower bound of an integer member
};

template <typename E>
struct EnumName {
  std::string_view name;
  E value;
};

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

template <typename S>
void read_object(S& s, const JsonValue& v, const Where& at);
template <typename S>
JsonValue write_object(const S& s);

template <typename E>
E enum_of(const JsonValue& v, const Where& at) {
  const std::string& text = string_of(v, at);
  std::string expected;
  for (const auto& [name, value] : Schema<E>::names) {
    if (name == text) return value;
    expected += (expected.empty() ? "\"" : ", \"") + std::string{name} + "\"";
  }
  fail(SpecError::Code::kBadValue, at, v.line,
       "unknown " + std::string{at.key} + " '" + text + "' (expected one of " + expected + ")");
}

template <typename T>
void read_value(T& out, const JsonValue& v, const Where& at, std::int64_t min) {
  if constexpr (std::is_same_v<T, sim::Time>) {
    out = time_of(string_of(v, at), at);
  } else if constexpr (std::is_same_v<T, net::DataRate>) {
    out = rate_of(string_of(v, at), at);
  } else if constexpr (std::is_same_v<T, double>) {
    out = double_of(v, at);
  } else if constexpr (std::is_same_v<T, bool>) {
    out = bool_of(v, at);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = string_of(v, at);
  } else if constexpr (std::is_same_v<T, JsonValue>) {
    out = v;
  } else if constexpr (std::is_integral_v<T>) {
    out = int_of<T>(v, at, min);
  } else if constexpr (std::is_enum_v<T>) {
    out = enum_of<T>(v, at);
  } else if constexpr (kIsOptional<T>) {
    read_value(out.emplace(), v, at, min);
  } else if constexpr (kIsVector<T>) {
    if (!v.is_array()) fail(SpecError::Code::kWrongType, at, v.line, "expected an array");
    out.reserve(v.array.size());
    for (std::size_t i = 0; i < v.array.size(); ++i)
      read_value(out.emplace_back(), v.array[i], at[i], min);
  } else {
    read_object(out, v, at);
  }
}

template <typename T>
JsonValue to_json(const T& x) {
  if constexpr (std::is_same_v<T, sim::Time>) {
    return JsonValue::make_string(format_time(x));
  } else if constexpr (std::is_same_v<T, net::DataRate>) {
    return JsonValue::make_string(format_rate(x));
  } else if constexpr (std::is_same_v<T, double>) {
    return JsonValue::make_number(x);
  } else if constexpr (std::is_same_v<T, bool>) {
    return JsonValue::make_bool(x);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return JsonValue::make_string(x);
  } else if constexpr (std::is_same_v<T, JsonValue>) {
    return x;
  } else if constexpr (std::is_integral_v<T>) {
    using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>;
    return JsonValue::make_number(static_cast<Wide>(x));
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& [name, value] : Schema<T>::names)
      if (value == x) return JsonValue::make_string(std::string{name});
    return JsonValue::make_null();
  } else if constexpr (kIsOptional<T>) {
    return x ? to_json(*x) : JsonValue::make_null();
  } else if constexpr (kIsVector<T>) {
    JsonValue array = JsonValue::make_array();
    for (const auto& e : x) array.array.push_back(to_json(e));
    return array;
  } else {
    return write_object(x);
  }
}

// `Path` is one member pointer, or a chain of them into nested members.
template <typename S, auto... Path>
void read_member(S& s, const JsonValue& v, const Where& at, std::int64_t min) {
  read_value((s .* ... .* Path), v, at, min);
}

template <typename S, auto... Path>
void write_member(const S& s, const S* def, JsonValue& out, std::string_view name) {
  const auto& x = (s .* ... .* Path);
  using T = std::remove_cvref_t<decltype(x)>;
  if constexpr (kIsVector<T>) {
    if (def && x.empty()) return;
  } else if constexpr (requires { Schema<T>::fields; }) {
    // A nested block is elided when none of its own fields is emitted.
    JsonValue block = write_object(x);
    if (!def || !block.object.empty()) out.object.emplace_back(name, std::move(block));
    return;
  } else {
    if (def && x == (*def .* ... .* Path)) return;
  }
  out.object.emplace_back(name, to_json(x));
}

template <typename S, auto... Path>
constexpr Field<S> field(std::string_view name, Presence presence = Presence::kOptional,
                         std::int64_t min = kNoMin) {
  return {name, &read_member<S, Path...>, &write_member<S, Path...>, presence, min};
}

template <typename S>
void read_object(S& s, const JsonValue& v, const Where& at) {
  if (!v.is_object()) fail(SpecError::Code::kWrongType, at, v.line, "expected an object");
  constexpr auto& fields = Schema<S>::fields;
  constexpr std::size_t n = std::size(fields);
  static_assert(n <= 32, "one presence bit per field");
  std::uint32_t seen = 0;
  for (const auto& [key, value] : v.object) {
    std::size_t i = 0;
    while (i < n && fields[i].name != key) ++i;
    if (i == n)
      fail(SpecError::Code::kUnknownField, at / key, value.line, "unknown field \"" + key + "\"");
    seen |= std::uint32_t{1} << i;
    fields[i].read(s, value, at / fields[i].name, fields[i].min);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (fields[i].presence == Presence::kRequired && !(seen >> i & 1))
      fail(SpecError::Code::kMissingField, at / fields[i].name, v.line, "missing required field");
  }
  if constexpr (requires { Schema<S>::check(s, v, at); }) Schema<S>::check(s, v, at);
}

template <typename S>
JsonValue write_object(const S& s) {
  const S def{};
  JsonValue out = JsonValue::make_object();
  for (const Field<S>& f : Schema<S>::fields) {
    if (f.write) f.write(s, f.presence == Presence::kOptional ? &def : nullptr, out, f.name);
  }
  if constexpr (requires { Schema<S>::trim(s, out); }) Schema<S>::trim(s, out);
  return out;
}

/// A value the field's type admits but its consumer's constructor rejects.
/// `key` may be absent (a default that conflicts with a given sibling);
/// the error then points at the enclosing object.
[[noreturn]] void bad_field(const JsonValue& v, const Where& at, std::string_view key,
                            const std::string& msg) {
  const JsonValue* x = v.find(key);
  fail(SpecError::Code::kBadValue, at / key, x ? x->line : v.line, msg);
}

void erase_key(JsonValue& object, std::string_view key) {
  std::erase_if(object.object, [key](const auto& member) { return member.first == key; });
}

/// The queue-backend keys are gone, not unknown: name the replacement so an
/// old spec fails with a fix instead of a bare unknown-field error.
template <typename S>
void removed_backend(S& /*s*/, const JsonValue& v, const Where& at, std::int64_t /*min*/) {
  fail(SpecError::Code::kUnknownField, at, v.line,
       "the \"backend\" key was removed: the binary heap is the only event queue; "
       "delete this key");
}

// --- the field lists ------------------------------------------------------

template <>
struct Schema<QueueDiscipline> {
  using enum QueueDiscipline;
  static constexpr EnumName<QueueDiscipline> names[] = {
      {"droptail", kDropTail}, {"red", kRed}, {"codel", kCodel}};
};

template <>
struct Schema<TrafficModel> {
  using enum TrafficModel;
  static constexpr EnumName<TrafficModel> names[] = {{"packet", kPacket}, {"fluid", kFluid}};
};

template <>
struct Schema<PartitionStrategy> {
  using enum PartitionStrategy;
  static constexpr EnumName<PartitionStrategy> names[] = {{"auto", kAuto}, {"block", kBlock}};
};

template <>
struct Schema<SweepSpec::Mode> {
  using enum SweepSpec::Mode;
  static constexpr EnumName<SweepSpec::Mode> names[] = {{"grid", kGrid}, {"zip", kZip}};
};

template <>
struct Schema<net::RedQueue::Options> {
  using S = net::RedQueue::Options;
  static constexpr Field<S> fields[] = {
      field<S, &S::min_threshold>("min_threshold"),
      field<S, &S::max_threshold>("max_threshold"),
      field<S, &S::max_drop_probability>("max_drop_probability"),
      field<S, &S::queue_weight>("queue_weight"),
  };
  static void check(const S& r, const JsonValue& v, const Where& at) {
    if (!(r.min_threshold < r.max_threshold))
      bad_field(v, at, v.find("min_threshold") ? "min_threshold" : "max_threshold",
                "min_threshold must be < max_threshold");
    if (r.queue_weight <= 0.0 || r.queue_weight > 1.0)
      bad_field(v, at, "queue_weight", "queue_weight must be in (0, 1]");
  }
};

template <>
struct Schema<net::CodelQueue::Options> {
  using S = net::CodelQueue::Options;
  static constexpr Field<S> fields[] = {
      field<S, &S::target>("target"),
      field<S, &S::interval>("interval"),
  };
  static void check(const S& c, const JsonValue& v, const Where& at) {
    if (c.target <= sim::Time::zero()) bad_field(v, at, "target", "target must be > 0");
    if (c.interval <= sim::Time::zero()) bad_field(v, at, "interval", "interval must be > 0");
  }
};

template <>
struct Schema<DeviceSpec> {
  using S = DeviceSpec;
  static constexpr Field<S> fields[] = {
      field<S, &S::rate>("rate"),
      field<S, &S::ifq_packets>("ifq_packets", Presence::kOptional, 1),
      field<S, &S::qdisc>("qdisc"),
      field<S, &S::red>("red"),
      field<S, &S::codel>("codel"),
      field<S, &S::ecn_threshold>("ecn_threshold"),
      field<S, &S::name>("name"),
  };
  /// Option blocks that only their own qdisc honours.
  static constexpr EnumName<QueueDiscipline> qdisc_blocks[] = {
      {"red", QueueDiscipline::kRed}, {"codel", QueueDiscipline::kCodel}};

  static void check(const S& d, const JsonValue& v, const Where& at) {
    for (const auto& [key, qdisc] : qdisc_blocks) {
      const JsonValue* x = d.qdisc == qdisc ? nullptr : v.find(key);
      if (x)
        fail(SpecError::Code::kBadValue, at / key, x->line,
             std::string{key} + " options require \"qdisc\": \"" + std::string{key} + "\"");
    }
  }
  static void trim(const S& d, JsonValue& out) {
    for (const auto& [key, qdisc] : qdisc_blocks)
      if (d.qdisc != qdisc) erase_key(out, key);
  }
};

template <>
struct Schema<LinkSpec> {
  using S = LinkSpec;
  static constexpr Field<S> fields[] = {
      field<S, &S::a>("a", Presence::kRequired),
      field<S, &S::b>("b", Presence::kRequired),
      field<S, &S::delay>("delay", Presence::kEmitted),
      field<S, &S::a_dev>("a_dev"),
      field<S, &S::b_dev>("b_dev"),
  };
};

template <>
struct Schema<tcp::RttEstimator::Options> {
  using S = tcp::RttEstimator::Options;
  static constexpr Field<S> fields[] = {
      field<S, &S::initial_rto>("initial_rto"),
      field<S, &S::min_rto>("min_rto"),
      field<S, &S::max_rto>("max_rto"),
      field<S, &S::alpha>("alpha"),
      field<S, &S::beta>("beta"),
      field<S, &S::k>("k"),
  };
};

template <>
struct Schema<tcp::TcpSender::Options> {
  using S = tcp::TcpSender::Options;
  static constexpr Field<S> fields[] = {
      field<S, &S::mss>("mss", Presence::kOptional, 1),
      field<S, &S::initial_seq>("initial_seq"),
      field<S, &S::rwnd_limit_bytes>("rwnd_limit_bytes"),
      field<S, &S::stall_retry_delay>("stall_retry_delay"),
      field<S, &S::enable_sack>("enable_sack"),
      field<S, &S::cwnd_validation>("cwnd_validation"),
      field<S, &S::trace_cwnd>("trace_cwnd"),
      field<S, &S::trace_stalls>("trace_stalls"),
      field<S, &S::rtt>("rtt"),
  };
};

template <>
struct Schema<tcp::TcpReceiver::Options> {
  using S = tcp::TcpReceiver::Options;
  static constexpr Field<S> fields[] = {
      field<S, &S::initial_seq>("initial_seq"),
      field<S, &S::advertised_window>("advertised_window"),
      field<S, &S::ack_every>("ack_every", Presence::kOptional, 1),
      field<S, &S::delayed_ack_timeout>("delayed_ack_timeout"),
      field<S, &S::enable_sack>("enable_sack"),
      field<S, &S::quickack_segments>("quickack_segments"),
  };
};

template <>
struct Schema<net::FluidOptions> {
  using S = net::FluidOptions;
  static constexpr Field<S> fields[] = {
      field<S, &S::initial_rate>("initial_rate"),
      field<S, &S::peak_rate>("peak_rate"),
      field<S, &S::stride>("stride"),
      field<S, &S::packet_bytes>("packet_bytes", Presence::kOptional, 1),
      field<S, &S::rtt>("rtt"),
      field<S, &S::decrease>("decrease"),
  };
  static void check(const S& o, const JsonValue& v, const Where& at) {
    if (o.stride <= sim::Time::zero()) bad_field(v, at, "stride", "stride must be > 0");
    if (o.decrease <= 0.0 || o.decrease >= 1.0)
      bad_field(v, at, "decrease", "decrease factor must be in (0, 1)");
  }
};

/// A flow's `web100` object: its presence attaches the poller.
struct Web100Block {
  sim::Time poll{FlowSpec{}.web100_poll_period};
};

template <>
struct Schema<Web100Block> {
  using S = Web100Block;
  static constexpr Field<S> fields[] = {field<S, &S::poll>("poll")};
};

/// A flow as the file spells it: the FlowSpec plus its congestion-control
/// variant, which ScenarioSpec keeps beside the flow in flow_cc.
struct FlowEntry : FlowSpec {
  std::string cc{"reno"};  ///< a placeholder, never consulted, on fluid flows
};

void read_web100(FlowEntry& f, const JsonValue& v, const Where& at, std::int64_t /*min*/) {
  Web100Block block;
  read_object(block, v, at);
  f.web100 = true;
  f.web100_poll_period = block.poll;
}

void write_web100(const FlowEntry& f, const FlowEntry* /*def*/, JsonValue& out,
                  std::string_view name) {
  if (f.web100) out.object.emplace_back(name, write_object(Web100Block{f.web100_poll_period}));
}

template <>
struct Schema<FlowEntry> {
  using S = FlowEntry;
  static constexpr Field<S> fields[] = {
      field<S, &S::src>("src", Presence::kRequired),
      field<S, &S::dst>("dst", Presence::kRequired),
      field<S, &S::flow_id>("id"),
      field<S, &S::start>("start"),
      field<S, &S::model>("model"),
      field<S, &S::fluid>("fluid"),
      field<S, &S::cc>("cc", Presence::kEmitted),
      field<S, &S::ecn>("ecn"),
      field<S, &S::sender>("sender"),
      field<S, &S::receiver>("receiver"),
      Field<S>{"web100", &read_web100, &write_web100},
  };
  /// A fluid aggregate has no TCP machinery: these are rejected on it
  /// outright instead of silently ignored.
  static constexpr std::string_view packet_only[] = {"cc", "ecn", "sender", "receiver", "web100"};

  static void check(const S& f, const JsonValue& v, const Where& at) {
    if (f.model == TrafficModel::kFluid) {
      for (const std::string_view key : packet_only) {
        if (const JsonValue* x = v.find(key))
          fail(SpecError::Code::kBadValue, at / key, x->line,
               "\"" + std::string{key} +
                   "\" is packet-only; a fluid flow takes its dynamics from \"fluid\"");
      }
      return;
    }
    if (const JsonValue* x = v.find("fluid"))
      fail(SpecError::Code::kBadValue, at / "fluid", x->line,
           "fluid options require \"model\": \"fluid\"");
    if (const JsonValue* x = v.find("cc")) {
      try {
        (void)factory_by_name(f.cc);
      } catch (const std::invalid_argument&) {
        std::string known;
        for (const auto& n : variant_names()) known += (known.empty() ? "" : ", ") + n;
        fail(SpecError::Code::kBadValue, at / "cc", x->line,
             "unknown congestion-control variant '" + f.cc + "' (known: " + known + ")");
      }
    }
  }
  static void trim(const S& f, JsonValue& out) {
    if (f.model != TrafficModel::kFluid) return erase_key(out, "fluid");
    for (const std::string_view key : packet_only) erase_key(out, key);
  }
};

template <>
struct Schema<ExecutionPolicy> {
  using S = ExecutionPolicy;
  static constexpr Field<S> fields[] = {
      Field<S>{"backend", &removed_backend<S>},
      field<S, &S::partitions>("partitions", Presence::kOptional, 1),
      field<S, &S::strategy>("strategy"),
      field<S, &S::threads>("threads"),
  };
};

template <>
struct Schema<RunSpec> {
  using S = RunSpec;
  static constexpr Field<S> fields[] = {
      field<S, &S::duration>("duration"),
      field<S, &S::measure_start>("measure_start"),
  };
};

template <>
struct Schema<SweepAxis> {
  using S = SweepAxis;
  static constexpr Field<S> fields[] = {
      field<S, &S::field>("field", Presence::kRequired),
      field<S, &S::values>("values", Presence::kRequired),
  };
  static void check(const S& axis, const JsonValue& v, const Where& at) {
    if (axis.values.empty())
      fail(SpecError::Code::kBadSweep, at / "values", v.find("values")->line,
           "sweep axis has no values");
    for (const JsonValue& value : axis.values) {
      if (value.is_array() || value.is_object())
        fail(SpecError::Code::kBadSweep, at / "values", value.line, "sweep values must be scalars");
    }
  }
};

template <>
struct Schema<SweepSpec> {
  using S = SweepSpec;
  static constexpr Field<S> fields[] = {
      field<S, &S::mode>("mode"),
      field<S, &S::axes>("axes", Presence::kRequired),
  };
  static void check(const S& sweep, const JsonValue& v, const Where& at) {
    if (sweep.mode != SweepSpec::Mode::kZip) return;
    for (const auto& axis : sweep.axes) {
      const std::size_t len = sweep.axes.front().values.size();
      if (axis.values.size() != len)
        fail(SpecError::Code::kBadSweep, at / "axes", v.line,
             "zip sweep axes must have equal lengths (axis '" + sweep.axes.front().field +
                 "' has " + std::to_string(len) + ", axis '" + axis.field + "' has " +
                 std::to_string(axis.values.size()) + ")");
    }
  }
};

/// `flows` pairs each FlowSpec with its flow_cc entry.
void read_flows(ScenarioSpec& s, const JsonValue& v, const Where& at, std::int64_t min) {
  std::vector<FlowEntry> flows;
  read_value(flows, v, at, min);
  for (FlowEntry& f : flows) {
    s.flow_cc.push_back(f.cc);
    s.topology.flows.push_back(std::move(f));
  }
}

void write_flows(const ScenarioSpec& s, const ScenarioSpec* /*def*/, JsonValue& out,
                 std::string_view name) {
  if (s.topology.flows.empty()) return;
  JsonValue flows = JsonValue::make_array();
  for (std::size_t i = 0; i < s.topology.flows.size(); ++i) {
    FlowEntry f{s.topology.flows[i]};
    if (i < s.flow_cc.size()) f.cc = s.flow_cc[i];
    flows.array.push_back(write_object(f));
  }
  out.object.emplace_back(name, std::move(flows));
}

template <>
struct Schema<ScenarioSpec> {
  using S = ScenarioSpec;
  using T = TopologySpec;
  static constexpr Field<S> fields[] = {
      field<S, &S::name>("name"),
      field<S, &S::topology, &T::seed>("seed"),
      Field<S>{"backend", &removed_backend<S>},
      field<S, &S::topology, &T::execution>("execution"),
      field<S, &S::topology, &T::nodes>("nodes", Presence::kRequired),
      field<S, &S::topology, &T::links>("links"),
      Field<S>{"flows", &read_flows, &write_flows},
      field<S, &S::run>("run"),
      field<S, &S::sweep>("sweep"),
  };
  static void trim(const S& s, JsonValue& out) {
    if (s.sweep.empty()) erase_key(out, "sweep");
  }
};

}  // namespace

// --- ScenarioSpec parse/serialize -----------------------------------------

std::size_t SweepSpec::point_count() const {
  if (axes.empty()) return 1;
  if (mode == Mode::kZip) return axes.front().values.size();
  std::size_t count = 1;
  for (const auto& axis : axes) count *= axis.values.size();
  return count;
}

ScenarioSpec parse_scenario_spec(const JsonValue& document) {
  ScenarioSpec s;
  read_object(s, document, {});
  return s;
}

ScenarioSpec parse_scenario_spec(std::string_view json_text) {
  return parse_scenario_spec(json_parse(json_text));
}

std::string read_spec_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  return parse_scenario_spec(read_spec_file(path));
}

void check_scenario_spec(const ScenarioSpec& spec) { (void)checked_routes(spec.topology); }

JsonValue scenario_spec_to_json(const ScenarioSpec& spec) { return write_object(spec); }

std::string serialize_scenario_spec(const ScenarioSpec& spec) {
  return json_serialize(scenario_spec_to_json(spec));
}

// --- sweep expansion ------------------------------------------------------

namespace {

/// One "name[3][0]"-style path segment.
struct PathSegment {
  std::string key;
  std::vector<std::size_t> indices;
};

[[nodiscard]] std::vector<PathSegment> parse_field_path(const std::string& path) {
  std::vector<PathSegment> segments;
  std::size_t i = 0;
  while (i < path.size()) {
    PathSegment seg;
    while (i < path.size() && path[i] != '.' && path[i] != '[') seg.key.push_back(path[i++]);
    if (seg.key.empty())
      fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    while (i < path.size() && path[i] == '[') {
      ++i;
      std::string digits;
      while (i < path.size() && std::isdigit(static_cast<unsigned char>(path[i])))
        digits.push_back(path[i++]);
      if (digits.empty() || i >= path.size() || path[i] != ']')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      ++i;  // ']'
      seg.indices.push_back(static_cast<std::size_t>(std::stoull(digits)));
    }
    segments.push_back(std::move(seg));
    if (i < path.size()) {
      if (path[i] != '.')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      ++i;
      if (i == path.size())
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    }
  }
  if (segments.empty())
    fail(SpecError::Code::kBadSweep, path, 0, "empty sweep field path");
  return segments;
}

/// Write `value` at `path` inside `document`. Every intermediate segment
/// must already exist; the final segment may create a new object key (so an
/// axis can sweep a field the base spec leaves at its default), but array
/// indices always have to resolve.
void set_at_path(JsonValue& document, const std::string& path, const JsonValue& value) {
  const auto segments = parse_field_path(path);
  JsonValue* at = &document;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const PathSegment& seg = segments[s];
    const bool last = s + 1 == segments.size();
    JsonValue* next = at->find(seg.key);
    if (!next) {
      if (!at->is_object())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (no object at '" + seg.key + "')");
      if (last && seg.indices.empty()) {
        at->set(seg.key, value);
        return;
      }
      fail(SpecError::Code::kBadSweep, path, 0,
           "sweep path does not resolve (missing field '" + seg.key + "')");
    }
    at = next;
    for (const std::size_t index : seg.indices) {
      if (!at->is_array() || index >= at->array.size())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (bad index " + std::to_string(index) + " under '" +
                 seg.key + "')");
      at = &at->array[index];
    }
  }
  *at = value;
}

/// Render an axis value for table/label use: numbers and booleans as their
/// literal, strings unquoted.
[[nodiscard]] std::string scalar_text(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kString:
      return v.string;
    case JsonValue::Type::kNumber:
      return v.number;
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "null";
  }
}

}  // namespace

std::vector<SweepPoint> expand_scenario_spec(const JsonValue& document) {
  if (document.type != JsonValue::Type::kObject)
    fail(SpecError::Code::kWrongType, "", document.line, "expected a JSON object");

  const JsonValue* sweep_json = document.find("sweep");
  if (!sweep_json) {
    SweepPoint point;
    point.spec = parse_scenario_spec(document);
    return {std::move(point)};
  }
  SweepSpec sweep;
  read_object(sweep, *sweep_json, Where{} / "sweep");

  // The base document: everything except the sweep block.
  JsonValue base = JsonValue::make_object();
  base.line = document.line;
  for (const auto& [key, value] : document.object)
    if (key != "sweep") base.object.emplace_back(key, value);

  const std::size_t points = sweep.point_count();
  std::vector<SweepPoint> expanded;
  expanded.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    // Map the flat point index to one index per axis: zip advances all axes
    // together; grid runs the last axis fastest (odometer order).
    std::vector<std::size_t> select(sweep.axes.size(), p);
    if (sweep.mode == SweepSpec::Mode::kGrid) {
      std::size_t rem = p;
      for (std::size_t a = sweep.axes.size(); a-- > 0;) {
        select[a] = rem % sweep.axes[a].values.size();
        rem /= sweep.axes[a].values.size();
      }
    }
    JsonValue point_doc = base;
    SweepPoint point;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      const JsonValue& value = sweep.axes[a].values[select[a]];
      set_at_path(point_doc, sweep.axes[a].field, value);
      point.assignment.emplace_back(sweep.axes[a].field, scalar_text(value));
    }
    point.spec = parse_scenario_spec(point_doc);
    expanded.push_back(std::move(point));
  }
  return expanded;
}

std::vector<SweepPoint> expand_scenario_spec(std::string_view json_text) {
  return expand_scenario_spec(json_parse(json_text));
}

}  // namespace rss::scenario::spec
