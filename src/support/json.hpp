// Minimal streaming JSON writer shared by every emitter in the tree (the
// Chrome-trace exports, the bench BENCH_*.json records, the metrics
// snapshot). Before this existed each emitter hand-rolled its own `<<`
// chains with its own (inconsistent) string escaping and float formatting;
// this is the one place both are decided:
//
//   - strings: `"` `\\` and the C0 control characters are escaped per RFC
//     8259 (\n, \t, \r get the short forms, the rest \u00XX — the old
//     emitters silently DROPPED unknown control characters);
//   - numbers: shortest round-trip form via std::to_chars, so output is
//     locale-independent and re-parses to the identical double (the old
//     emitters inherited whatever precision the ostream happened to carry);
//   - non-finite doubles: JSON has no NaN/Infinity, so they are emitted as
//     null (benches gate on finiteness separately).
//
// The Writer tracks the open object/array nesting and inserts commas, so
// call sites only state structure:
//
//   json::Writer w(os);
//   w.begin_object();
//   w.key("algo"); w.value("conflux_lu");
//   w.key("cells"); w.begin_array();
//   ...
//   w.end_array();
//   w.end_object();
//
// The reader side is json::parse, the one strict parser in the tree
// (factor_schedule's committed-baseline reader and the trace-export tests
// use it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace conflux::json {

/// Escape `s` into `os` (no surrounding quotes).
void write_escaped(std::ostream& os, std::string_view s);

/// Shortest-round-trip number formatting (to_chars); "null" if non-finite.
void write_number(std::ostream& os, double v);
void write_number(std::ostream& os, long long v);

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object key; must be followed by exactly one value/begin_*.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(long long v);
  void value(int v) { value(static_cast<long long>(v)); }
  void value(unsigned long long v);
  void value(bool b);
  void null();

  /// key + value in one call.
  template <typename V>
  void field(std::string_view k, V v) {
    key(k);
    value(v);
  }

  /// Raw pass-through for pre-rendered JSON (used to splice sub-documents).
  void raw(std::string_view json_text);

 private:
  /// Comma/newline bookkeeping before emitting the next element.
  void pre_value();

  std::ostream& os_;
  struct Level {
    bool array = false;
    bool has_items = false;
  };
  std::vector<Level> stack_;
  bool after_key_ = false;
};

/// One parsed JSON value. Objects keep their members in document order
/// (duplicate keys included; get() returns the first).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is(Kind k) const { return kind == k; }
  /// Member `key` of an object, or nullptr (also when this is no object).
  const Value* get(std::string_view key) const;
};

/// Strict RFC 8259 parse of one whole document; nullopt on any error. It
/// rejects raw control characters in strings, bad escapes and unpaired
/// surrogates, numbers outside the JSON grammar (leading '+' or zeros, a
/// bare '.' or exponent) or outside double range, trailing garbage, and
/// nesting deeper than 256 levels. \u escapes decode to UTF-8, so
/// everything Writer emits parses back to what was written.
std::optional<Value> parse(std::string_view text);

}  // namespace conflux::json
