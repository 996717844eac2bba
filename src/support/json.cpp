#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <system_error>

namespace conflux::json {

void write_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

void write_number(std::ostream& os, long long v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, res.ptr - buf);
}

void Writer::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back().has_items) os_ << ", ";
    stack_.back().has_items = true;
  }
}

void Writer::begin_object() {
  pre_value();
  os_ << "{";
  stack_.push_back({/*array=*/false, /*has_items=*/false});
}

void Writer::end_object() {
  os_ << "}";
  stack_.pop_back();
}

void Writer::begin_array() {
  pre_value();
  os_ << "[";
  stack_.push_back({/*array=*/true, /*has_items=*/false});
}

void Writer::end_array() {
  os_ << "]";
  stack_.pop_back();
}

void Writer::key(std::string_view k) {
  if (!stack_.empty()) {
    if (stack_.back().has_items) os_ << ", ";
    stack_.back().has_items = true;
  }
  os_ << '"';
  write_escaped(os_, k);
  os_ << "\": ";
  after_key_ = true;
}

void Writer::value(std::string_view s) {
  pre_value();
  os_ << '"';
  write_escaped(os_, s);
  os_ << '"';
}

void Writer::value(double v) {
  pre_value();
  write_number(os_, v);
}

void Writer::value(long long v) {
  pre_value();
  write_number(os_, v);
}

void Writer::value(unsigned long long v) {
  pre_value();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  os_.write(buf, res.ptr - buf);
}

void Writer::value(bool b) {
  pre_value();
  os_ << (b ? "true" : "false");
}

void Writer::null() {
  pre_value();
  os_ << "null";
}

void Writer::raw(std::string_view json_text) {
  pre_value();
  os_ << json_text;
}

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view; every parse_* returns false
/// on malformed input and leaves the error to parse().
class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool document(Value* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool eat(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }
  bool eat_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool digit() const { return pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9'; }
  void skip_ws() {
    while (at(' ') || at('\n') || at('\t') || at('\r')) ++pos_;
  }

  bool value(Value* out, int depth) {
    if (depth > kMaxDepth || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out->kind = Value::Kind::kString;
        return string(&out->string);
      case 't':
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        return eat_literal("true");
      case 'f':
        out->kind = Value::Kind::kBool;
        return eat_literal("false");
      case 'n': return eat_literal("null");
      default: return number(out);
    }
  }

  bool object(Value* out, int depth) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      std::string key;
      skip_ws();
      if (!string(&key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      Value v;
      if (!value(&v, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array(Value* out, int depth) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      Value v;
      if (!value(&v, depth + 1)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  /// Four hex digits of a \u escape.
  bool hex4(unsigned* cp) {
    if (pos_ + 4 > s_.size()) return false;
    *cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      unsigned d;
      if (c >= '0' && c <= '9') {
        d = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
      *cp = *cp * 16 + d;
    }
    return true;
  }

  static void append_utf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool string(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      switch (s_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xDC00 && cp <= 0xDFFF) return false;  // lone low surrogate
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned lo = 0;
            if (!eat('\\') || !eat('u') || !hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
              return false;  // a high surrogate must pair with a low one
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, then from_chars.
  bool number(Value* out) {
    const std::size_t start = pos_;
    eat('-');
    if (eat('0')) {
      if (digit()) return false;  // leading zero
    } else {
      if (!digit()) return false;
      while (digit()) ++pos_;
    }
    if (eat('.')) {
      if (!digit()) return false;
      while (digit()) ++pos_;
    }
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digit()) return false;
      while (digit()) ++pos_;
    }
    const auto res = std::from_chars(s_.data() + start, s_.data() + pos_, out->number);
    if (res.ec != std::errc() || res.ptr != s_.data() + pos_) return false;
    out->kind = Value::Kind::kNumber;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) {
  Value v;
  if (!Parser(text).document(&v)) return std::nullopt;
  return v;
}

}  // namespace conflux::json
