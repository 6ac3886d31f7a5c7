// Minimal JSON helpers shared by the trace exporter and the
// campaign/bench/forensics JSON artifacts: emission (JsonEscape /
// JsonStr / JsonNum) plus a small strict recursive-descent parser
// (JsonValue / ParseJson) used to round-trip every emitted artifact in
// tests and to read dossiers back.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace nlh::sim {

// Escapes a string for inclusion inside a JSON string literal (no quotes).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// "name" (quoted + escaped).
inline std::string JsonStr(const std::string& s) {
  return "\"" + JsonEscape(s) + "\"";
}

// Fixed-point double formatting (JSON forbids NaN/Inf; clamp to 0).
inline std::string JsonNum(double v, int decimals = 3) {
  if (v != v || v > 1e300 || v < -1e300) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// --- Parsing ----------------------------------------------------------------

// Parsed JSON document node. Objects keep field insertion order (emission
// order round-trips byte-stably through re-serialization in tests).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject

  bool IsNull() const { return type == Type::kNull; }
  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }

  // Object member lookup (first match); nullptr when absent or not an
  // object.
  const JsonValue* Find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  static constexpr int kMaxDepth = 200;

  void SkipWs() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // UTF-8 encode (surrogate pairs are not combined; our emitter
          // only produces \u00xx control-character escapes).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      SkipWs();
      if (!ParseValue(&item, depth + 1)) return false;
      out->items.push_back(std::move(item));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue val;
      if (!ParseValue(&val, depth + 1)) return false;
      out->fields.emplace_back(std::move(key), std::move(val));
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

// Strict parse of a complete JSON document (no trailing garbage). Returns
// false on any syntax error, leaving *out unspecified.
inline bool ParseJson(const std::string& text, JsonValue* out) {
  return detail::JsonParser(text).Parse(out);
}

// Canonical re-serialization: no whitespace, object fields in stored
// (insertion) order, integer-valued numbers printed without a decimal
// point. parse -> WriteJson is a fixed point for documents whose numbers
// are all integers (every fuzz verdict/reproducer artifact is emitted that
// way on purpose), which is what lets the corpus regression runner compare
// recorded and recomputed verdicts byte-for-byte.
inline std::string WriteJson(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Type::kNumber: {
      const double d = v.number;
      const long long i = static_cast<long long>(d);
      if (static_cast<double>(i) == d && d >= -9.0e15 && d <= 9.0e15) {
        return std::to_string(i);
      }
      return JsonNum(d, 6);
    }
    case JsonValue::Type::kString: return JsonStr(v.str);
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i) out += ",";
        out += WriteJson(v.items[i]);
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i) out += ",";
        out += JsonStr(v.fields[i].first) + ":" + WriteJson(v.fields[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace nlh::sim
