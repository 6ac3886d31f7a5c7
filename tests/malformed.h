// Mangled copies of a well-formed JSON input, built at test time for the
// malformed-input batteries (reproducer bundles, bench baselines): the
// committed files stay untouched.
#pragma once

#include <cstdio>
#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "sim/json.h"

namespace nlh::malformed {

struct Mangled {
  std::string what;  // "truncated to 40 bytes", "retyped .scenario.seed"
  std::string text;
};

// `count` prefixes of `text` short of its last non-blank byte, at lengths
// spread evenly up to it, plus the one that cuts just that byte.
inline std::vector<Mangled> Truncations(const std::string& text, int count) {
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  std::vector<Mangled> out;
  for (int i = 0; i < count; ++i) {
    const std::size_t n =
        end * static_cast<std::size_t>(i) / static_cast<std::size_t>(count);
    out.push_back({"truncated to " + std::to_string(n) + " bytes",
                   text.substr(0, n)});
  }
  out.push_back({"last byte cut", text.substr(0, end)});
  return out;
}

// A value of another JSON type than `v`.
inline sim::JsonValue Retyped(const sim::JsonValue& v) {
  sim::JsonValue r;
  switch (v.type) {
    case sim::JsonValue::Type::kString:
      r.type = sim::JsonValue::Type::kNumber;
      r.number = 7;
      break;
    case sim::JsonValue::Type::kNumber:
      r.type = sim::JsonValue::Type::kString;
      r.str = "7";
      break;
    case sim::JsonValue::Type::kObject:
      r.type = sim::JsonValue::Type::kArray;
      break;
    case sim::JsonValue::Type::kArray:
      r.type = sim::JsonValue::Type::kObject;
      break;
    default:  // null, bool
      r.type = sim::JsonValue::Type::kString;
      r.str = "true";
  }
  return r;
}

// One copy of the document `text` per value whose path `read` selects
// (".config.hosts", ".expected[0].mechanism"), that value given another
// JSON type; with `delete_fields`, also one copy per selected object field
// with the field removed. A value `read` rejects is skipped with all it
// contains.
inline std::vector<Mangled> MangledFields(
    const std::string& text,
    const std::function<bool(const std::string&)>& read, bool delete_fields) {
  sim::JsonValue root;
  if (!sim::ParseJson(text, &root)) return {};
  std::vector<Mangled> out;
  std::function<void(sim::JsonValue&, const std::string&)> walk =
      [&](sim::JsonValue& node, const std::string& path) {
        for (std::size_t i = 0; i < node.fields.size(); ++i) {
          const std::string at = path + "." + node.fields[i].first;
          if (!read(at)) continue;
          if (delete_fields) {
            const auto field = node.fields[i];
            node.fields.erase(node.fields.begin() + static_cast<long>(i));
            out.push_back({"deleted " + at, sim::WriteJson(root)});
            node.fields.insert(node.fields.begin() + static_cast<long>(i),
                               field);
          }
          sim::JsonValue& value = node.fields[i].second;
          const sim::JsonValue saved = value;
          value = Retyped(saved);
          out.push_back({"retyped " + at, sim::WriteJson(root)});
          value = saved;
          walk(value, at);
        }
        for (std::size_t i = 0; i < node.items.size(); ++i) {
          const std::string at = path + "[" + std::to_string(i) + "]";
          if (!read(at)) continue;
          const sim::JsonValue saved = node.items[i];
          node.items[i] = Retyped(saved);
          out.push_back({"retyped " + at, sim::WriteJson(root)});
          node.items[i] = saved;
          walk(node.items[i], at);
        }
      };
  walk(root, "");
  return out;
}

// The values of a reproducer bundle that fuzz::LoadReproducer reads: the
// schema, the divergence kind, the whole scenario and every value of each
// expected verdict.
inline bool ReadByReproducerLoader(const std::string& path) {
  static const std::regex read(R"(\.(schema|divergence(\.kind)?|scenario.*)"
                               R"(|expected(\[\d+\].*)?))");
  return std::regex_match(path, read);
}

// The whole file, or "" if it cannot be opened.
inline std::string ReadText(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

inline bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace nlh::malformed
