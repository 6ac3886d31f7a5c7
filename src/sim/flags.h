// The one command-line parser of campaign_tool and the bench binaries.
// Each binary declares every flag it reads exactly once, as a Flag entry:
// its name, whether it takes a value, a strict setter and, in a binary with
// modes (campaign_tool), the modes that read it plus an optional condition
// on the parsed config. ParseFlags walks argv against that table. An
// unknown flag, a missing, unexpected or malformed value, and a flag that
// the selected mode or the parsed config does not read each print why and a
// usage text generated from the table, then exit 2; --help prints the
// usage text and exits 0. A flag is never accepted and then ignored.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nlh::sim {

// Strict integer parse: the whole value must be a decimal number of at
// least `min` that fits T. A trailing unit ("150ms"), an empty value or a
// number out of range ("4294967297" for an int) is rejected, never
// truncated into a silently different config the way atoi() does.
template <typename T>
bool ParseInt(std::string_view text, T* out, std::type_identity_t<T> min) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min) return false;
  *out = v;
  return true;
}

// A flag's setter: stores the value and returns "", or returns why the
// value is malformed. A flag given without a value gets "".
using FlagSetter = std::function<std::string(std::string_view value)>;

// ParseInt, returning a setter's error.
template <typename T>
std::string IntError(std::string_view text, T* out,
                     std::type_identity_t<T> min) {
  if (ParseInt(text, out, min)) return "";
  return "needs an integer in [" + std::to_string(min) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "], got '" +
         std::string(text) + "'";
}

template <typename T>
FlagSetter SetInt(T* out, std::type_identity_t<T> min) {
  return [out, min](std::string_view v) { return IntError(v, out, min); };
}

inline FlagSetter SetTrue(bool* out) {
  return [out](std::string_view) {
    *out = true;
    return std::string();
  };
}

inline FlagSetter SetString(std::string* out) {
  return [out](std::string_view v) {
    *out = v;
    return std::string();
  };
}

// The slugs a choice flag accepts, each with the value it sets.
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

// "a|b|c": a choice flag's value in the usage text.
template <typename T>
std::string ChoiceForm(const Choices<T>& choices) {
  std::string form;
  for (const auto& choice : choices) {
    form += (form.empty() ? "" : "|") + choice.first;
  }
  return form;
}

// An unknown slug is "unknown <what> 'x'; valid: a b c".
template <typename T>
FlagSetter SetChoice(std::string what, Choices<T> choices, T* out) {
  return [what, choices, out](std::string_view v) {
    std::string valid;
    for (const auto& [slug, value] : choices) {
      if (slug == v) {
        *out = value;
        return std::string();
      }
      valid += " " + slug;
    }
    return "unknown " + what + " '" + std::string(v) + "'; valid:" + valid;
  };
}

enum class FlagValue { kNone, kRequired, kOptional };

struct Flag {
  const char* name;  // "--runs"
  FlagValue value;
  std::string form;  // the value in the usage text: "N" in --runs=N
  std::string help;
  FlagSetter set;
  // The modes that read the flag, as bits of what ParseFlags' `mode`
  // returns; a binary without modes leaves every bit set.
  unsigned modes = ~0u;
  // The modes this flag selects. Messages name each by the flag's name
  // plus its suffix: "--replay" + "=RUN_ID".
  std::vector<std::pair<unsigned, const char*>> selects = {};
  // Read only while `holds()` is true of the parsed flags; otherwise the
  // flag is rejected as "<name> has no effect <unmet>".
  const char* unmet = nullptr;  // "without --setup=1appvm"
  std::function<bool()> holds = {};
};

namespace detail {

inline std::string Spelling(const Flag& f) {
  if (f.value == FlagValue::kNone) return f.name;
  const std::string value = "=" + f.form;
  return f.name + (f.value == FlagValue::kOptional ? "[" + value + "]" : value);
}

// Appends `line`, then the words of `text` in a column from `indent`,
// wrapped at 79 columns; a `line` that reaches the column gets its own.
inline void AppendRow(std::string* out, std::string line, std::size_t indent,
                      std::string_view text) {
  if (line.size() + 2 > indent) {
    *out += line + "\n";
    line.clear();
  }
  while (!text.empty()) {
    const std::string_view word = text.substr(0, text.find(' '));
    if (line.size() > indent && line.size() + 1 + word.size() > 79) {
      *out += line + "\n";
      line.clear();
    }
    line.resize(std::max(line.size() + 1, indent), ' ');
    line += word;
    text.remove_prefix(std::min(word.size() + 1, text.size()));
  }
  *out += line + "\n";
}

// How messages name a mode: by the flag that selects it; "" for the mode
// no flag selects.
inline std::string ModeName(std::span<const Flag> flags, unsigned mode) {
  for (const Flag& f : flags) {
    for (const auto& [m, suffix] : f.selects) {
      if (m == mode) return f.name + std::string(suffix);
    }
  }
  return "";
}

}  // namespace detail

// Every flag with its help and, in a binary with modes, the flags each
// mode reads.
inline std::string FlagUsage(std::string_view program,
                             std::span<const Flag> flags) {
  std::string out = "usage: " + std::string(program) + " [flag]...\n";
  unsigned read = 0;
  for (const Flag& f : flags) {
    detail::AppendRow(&out, "  " + detail::Spelling(f), 32, f.help);
    read |= f.modes;
  }
  detail::AppendRow(&out, "  --help", 32, "print this text");
  if (read == 0 || read == ~0u) return out;  // no modes
  out += "modes (the first that applies runs) and the flags each reads:\n";
  for (unsigned bit = 1; bit != 0 && bit <= read; bit <<= 1) {
    if ((read & bit) == 0) continue;
    std::string names;
    for (const Flag& f : flags) {
      if ((f.modes & bit) != 0) names += std::string(" ") + f.name;
    }
    const std::string mode = detail::ModeName(flags, bit);
    detail::AppendRow(&out, "  " + (mode.empty() ? "otherwise" : mode), 20,
                      std::string_view(names).substr(1));
  }
  return out;
}

// Parses argv against `flags`, calling the setter of each flag given, in
// order, and returns once every flag given is read. `mode`, when set,
// returns the mode the parsed flags select, as one bit of the `modes`
// masks.
inline void ParseFlags(int argc, char** argv, std::span<const Flag> flags,
                       const std::function<unsigned()>& mode = {}) {
  std::string_view program = argc > 0 ? *argv : "";
  program = program.substr(program.rfind('/') + 1);
  const auto fail = [&](const std::string& why) {
    std::printf("%s\n%s", why.c_str(), FlagUsage(program, flags).c_str());
    std::exit(2);
  };
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      std::printf("%s", FlagUsage(program, flags).c_str());
      std::exit(0);
    }
    const std::size_t eq = std::min(arg.find('='), arg.size());
    const auto flag = std::find_if(flags.begin(), flags.end(), [&](auto& f) {
      return arg.substr(0, eq) == f.name;
    });
    if (flag == flags.end()) fail("unknown flag " + std::string(arg));
    const std::string name = flag->name;
    const std::string_view value = arg.substr(std::min(eq + 1, arg.size()));
    if (eq < arg.size() && flag->value == FlagValue::kNone) {
      fail(name + ": takes no value");
    }
    if (value.empty() &&
        (eq < arg.size() || flag->value == FlagValue::kRequired)) {
      fail(name + ": needs a value (" + detail::Spelling(*flag) + ")");
    }
    const std::string error = flag->set(value);
    if (!error.empty()) fail(name + ": " + error);
    given.push_back(&*flag);
  }
  const unsigned selected = mode ? mode() : ~0u;
  for (const Flag* f : given) {
    std::string why;
    if ((f->modes & selected) == 0) {
      why = detail::ModeName(flags, selected);
      if (!why.empty()) {
        why = "with " + why;
      } else {
        for (unsigned bit = 1; bit != 0; bit <<= 1) {
          const std::string by = detail::ModeName(flags, bit);
          if ((f->modes & bit) != 0 && !by.empty()) {
            why += (why.empty() ? "without " : " or ") + by;
          }
        }
      }
    } else if (f->holds && !f->holds()) {
      why = f->unmet;
    }
    if (!why.empty()) fail(std::string(f->name) + " has no effect " + why);
  }
}

}  // namespace nlh::sim
