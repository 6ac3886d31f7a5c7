// Strict integer parsing for command-line flags, shared by campaign_tool
// and the bench binaries. The whole value must be a decimal number of at
// least `min` that fits the target type: a trailing unit ("150ms"), an
// empty value or a number out of range ("4294967297" for an int) is
// rejected, never truncated into a silently different config the way
// atoi() does.
#pragma once

#include <charconv>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace nlh::sim {

template <typename T>
bool ParseInt(std::string_view text, T* out, std::type_identity_t<T> min) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min) return false;
  *out = v;
  return true;
}

// ParseInt for the value of `--flag=value`. On failure prints why and
// returns false; the caller prints its usage and exits 2.
template <typename T>
bool ParseIntFlag(const char* flag, std::string_view value, T* out,
                  std::type_identity_t<T> min) {
  if (ParseInt(value, out, min)) return true;
  std::printf("%s needs an integer in [%s, %s], got '%.*s'\n", flag,
              std::to_string(min).c_str(),
              std::to_string(std::numeric_limits<T>::max()).c_str(),
              static_cast<int>(value.size()), value.data());
  return false;
}

}  // namespace nlh::sim
