// FNV-1a state hashing for the integrity ladder (Hydra mutation-context
// idiom: every observed state advances a deterministic 64-bit hash).
//
// The hasher deliberately refuses whole-struct byte hashing unless the type
// has unique object representations: padded structs carry stack garbage in
// their padding bytes, which would make the "same" state hash differently
// across runs and thread counts. Padded types are hashed field-wise at the
// call site instead. Strings hash by content, never by address, so the
// ladder is byte-identical at any thread count and across warm forks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace nlh::integrity {

// Same constants as fuzz/scenario.h's fingerprinting; duplicated here so
// the hv-adjacent integrity layer does not grow a dependency on fuzz/.
inline constexpr std::uint64_t kHashSeed = 14695981039346656037ULL;
inline constexpr std::uint64_t kHashPrime = 1099511628211ULL;

class StateHasher {
 public:
  std::uint64_t value() const { return h_; }

  void MixBytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kHashPrime;
    }
  }

  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>((v >> (8 * i)) & 0xff);
      h_ *= kHashPrime;
    }
  }
  void Mix(std::int64_t v) { Mix(static_cast<std::uint64_t>(v)); }
  void Mix(std::uint32_t v) { Mix(static_cast<std::uint64_t>(v)); }
  void Mix(std::int32_t v) {
    Mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  void Mix(bool v) { Mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void Mix(std::string_view s) {
    Mix(static_cast<std::uint64_t>(s.size()));
    MixBytes(s.data(), s.size());
  }
  void Mix(const std::string& s) { Mix(std::string_view(s)); }

  // Single-round word mixer for the bulk state sweeps (frame descriptors,
  // event-channel and grant tables): one xor-multiply per word instead of
  // byte-wise FNV, ~8x fewer multiplies on the loops that dominate the
  // epoch ladder's cost. Each round is bijective in both the accumulator
  // and the input word, so a change to any single mixed word always
  // changes the final value — no corruption can hash-collide with the
  // clean state through this path alone.
  void MixWord(std::uint64_t v) { h_ = (h_ ^ v) * kHashPrime; }

 private:
  std::uint64_t h_ = kHashSeed;
};

}  // namespace nlh::integrity
