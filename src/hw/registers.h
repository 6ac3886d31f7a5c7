// Architectural register file of a simulated x86-64 CPU.
//
// Only the state the paper's fault model and recovery mechanisms touch is
// modeled: the 16 general-purpose registers, stack pointer, flags, program
// counter, and the FS/GS segment bases (whose loss motivated the "Save
// FS/GS" ReHype enhancement, Section IV).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace nlh::hw {

enum class Reg : int {
  kRax = 0, kRbx, kRcx, kRdx, kRsi, kRdi, kRbp, kR8,
  kR9, kR10, kR11, kR12, kR13, kR14, kR15, kRsp,
  kRflags, kRip,
  kCount,
};

inline constexpr int kNumRegs = static_cast<int>(Reg::kCount);

// Registers eligible for random bit-flip injection: the paper injects into
// "the 16 general-purpose registers, the stack pointer, the flag register,
// and the program counter" (Section VI-C). kRsp..kRip are included.
inline constexpr int kNumInjectableRegs = kNumRegs;

std::string_view RegName(Reg r);

class RegisterFile {
 public:
  std::uint64_t Get(Reg r) const { return values_[static_cast<int>(r)]; }
  void Set(Reg r, std::uint64_t v) { values_[static_cast<int>(r)] = v; }

  std::uint64_t fs_base = 0;
  std::uint64_t gs_base = 0;

  // Every register value, in Reg order (detection snapshots).
  std::array<std::uint64_t, kNumRegs> Snapshot() const { return values_; }

 private:
  std::array<std::uint64_t, kNumRegs> values_{};
};

}  // namespace nlh::hw
