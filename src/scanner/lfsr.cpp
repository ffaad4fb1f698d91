#include "scanner/lfsr.hpp"

#include <stdexcept>

namespace opcua_study {

namespace {

// Maximal-length tap masks for right-shift Galois LFSRs (taps from the
// standard XAPP052 table; bit t-1 set for each tap t).
constexpr std::uint32_t tap_mask(int width) {
  switch (width) {
    case 4: return (1u << 3) | (1u << 2);                                  // 4,3
    case 5: return (1u << 4) | (1u << 2);                                  // 5,3
    case 6: return (1u << 5) | (1u << 4);                                  // 6,5
    case 7: return (1u << 6) | (1u << 5);                                  // 7,6
    case 8: return (1u << 7) | (1u << 5) | (1u << 4) | (1u << 3);          // 8,6,5,4
    case 9: return (1u << 8) | (1u << 4);                                  // 9,5
    case 10: return (1u << 9) | (1u << 6);                                 // 10,7
    case 11: return (1u << 10) | (1u << 8);                                // 11,9
    case 12: return (1u << 11) | (1u << 10) | (1u << 9) | (1u << 3);       // 12,11,10,4
    case 13: return (1u << 12) | (1u << 11) | (1u << 10) | (1u << 7);      // 13,12,11,8
    case 14: return (1u << 13) | (1u << 12) | (1u << 11) | (1u << 1);      // 14,13,12,2
    case 15: return (1u << 14) | (1u << 13);                               // 15,14
    case 16: return (1u << 15) | (1u << 14) | (1u << 12) | (1u << 3);      // 16,15,13,4
    case 17: return (1u << 16) | (1u << 13);                               // 17,14
    case 18: return (1u << 17) | (1u << 10);                               // 18,11
    case 19: return (1u << 18) | (1u << 17) | (1u << 16) | (1u << 13);     // 19,18,17,14
    case 20: return (1u << 19) | (1u << 16);                               // 20,17
    case 21: return (1u << 20) | (1u << 18);                               // 21,19
    case 22: return (1u << 21) | (1u << 20);                               // 22,21
    case 23: return (1u << 22) | (1u << 17);                               // 23,18
    case 24: return (1u << 23) | (1u << 22) | (1u << 21) | (1u << 16);     // 24,23,22,17
    case 25: return (1u << 24) | (1u << 21);                               // 25,22
    case 26: return (1u << 25) | (1u << 24) | (1u << 23) | (1u << 19);     // 26,25,24,20
    case 27: return (1u << 26) | (1u << 25) | (1u << 24) | (1u << 21);     // 27,26,25,22
    case 28: return (1u << 27) | (1u << 24);                               // 28,25
    case 29: return (1u << 28) | (1u << 26);                               // 29,27
    case 30: return (1u << 29) | (1u << 28) | (1u << 27) | (1u << 6);      // 30,29,28,7
    case 31: return (1u << 30) | (1u << 27);                               // 31,28
    case 32: return (1u << 31) | (1u << 21) | (1u << 1) | (1u << 0);       // 32,22,2,1
    default: return 0;
  }
}

}  // namespace

LfsrSequence::LfsrSequence(int width, std::uint32_t seed) : mask_(tap_mask(width)) {
  if (mask_ == 0) throw std::invalid_argument("LFSR width must be in [4, 32]");
  const std::uint32_t range_mask =
      width >= 32 ? 0xffffffffu : ((std::uint32_t{1} << width) - 1);
  state_ = seed & range_mask;
  if (state_ == 0) state_ = 1;
}

std::uint32_t LfsrSequence::next() {
  const std::uint32_t out = state_;
  state_ = (state_ >> 1) ^ ((~((state_ & 1u) - 1u)) & mask_);
  return out;
}

AddressSweep::AddressSweep(const Cidr& universe, std::uint64_t seed)
    : base_(universe.first()),
      size_(universe.size()),
      width_(32 - universe.prefix_len),
      lfsr_(width_ < 4 ? 4 : width_, static_cast<std::uint32_t>(seed ^ (seed >> 32)) | 1u) {}

std::optional<Ipv4> AddressSweep::next() {
  if (emitted_ >= size_) return std::nullopt;
  // Emit offset 0 first (LFSRs never visit 0), then walk the LFSR cycle,
  // cycle-walking past states outside small universes (< 16 addresses).
  if (!zero_emitted_) {
    zero_emitted_ = true;
    ++emitted_;
    return base_;
  }
  for (;;) {
    const std::uint32_t state = lfsr_.next();
    if (state < size_) {
      ++emitted_;
      return base_ + state;
    }
  }
}

}  // namespace opcua_study
