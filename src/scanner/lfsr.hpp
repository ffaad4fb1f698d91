// zmap-style pseudo-random address iteration.
//
// zmap walks the IPv4 space in the order of a cyclic group element so that
// probes hit autonomous systems uniformly instead of hammering one prefix
// (the paper relies on "zmap's address randomization", §A.2). We implement
// the classic maximal-length Galois LFSR equivalent: a full period over
// [1, 2^w) with no repeats, extended to arbitrary CIDR universes by
// cycle-walking (skip states outside the range).
#pragma once

#include <cstdint>
#include <optional>

#include "util/ipv4.hpp"

namespace opcua_study {

/// Maximal-length Galois LFSR over w bits (4 <= w <= 32): visits every
/// value in [1, 2^w) exactly once per period.
class LfsrSequence {
 public:
  LfsrSequence(int width, std::uint32_t seed);

  std::uint32_t next();

 private:
  std::uint32_t mask_;
  std::uint32_t state_;
};

/// One full pseudo-random pass over a CIDR universe (every address exactly
/// once, order scrambled, deterministic in the seed).
class AddressSweep {
 public:
  AddressSweep(const Cidr& universe, std::uint64_t seed);

  /// Next address, or nullopt when the sweep is complete.
  std::optional<Ipv4> next();
  std::uint64_t emitted() const { return emitted_; }

 private:
  Ipv4 base_;
  std::uint64_t size_;
  int width_;
  LfsrSequence lfsr_;
  std::uint64_t emitted_ = 0;
  bool zero_emitted_ = false;
};

}  // namespace opcua_study
