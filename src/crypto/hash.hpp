// From-scratch MD5 / SHA-1 / SHA-256.
//
// The study's central certificate analysis (Fig. 4, §5.2) classifies
// certificates by signature hash function — including deprecated MD5 and
// SHA-1 — so the library must be able to *create* and *verify* signatures
// over all three. Never use these implementations to protect real systems;
// they exist to reproduce a measurement study.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"

namespace opcua_study {

enum class HashAlgorithm { md5, sha1, sha256 };

std::size_t digest_size(HashAlgorithm alg);
std::string hash_name(HashAlgorithm alg);

/// The 64-byte block buffer the three hashes share: update() hands whole
/// blocks straight from the input span to the compression function and
/// copies only a partial block's bytes.
class HashBlocks {
 public:
  static constexpr std::size_t kBlockSize = 64;

  /// compress(block) for every complete 64-byte block of the stream so far.
  template <typename Compress>
  void feed(std::span<const std::uint8_t> data, Compress compress);
  /// Merkle-Damgard padding: 0x80, zeros, then the message length in bits
  /// as 64 bits, big- or little-endian.
  template <typename Compress>
  void pad(bool big_endian_length, Compress compress);

 private:
  std::uint8_t buf_[kBlockSize];
  std::size_t len_ = 0;
  std::uint64_t total_ = 0;
};

class Md5 {
 public:
  static constexpr std::size_t kDigestSize = 16;
  Md5();
  void update(std::span<const std::uint8_t> data);
  std::array<std::uint8_t, kDigestSize> digest();

 private:
  void process_block(const std::uint8_t* block);
  std::uint32_t h_[4];
  HashBlocks blocks_;
};

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  Sha1();
  void update(std::span<const std::uint8_t> data);
  std::array<std::uint8_t, kDigestSize> digest();

 private:
  void process_block(const std::uint8_t* block);
  std::uint32_t h_[5];
  HashBlocks blocks_;
};

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  Sha256();
  void update(std::span<const std::uint8_t> data);
  std::array<std::uint8_t, kDigestSize> digest();

 private:
  void process_block(const std::uint8_t* block);
  std::uint32_t h_[8];
  HashBlocks blocks_;
};

/// A SHA-1 digest held by value (certificate dictionaries keep one per entry).
using Sha1Digest = std::array<std::uint8_t, Sha1::kDigestSize>;

/// One-shot convenience.
Bytes hash(HashAlgorithm alg, std::span<const std::uint8_t> data);
Bytes hash(HashAlgorithm alg, std::string_view data);

}  // namespace opcua_study
