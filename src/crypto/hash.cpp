#include "crypto/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace opcua_study {

std::size_t digest_size(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return Md5::kDigestSize;
    case HashAlgorithm::sha1: return Sha1::kDigestSize;
    case HashAlgorithm::sha256: return Sha256::kDigestSize;
  }
  throw std::logic_error("bad hash algorithm");
}

std::string hash_name(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return "MD5";
    case HashAlgorithm::sha1: return "SHA-1";
    case HashAlgorithm::sha256: return "SHA-256";
  }
  return "?";
}

// ------------------------------------------------------- block buffer ----

template <typename Compress>
void HashBlocks::feed(std::span<const std::uint8_t> data, Compress compress) {
  if (data.empty()) return;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  total_ += n;
  if (len_ > 0) {
    const std::size_t take = std::min(n, kBlockSize - len_);
    std::memcpy(buf_ + len_, p, take);
    len_ += take;
    p += take;
    n -= take;
    if (len_ < kBlockSize) return;
    compress(buf_);
    len_ = 0;
  }
  for (; n >= kBlockSize; p += kBlockSize, n -= kBlockSize) compress(p);
  if (n > 0) std::memcpy(buf_, p, n);
  len_ = n;
}

template <typename Compress>
void HashBlocks::pad(bool big_endian_length, Compress compress) {
  const std::uint64_t bit_len = total_ * 8;
  buf_[len_++] = 0x80;
  if (len_ > kBlockSize - 8) {
    std::memset(buf_ + len_, 0, kBlockSize - len_);
    compress(buf_);
    len_ = 0;
  }
  std::memset(buf_ + len_, 0, kBlockSize - 8 - len_);
  for (int i = 0; i < 8; ++i) {
    const int shift = big_endian_length ? 8 * (7 - i) : 8 * i;
    buf_[kBlockSize - 8 + i] = static_cast<std::uint8_t>(bit_len >> shift);
  }
  compress(buf_);
  len_ = 0;
}

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

template <std::size_t N>
std::array<std::uint8_t, 4 * N> store_be32(const std::uint32_t (&h)[N]) {
  std::array<std::uint8_t, 4 * N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(h[i] >> (8 * (3 - b)));
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- MD5 ----

static constexpr std::uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

static constexpr int kMd5S[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                                  5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                                  4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                                  6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

Md5::Md5() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) | (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f += a + kMd5K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b += std::rotl(f, kMd5S[i]);
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  blocks_.feed(data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::digest() {
  blocks_.pad(/*big_endian_length=*/false,
              [this](const std::uint8_t* block) { process_block(block); });
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 4; ++b) out[static_cast<std::size_t>(i * 4 + b)] = static_cast<std::uint8_t>(h_[i] >> (8 * b));
  }
  return out;
}

// --------------------------------------------------------------- SHA-1 ----

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
  h_[4] = 0xc3d2e1f0;
}

namespace {

// SHA-1 round functions, each with its round constant. Ch and Maj are
// written in their two-operation forms.
struct Sha1Choose {
  static constexpr std::uint32_t k = 0x5a827999;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return d ^ (b & (c ^ d));
  }
};
template <std::uint32_t K>
struct Sha1Parity {
  static constexpr std::uint32_t k = K;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) { return b ^ c ^ d; }
};
struct Sha1Majority {
  static constexpr std::uint32_t k = 0x8f1bbcdc;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return (b & c) | (d & (b | c));
  }
};

/// Schedule word T from the 16-word ring: W[0..15] as loaded, later words
/// overwrite W[T mod 16] in place.
template <int T>
std::uint32_t sha1_word(std::uint32_t (&w)[16]) {
  if constexpr (T < 16) {
    return w[T];
  } else {
    const std::uint32_t x =
        std::rotl(w[(T + 13) & 15] ^ w[(T + 8) & 15] ^ w[(T + 2) & 15] ^ w[T & 15], 1);
    w[T & 15] = x;
    return x;
  }
}

/// One round with the roles of the five working variables passed in, so
/// nothing is moved: the new `a` lands in `e` and `b` is rotated in place.
template <typename Round>
void sha1_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
                std::uint32_t& e, std::uint32_t w) {
  e += std::rotl(a, 5) + Round::f(b, c, d) + Round::k + w;
  b = std::rotl(b, 30);
}

/// Rounds T..T+4. Five role rotations bring the variables back to
/// (a, b, c, d, e), so groups chain without shuffling.
template <typename Round, int T>
void sha1_group(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                std::uint32_t& e, std::uint32_t (&w)[16]) {
  sha1_round<Round>(a, b, c, d, e, sha1_word<T>(w));
  sha1_round<Round>(e, a, b, c, d, sha1_word<T + 1>(w));
  sha1_round<Round>(d, e, a, b, c, sha1_word<T + 2>(w));
  sha1_round<Round>(c, d, e, a, b, sha1_word<T + 3>(w));
  sha1_round<Round>(b, c, d, e, a, sha1_word<T + 4>(w));
}

/// Rounds T..T+19, which share one round function.
template <typename Round, int T>
void sha1_stage(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                std::uint32_t& e, std::uint32_t (&w)[16]) {
  sha1_group<Round, T>(a, b, c, d, e, w);
  sha1_group<Round, T + 5>(a, b, c, d, e, w);
  sha1_group<Round, T + 10>(a, b, c, d, e, w);
  sha1_group<Round, T + 15>(a, b, c, d, e, w);
}

}  // namespace

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  sha1_stage<Sha1Choose, 0>(a, b, c, d, e, w);
  sha1_stage<Sha1Parity<0x6ed9eba1>, 20>(a, b, c, d, e, w);
  sha1_stage<Sha1Majority, 40>(a, b, c, d, e, w);
  sha1_stage<Sha1Parity<0xca62c1d6>, 60>(a, b, c, d, e, w);
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  blocks_.feed(data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::digest() {
  blocks_.pad(/*big_endian_length=*/true,
              [this](const std::uint8_t* block) { process_block(block); });
  return store_be32(h_);
}

// ------------------------------------------------------------- SHA-256 ----

static constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

Sha256::Sha256() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void Sha256::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  blocks_.feed(data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest() {
  blocks_.pad(/*big_endian_length=*/true,
              [this](const std::uint8_t* block) { process_block(block); });
  return store_be32(h_);
}

// ------------------------------------------------------------ one-shot ----

Bytes hash(HashAlgorithm alg, std::span<const std::uint8_t> data) {
  switch (alg) {
    case HashAlgorithm::md5: {
      Md5 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
    case HashAlgorithm::sha1: {
      Sha1 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
    case HashAlgorithm::sha256: {
      Sha256 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
  }
  throw std::logic_error("bad hash algorithm");
}

Bytes hash(HashAlgorithm alg, std::string_view data) {
  return hash(alg, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

}  // namespace opcua_study
