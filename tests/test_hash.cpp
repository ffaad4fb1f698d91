// Known-answer and property tests for MD5 / SHA-1 / SHA-256, including
// multi-block published vectors streamed in block-straddling pieces.
#include <gtest/gtest.h>

#include "crypto/hash.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace opcua_study {
namespace {

std::string hex_hash(HashAlgorithm alg, std::string_view msg) { return to_hex(hash(alg, msg)); }

TEST(Md5, KnownVectors) {
  EXPECT_EQ(hex_hash(HashAlgorithm::md5, ""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex_hash(HashAlgorithm::md5, "abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex_hash(HashAlgorithm::md5, "message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex_hash(HashAlgorithm::md5, "abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Sha1, KnownVectors) {
  EXPECT_EQ(hex_hash(HashAlgorithm::sha1, ""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex_hash(HashAlgorithm::sha1, "abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_hash(HashAlgorithm::sha1, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(hex_hash(HashAlgorithm::sha256, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_hash(HashAlgorithm::sha256, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_hash(HashAlgorithm::sha256,
                     "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.digest();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

/// The digest of `message` fed to H in pieces of `piece` bytes (the last
/// piece shorter).
template <typename H>
std::string streamed_hex(std::string_view message, std::size_t piece) {
  H h;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(message.data());
  for (std::size_t off = 0; off < message.size(); off += piece) {
    h.update({bytes + off, std::min(piece, message.size() - off)});
  }
  const auto d = h.digest();
  return to_hex(Bytes(d.begin(), d.end()));
}

// Published digests (FIPS 180 and RFC 1321 test suites), fed in pieces
// that start, straddle and fill the 64-byte block: a block-wise update
// must agree with the reference values, not only with itself.
TEST(HashKnownAnswers, LongMessagesInPieces) {
  const std::string two_blocks =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqr"
      "lmnopqrsmnopqrstnopqrstu";
  ASSERT_EQ(two_blocks.size(), 112u);
  const std::string million_a(1000000, 'a');
  for (const std::size_t piece : {1, 63, 64, 65, 1000}) {
    SCOPED_TRACE("piece " + std::to_string(piece));
    EXPECT_EQ(streamed_hex<Sha1>(two_blocks, piece), "a49b2446a02c645bf419f995b67091253a04a259");
    EXPECT_EQ(streamed_hex<Sha256>(two_blocks, piece),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    EXPECT_EQ(streamed_hex<Sha1>(million_a, piece), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    EXPECT_EQ(streamed_hex<Md5>(million_a, piece), "7707d6ae4e027c70eea2a935c2296f21");
    EXPECT_EQ(streamed_hex<Sha256>(million_a, piece),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(HashProperties, DigestSizes) {
  EXPECT_EQ(digest_size(HashAlgorithm::md5), 16u);
  EXPECT_EQ(digest_size(HashAlgorithm::sha1), 20u);
  EXPECT_EQ(digest_size(HashAlgorithm::sha256), 32u);
  EXPECT_EQ(hash_name(HashAlgorithm::sha1), "SHA-1");
}

class HashChunking : public ::testing::TestWithParam<std::tuple<HashAlgorithm, std::size_t>> {};

// Streaming in arbitrary chunk sizes must match one-shot hashing.
TEST_P(HashChunking, StreamingEqualsOneShot) {
  const auto [alg, chunk_size] = GetParam();
  Rng rng(42);
  const Bytes data = rng.bytes(1037);
  Bytes streamed;
  switch (alg) {
    case HashAlgorithm::md5: {
      Md5 h;
      for (std::size_t off = 0; off < data.size(); off += chunk_size) {
        const std::size_t n = std::min(chunk_size, data.size() - off);
        h.update(std::span(data).subspan(off, n));
      }
      auto d = h.digest();
      streamed.assign(d.begin(), d.end());
      break;
    }
    case HashAlgorithm::sha1: {
      Sha1 h;
      for (std::size_t off = 0; off < data.size(); off += chunk_size) {
        const std::size_t n = std::min(chunk_size, data.size() - off);
        h.update(std::span(data).subspan(off, n));
      }
      auto d = h.digest();
      streamed.assign(d.begin(), d.end());
      break;
    }
    case HashAlgorithm::sha256: {
      Sha256 h;
      for (std::size_t off = 0; off < data.size(); off += chunk_size) {
        const std::size_t n = std::min(chunk_size, data.size() - off);
        h.update(std::span(data).subspan(off, n));
      }
      auto d = h.digest();
      streamed.assign(d.begin(), d.end());
      break;
    }
  }
  EXPECT_EQ(streamed, hash(alg, data));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndChunks, HashChunking,
    ::testing::Combine(::testing::Values(HashAlgorithm::md5, HashAlgorithm::sha1,
                                         HashAlgorithm::sha256),
                       ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65}, std::size_t{512})));

// Hash padding boundaries: lengths around the 56/64-byte block edges are the
// classic off-by-one spots.
class HashBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashBoundary, LengthSensitivity) {
  const std::size_t len = GetParam();
  const Bytes a(len, 0x5a);
  Bytes b = a;
  if (!b.empty()) b.back() ^= 1;
  for (HashAlgorithm alg :
       {HashAlgorithm::md5, HashAlgorithm::sha1, HashAlgorithm::sha256}) {
    EXPECT_EQ(hash(alg, a).size(), digest_size(alg));
    if (!a.empty()) {
      EXPECT_NE(hash(alg, a), hash(alg, b)) << hash_name(alg) << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockEdges, HashBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128));

}  // namespace
}  // namespace opcua_study
