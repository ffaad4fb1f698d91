// DER encoding and the X.509 subset: build → parse → verify round trips.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/batch_gcd.hpp"
#include "crypto/x509.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace opcua_study {
namespace {

const RsaKeyPair& cert_key() {
  static const RsaKeyPair kp = [] {
    Rng rng(2001);
    return rsa_generate(rng, 768, 8);
  }();
  return kp;
}

TEST(Der, OidRoundTrip) {
  const Oid o{{1, 2, 840, 113549, 1, 1, 11}};
  EXPECT_EQ(o.to_string(), "1.2.840.113549.1.1.11");
  EXPECT_EQ(Oid::decode_body(o.encode_body()), o);
  const Oid san{{2, 5, 29, 17}};
  EXPECT_EQ(Oid::decode_body(san.encode_body()), san);
}

TEST(Der, IntegerEncoding) {
  DerWriter w;
  w.integer(Bignum{127});
  w.integer(Bignum{128});  // needs a leading zero byte
  w.integer(Bignum{0});
  DerParser p(w.bytes());
  EXPECT_EQ(p.read_integer().low_u64(), 127u);
  EXPECT_EQ(p.read_integer().low_u64(), 128u);
  EXPECT_TRUE(p.read_integer().is_zero());
  EXPECT_TRUE(p.done());
}

TEST(Der, LongFormLength) {
  DerWriter w;
  const Bytes big(300, 0xab);
  w.octet_string(big);
  DerParser p(w.bytes());
  EXPECT_EQ(p.read_octet_string(), big);
}

TEST(Der, TimeEncodingBothForms) {
  DerWriter w;
  w.time(days_from_civil({2020, 8, 30}));
  w.time(days_from_civil({2055, 1, 2}));  // GeneralizedTime territory
  DerParser p(w.bytes());
  EXPECT_EQ(p.read_time_days(), days_from_civil({2020, 8, 30}));
  EXPECT_EQ(p.read_time_days(), days_from_civil({2055, 1, 2}));
}

TEST(Der, TimeWithNonDigitIsDecodeError) {
  // Certificate dates come from scanned servers: a non-digit in one must
  // surface as the DecodeError every caller handles, not as an exception
  // from a number conversion.
  DerWriter w;
  w.time(days_from_civil({2020, 8, 30}));  // UTCTime "200830000000Z"
  w.time(days_from_civil({2055, 1, 2}));   // GeneralizedTime "20550102000000Z"
  const Bytes der = w.take();
  Bytes bad_utc = der;
  bad_utc[2 + 3] = 'x';  // a month digit
  DerParser utc(bad_utc);
  EXPECT_THROW(utc.read_time_days(), DecodeError);
  Bytes bad_generalized = der;
  bad_generalized[2 + 13 + 2 + 1] = 'x';  // a year digit
  DerParser generalized(bad_generalized);
  EXPECT_EQ(generalized.read_time_days(), days_from_civil({2020, 8, 30}));
  EXPECT_THROW(generalized.read_time_days(), DecodeError);

  // The same flaw inside a certificate's validity period.
  CertificateSpec spec;
  spec.subject = {"device-9", "Test Org", "DE"};
  spec.not_before_days = days_from_civil({2019, 5, 1});
  spec.not_after_days = days_from_civil({2039, 5, 1});
  Bytes cert = x509_create(spec, cert_key().pub, cert_key().priv);
  const std::string not_before = "190501000000Z";
  const auto at = std::search(cert.begin(), cert.end(), not_before.begin(), not_before.end());
  ASSERT_NE(at, cert.end());
  EXPECT_EQ(x509_parse(cert).not_before_days, spec.not_before_days);
  at[4] = 'x';  // a day digit
  EXPECT_THROW(x509_parse(cert), DecodeError);
}

TEST(Der, ParserRejectsTruncation) {
  DerWriter w;
  w.octet_string(Bytes(10, 1));
  Bytes der = w.take();
  der.pop_back();
  DerParser p(der);
  EXPECT_THROW(p.read_octet_string(), DecodeError);
}

CertificateSpec base_spec() {
  CertificateSpec spec;
  spec.subject = {"device-7", "Bachmann electronic", "AT"};
  spec.signature_hash = HashAlgorithm::sha256;
  spec.serial = Bignum{123456789};
  spec.not_before_days = days_from_civil({2019, 5, 1});
  spec.not_after_days = days_from_civil({2039, 5, 1});
  spec.application_uri = "urn:device-7:bachmann:opcua";
  return spec;
}

TEST(X509, SelfSignedRoundTrip) {
  const auto& kp = cert_key();
  const Bytes der = x509_create(base_spec(), kp.pub, kp.priv);
  const Certificate cert = x509_parse(der);
  EXPECT_EQ(cert.subject.common_name, "device-7");
  EXPECT_EQ(cert.subject.organization, "Bachmann electronic");
  EXPECT_EQ(cert.subject.country, "AT");
  EXPECT_TRUE(cert.self_signed());
  EXPECT_EQ(cert.signature_hash, HashAlgorithm::sha256);
  EXPECT_EQ(cert.serial.low_u64(), 123456789u);
  EXPECT_EQ(cert.not_before_days, days_from_civil({2019, 5, 1}));
  EXPECT_EQ(cert.not_after_days, days_from_civil({2039, 5, 1}));
  EXPECT_EQ(cert.application_uri, "urn:device-7:bachmann:opcua");
  EXPECT_EQ(cert.public_key, kp.pub);
  EXPECT_EQ(cert.key_bits(), 768u);
  EXPECT_TRUE(x509_verify(der, kp.pub));
}

class X509SignatureHashes : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(X509SignatureHashes, AllStudyHashesSupported) {
  const auto& kp = cert_key();
  CertificateSpec spec = base_spec();
  spec.signature_hash = GetParam();
  const Bytes der = x509_create(spec, kp.pub, kp.priv);
  const Certificate cert = x509_parse(der);
  EXPECT_EQ(cert.signature_hash, GetParam());
  EXPECT_TRUE(x509_verify(der, kp.pub));
}

INSTANTIATE_TEST_SUITE_P(Md5Sha1Sha256, X509SignatureHashes,
                         ::testing::Values(HashAlgorithm::md5, HashAlgorithm::sha1,
                                           HashAlgorithm::sha256));

TEST(X509, CaSignedCertificateIsNotSelfSigned) {
  Rng rng(2002);
  const RsaKeyPair ca = rsa_generate(rng, 768, 8);
  CertificateSpec spec = base_spec();
  spec.issuer = X509Name{"Study CA", "CA Org", "DE"};
  const Bytes der = x509_create(spec, cert_key().pub, ca.priv);
  const Certificate cert = x509_parse(der);
  EXPECT_FALSE(cert.self_signed());
  EXPECT_EQ(cert.issuer.common_name, "Study CA");
  EXPECT_TRUE(x509_verify(der, ca.pub));
  EXPECT_FALSE(x509_verify(der, cert_key().pub));
}

TEST(X509, TamperedCertificateFailsVerification) {
  const auto& kp = cert_key();
  Bytes der = x509_create(base_spec(), kp.pub, kp.priv);
  EXPECT_TRUE(x509_verify(der, kp.pub));
  // The TBS starts after the certificate's 4-byte SEQUENCE header
  // (30 82 LL LL); flip its byte 40.
  ASSERT_EQ(der[1], 0x82);
  der[4 + 40] ^= 1;
  EXPECT_FALSE(x509_verify(der, kp.pub));
}

TEST(X509, ThumbprintIsSha1OfDer) {
  const auto& kp = cert_key();
  const Bytes der = x509_create(base_spec(), kp.pub, kp.priv);
  EXPECT_EQ(x509_thumbprint(der), hash(HashAlgorithm::sha1, der));
  EXPECT_EQ(x509_thumbprint(der).size(), 20u);
}

TEST(X509, ParseRejectsGarbage) {
  EXPECT_THROW(x509_parse(Bytes{}), DecodeError);
  EXPECT_THROW(x509_parse(Bytes(50, 0xff)), DecodeError);
  const auto& kp = cert_key();
  Bytes der = x509_create(base_spec(), kp.pub, kp.priv);
  der.resize(der.size() / 2);
  EXPECT_THROW(x509_parse(der), DecodeError);
}

TEST(X509, EmptySanOmitted) {
  const auto& kp = cert_key();
  CertificateSpec spec = base_spec();
  spec.application_uri.clear();
  const Certificate cert = x509_parse(x509_create(spec, kp.pub, kp.priv));
  EXPECT_TRUE(cert.application_uri.empty());
}

// --------------------------------------------------------- batch GCD ----

std::vector<Bignum> make_moduli(int count, std::size_t bits, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bignum> out;
  std::vector<Bignum> primes;
  for (int i = 0; i < count + 1; ++i) primes.push_back(Bignum::generate_prime(rng, bits, 6));
  for (int i = 0; i < count; ++i) out.push_back(primes[static_cast<std::size_t>(i)] *
                                                primes[static_cast<std::size_t>(i) + 1]);
  return out;  // chain: consecutive moduli share a prime
}

TEST(BatchGcd, DetectsInjectedSharedPrimes) {
  const auto moduli = make_moduli(8, 96, 3001);
  const auto result = batch_gcd(moduli);
  EXPECT_EQ(result.affected(), 8u);  // every modulus shares with a neighbour
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    ASSERT_FALSE(result.shared_factor[i].is_zero());
    EXPECT_TRUE((moduli[i] % result.shared_factor[i]).is_zero());
  }
}

TEST(BatchGcd, CleanCorpusHasNoFindings) {
  Rng rng(3002);
  std::vector<Bignum> moduli;
  for (int i = 0; i < 12; ++i) {
    const Bignum p = Bignum::generate_prime(rng, 96, 6);
    const Bignum q = Bignum::generate_prime(rng, 96, 6);
    moduli.push_back(p * q);
  }
  EXPECT_EQ(batch_gcd(moduli).affected(), 0u);
}

TEST(BatchGcd, MatchesPairwiseReference) {
  Rng rng(3003);
  std::vector<Bignum> moduli;
  const Bignum shared = Bignum::generate_prime(rng, 80, 6);
  for (int i = 0; i < 9; ++i) {
    const Bignum q = Bignum::generate_prime(rng, 80, 6);
    if (i % 3 == 0) {
      moduli.push_back(shared * q);
    } else {
      moduli.push_back(Bignum::generate_prime(rng, 80, 6) * q);
    }
  }
  const auto fast = batch_gcd(moduli);
  const auto ref = pairwise_gcd(moduli);
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    EXPECT_EQ(fast.shared_factor[i].is_zero(), ref.shared_factor[i].is_zero()) << i;
  }
  EXPECT_EQ(fast.affected(), 3u);
}

TEST(BatchGcd, DuplicateModuliAreFlagged) {
  Rng rng(3004);
  const Bignum p = Bignum::generate_prime(rng, 80, 6);
  const Bignum q = Bignum::generate_prime(rng, 80, 6);
  const Bignum r = Bignum::generate_prime(rng, 80, 6);
  const Bignum s = Bignum::generate_prime(rng, 80, 6);
  const std::vector<Bignum> moduli = {p * q, p * q, r * s};
  const auto result = batch_gcd(moduli);
  EXPECT_FALSE(result.shared_factor[0].is_zero());
  EXPECT_FALSE(result.shared_factor[1].is_zero());
  EXPECT_TRUE(result.shared_factor[2].is_zero());
}

TEST(BatchGcd, TrivialSizes) {
  EXPECT_EQ(batch_gcd({}).affected(), 0u);
  EXPECT_EQ(batch_gcd({Bignum{15}}).affected(), 0u);
}

TEST(BatchGcd, MatchesPairwiseOnLargerRandomizedCorpus) {
  // A randomized ~90-modulus corpus drawn from a small prime pool, so
  // sharing patterns are arbitrary (chains, stars, duplicates, isolated
  // moduli) rather than hand-planted. The squares-tree batch sweep must
  // agree with the O(n²) pairwise reference factor class by factor class,
  // and it must be invariant under the worker-thread count.
  Rng rng(3005);
  std::vector<Bignum> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(Bignum::generate_prime(rng, 72, 6));
  std::vector<Bignum> moduli;
  for (int i = 0; i < 90; ++i) {
    if (i % 11 == 0 && i > 0) {
      moduli.push_back(moduli[rng.below(moduli.size())]);  // exact duplicate
      continue;
    }
    const Bignum& p = pool[rng.below(pool.size())];
    const Bignum& q = pool[rng.below(pool.size())];
    moduli.push_back(p * q);
  }
  const auto fast = batch_gcd(moduli);
  const auto parallel = batch_gcd(moduli, 3);
  const auto ref = pairwise_gcd(moduli);
  ASSERT_EQ(fast.shared_factor.size(), moduli.size());
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    EXPECT_EQ(fast.shared_factor[i].is_zero(), ref.shared_factor[i].is_zero()) << i;
    if (!fast.shared_factor[i].is_zero()) {
      // The batch factor must be a non-trivial divisor of its modulus
      // (equal to it for exact duplicates).
      EXPECT_TRUE((moduli[i] % fast.shared_factor[i]).is_zero()) << i;
      EXPECT_GT(fast.shared_factor[i], Bignum{1});
      EXPECT_LE(fast.shared_factor[i], moduli[i]);
    }
    EXPECT_EQ(fast.shared_factor[i], parallel.shared_factor[i]) << i;
  }
  EXPECT_EQ(fast.affected(), ref.affected());
  EXPECT_GT(fast.affected(), 0u);
}

}  // namespace
}  // namespace opcua_study
