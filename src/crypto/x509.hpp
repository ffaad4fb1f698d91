// X.509 v3 certificate subset for OPC UA application-instance certificates.
//
// OPC UA servers authenticate the secure channel with an application
// instance certificate whose subjectAltName carries the ApplicationURI.
// The study parses each received certificate and classifies it by
// signature hash (MD5 / SHA-1 / SHA-256) and RSA modulus length — the two
// dimensions of the paper's Figure 4 — plus NotBefore (§5.5 longitudinal
// analysis) and subject organization (the certificate-reuse manufacturer
// discussion of §5.3).
#pragma once

#include <optional>
#include <string>

#include "crypto/asn1.hpp"
#include "crypto/hash.hpp"
#include "crypto/rsa.hpp"
#include "util/bytes.hpp"

namespace opcua_study {

struct X509Name {
  std::string common_name;
  std::string organization;
  std::string country;

  bool operator==(const X509Name&) const = default;
};

struct CertificateSpec {
  X509Name subject;
  std::optional<X509Name> issuer;  // nullopt → self-signed
  HashAlgorithm signature_hash = HashAlgorithm::sha256;
  Bignum serial{1};
  std::int64_t not_before_days = 0;  // days since 1970-01-01
  std::int64_t not_after_days = 0;
  std::string application_uri;  // subjectAltName URI; empty → no SAN
};

struct Certificate {
  Bignum serial;
  HashAlgorithm signature_hash = HashAlgorithm::sha256;
  X509Name issuer;
  X509Name subject;
  std::int64_t not_before_days = 0;
  std::int64_t not_after_days = 0;
  RsaPublicKey public_key;
  std::string application_uri;

  bool self_signed() const { return issuer == subject; }
  std::size_t key_bits() const { return public_key.modulus_bits(); }
};

/// Build and sign a certificate; returns the DER encoding.
Bytes x509_create(const CertificateSpec& spec, const RsaPublicKey& subject_key,
                  const RsaPrivateKey& issuer_key);

/// Parse DER; throws DecodeError on malformed input.
Certificate x509_parse(std::span<const std::uint8_t> der_bytes);

/// Verify the signature of the certificate `der_bytes` over its TBS
/// portion against an issuer key (the subject's own key for self-signed
/// certificates), under the certificate's outer signature algorithm.
/// Throws DecodeError when the outer structure is malformed.
bool x509_verify(std::span<const std::uint8_t> der_bytes, const RsaPublicKey& issuer_key);

/// OPC UA certificate thumbprint: SHA-1 over the DER encoding.
Bytes x509_thumbprint(std::span<const std::uint8_t> der_bytes);
/// The same thumbprint by value, without a heap buffer.
Sha1Digest certificate_sha1(std::span<const std::uint8_t> der_bytes);

/// 64-bit certificate fingerprint: the first 8 thumbprint bytes folded
/// big-endian. Collision-free in practice at study scale; the key of the
/// v6 certificate dictionary, whose stored fp64s are what posture
/// matching compares.
inline std::uint64_t fingerprint64(const Sha1Digest& thumbprint) {
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < 8; ++i) fp = (fp << 8) | thumbprint[i];
  return fp;
}
std::uint64_t certificate_fingerprint64(std::span<const std::uint8_t> der_bytes);

}  // namespace opcua_study
