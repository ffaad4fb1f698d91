// Security policies and modes — the direct encoding of the paper's Table 1.
//
// A security *mode* switches signing/encryption on or off; a security
// *policy* pins the primitives. The paper's central assessment is whether
// deployments offer secure modes, avoid deprecated policies (the SHA-1
// family, deprecated 2017), and present certificates that actually match
// the announced policy (Fig. 4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hash.hpp"

namespace opcua_study {

enum class MessageSecurityMode : std::uint32_t {
  Invalid = 0,
  None = 1,
  Sign = 2,
  SignAndEncrypt = 3,
};

std::string security_mode_name(MessageSecurityMode mode);
/// Paper's ordering: None < Sign < SignAndEncrypt.
int security_mode_rank(MessageSecurityMode mode);

enum class SecurityPolicy {
  None,                 // N
  Basic128Rsa15,        // D1 (deprecated 2017, SHA-1)
  Basic256,             // D2 (deprecated 2017, SHA-1)
  Aes128Sha256RsaOaep,  // S1
  Basic256Sha256,       // S2 (recommended)
  Aes256Sha256RsaPss,   // S3
};

inline constexpr SecurityPolicy kAllPolicies[] = {
    SecurityPolicy::None,           SecurityPolicy::Basic128Rsa15,
    SecurityPolicy::Basic256,       SecurityPolicy::Aes128Sha256RsaOaep,
    SecurityPolicy::Basic256Sha256, SecurityPolicy::Aes256Sha256RsaPss,
};

enum class AsymmetricEncryption { none, pkcs1v15, oaep_sha1, oaep_sha256 };
enum class AsymmetricSignature { none, pkcs1v15_sha1, pkcs1v15_sha256, pss_sha256 };

struct SecurityPolicyInfo {
  SecurityPolicy id;
  std::string_view uri;         // http://opcfoundation.org/UA/SecurityPolicy#...
  std::string_view name;        // Basic256Sha256 ...
  std::string_view short_name;  // N / D1 / D2 / S1 / S2 / S3 (paper's Table 1)
  /// Paper's strength order: N(0) < D1 < D2 < S1 < S2 < S3(5).
  int rank;
  bool deprecated;  // D1, D2 (SHA-1-based, deprecated 2017)
  bool secure;      // S1, S2, S3

  // Asymmetric (OpenSecureChannel) primitives.
  AsymmetricSignature asym_signature;
  AsymmetricEncryption asym_encryption;
  // Certificate requirements (Table 1: "Cert. Hash", "Key Len.").
  HashAlgorithm min_cert_hash;  // weakest allowed signature hash
  HashAlgorithm max_cert_hash;  // strongest allowed signature hash
  std::size_t min_key_bits;
  std::size_t max_key_bits;
  // Symmetric channel primitives.
  HashAlgorithm kdf_hash;       // P_SHA1 or P_SHA256
  HashAlgorithm sym_mac_hash;   // HMAC hash for Sign
  std::size_t sym_sig_key_bytes;
  std::size_t sym_enc_key_bytes;  // AES key size
  std::size_t nonce_bytes;
};

const SecurityPolicyInfo& policy_info(SecurityPolicy policy);
std::optional<SecurityPolicy> policy_from_uri(std::string_view uri);
std::optional<SecurityPolicy> policy_from_short_name(std::string_view short_name);

/// How a certificate's actual primitives relate to a policy's requirements.
/// The paper's Fig. 4: 409 servers announce Basic256Sha256 but deliver
/// "too weak" certificates; 75 announce Basic128Rsa15 with "too strong" ones.
enum class CertConformance { conformant, too_weak, too_strong };

/// Classify (signature hash, key bits) against `policy`. Weakness dominates:
/// a certificate that is simultaneously too weak in one dimension and too
/// strong in another counts as too weak (it fails to deliver the announced
/// security level, which is the paper's criterion).
CertConformance classify_certificate(SecurityPolicy policy, HashAlgorithm cert_hash,
                                     std::size_t key_bits);

/// Strength order used for both cert hashes and the weak/strong decision.
int hash_rank(HashAlgorithm alg);  // MD5(0) < SHA-1(1) < SHA-256(2)

}  // namespace opcua_study
