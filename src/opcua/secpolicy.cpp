#include "opcua/secpolicy.hpp"

#include <array>
#include <stdexcept>

namespace opcua_study {

std::string security_mode_name(MessageSecurityMode mode) {
  switch (mode) {
    case MessageSecurityMode::Invalid: return "Invalid";
    case MessageSecurityMode::None: return "None";
    case MessageSecurityMode::Sign: return "Sign";
    case MessageSecurityMode::SignAndEncrypt: return "SignAndEncrypt";
  }
  return "?";
}

int security_mode_rank(MessageSecurityMode mode) {
  switch (mode) {
    case MessageSecurityMode::None: return 0;
    case MessageSecurityMode::Sign: return 1;
    case MessageSecurityMode::SignAndEncrypt: return 2;
    case MessageSecurityMode::Invalid: return -1;
  }
  return -1;
}

namespace {

constexpr std::array<SecurityPolicyInfo, 6> kPolicyTable = {{
    {SecurityPolicy::None, "http://opcfoundation.org/UA/SecurityPolicy#None", "None", "N",
     /*rank=*/0, /*deprecated=*/false, /*secure=*/false, AsymmetricSignature::none,
     AsymmetricEncryption::none, HashAlgorithm::md5, HashAlgorithm::sha256, 0, 0,
     HashAlgorithm::sha1, HashAlgorithm::sha1, 0, 0, 0},
    // Basic128Rsa15: SHA-1 signatures, PKCS#1 v1.5 key transport,
    // certificates SHA-1 with 1024-2048 bit keys. Deprecated 2017.
    {SecurityPolicy::Basic128Rsa15, "http://opcfoundation.org/UA/SecurityPolicy#Basic128Rsa15",
     "Basic128Rsa15", "D1", 1, true, false, AsymmetricSignature::pkcs1v15_sha1,
     AsymmetricEncryption::pkcs1v15, HashAlgorithm::sha1, HashAlgorithm::sha1, 1024, 2048,
     HashAlgorithm::sha1, HashAlgorithm::sha1, 16, 16, 16},
    // Basic256: SHA-1 signatures, OAEP(SHA-1), certs SHA-1/SHA-256 with
    // 1024-2048 bit keys. Deprecated 2017.
    {SecurityPolicy::Basic256, "http://opcfoundation.org/UA/SecurityPolicy#Basic256", "Basic256",
     "D2", 2, true, false, AsymmetricSignature::pkcs1v15_sha1, AsymmetricEncryption::oaep_sha1,
     HashAlgorithm::sha1, HashAlgorithm::sha256, 1024, 2048, HashAlgorithm::sha1,
     HashAlgorithm::sha1, 24, 32, 32},
    {SecurityPolicy::Aes128Sha256RsaOaep,
     "http://opcfoundation.org/UA/SecurityPolicy#Aes128_Sha256_RsaOaep", "Aes128_Sha256_RsaOaep",
     "S1", 3, false, true, AsymmetricSignature::pkcs1v15_sha256, AsymmetricEncryption::oaep_sha1,
     HashAlgorithm::sha256, HashAlgorithm::sha256, 2048, 4096, HashAlgorithm::sha256,
     HashAlgorithm::sha256, 32, 16, 32},
    {SecurityPolicy::Basic256Sha256, "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256",
     "Basic256Sha256", "S2", 4, false, true, AsymmetricSignature::pkcs1v15_sha256,
     AsymmetricEncryption::oaep_sha1, HashAlgorithm::sha256, HashAlgorithm::sha256, 2048, 4096,
     HashAlgorithm::sha256, HashAlgorithm::sha256, 32, 32, 32},
    {SecurityPolicy::Aes256Sha256RsaPss,
     "http://opcfoundation.org/UA/SecurityPolicy#Aes256_Sha256_RsaPss", "Aes256_Sha256_RsaPss",
     "S3", 5, false, true, AsymmetricSignature::pss_sha256, AsymmetricEncryption::oaep_sha256,
     HashAlgorithm::sha256, HashAlgorithm::sha256, 2048, 4096, HashAlgorithm::sha256,
     HashAlgorithm::sha256, 32, 32, 32},
}};

}  // namespace

const SecurityPolicyInfo& policy_info(SecurityPolicy policy) {
  for (const auto& info : kPolicyTable) {
    if (info.id == policy) return info;
  }
  throw std::logic_error("unknown security policy");
}

std::optional<SecurityPolicy> policy_from_uri(std::string_view uri) {
  for (const auto& info : kPolicyTable) {
    if (info.uri == uri) return info.id;
  }
  return std::nullopt;
}

std::optional<SecurityPolicy> policy_from_short_name(std::string_view short_name) {
  for (const auto& info : kPolicyTable) {
    if (info.short_name == short_name) return info.id;
  }
  return std::nullopt;
}

int hash_rank(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return 0;
    case HashAlgorithm::sha1: return 1;
    case HashAlgorithm::sha256: return 2;
  }
  return -1;
}

CertConformance classify_certificate(SecurityPolicy policy, HashAlgorithm cert_hash,
                                     std::size_t key_bits) {
  const SecurityPolicyInfo& info = policy_info(policy);
  if (policy == SecurityPolicy::None) return CertConformance::conformant;  // no requirements
  const bool hash_weak = hash_rank(cert_hash) < hash_rank(info.min_cert_hash);
  const bool key_weak = key_bits < info.min_key_bits;
  if (hash_weak || key_weak) return CertConformance::too_weak;
  const bool hash_strong = hash_rank(cert_hash) > hash_rank(info.max_cert_hash);
  const bool key_strong = key_bits > info.max_key_bits;
  if (hash_strong || key_strong) return CertConformance::too_strong;
  return CertConformance::conformant;
}

}  // namespace opcua_study
