#include "opcua/secureconv.hpp"

#include <algorithm>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "opcua/encoding.hpp"

namespace opcua_study {

DerivedKeys derive_keys(SecurityPolicy policy, std::span<const std::uint8_t> secret,
                        std::span<const std::uint8_t> seed) {
  const SecurityPolicyInfo& info = policy_info(policy);
  DerivedKeys keys;
  if (policy == SecurityPolicy::None) return keys;
  const std::size_t total = info.sym_sig_key_bytes + info.sym_enc_key_bytes + 16;
  const Bytes block = p_hash(info.kdf_hash, secret, seed, total);
  auto it = block.begin();
  keys.sig_key.assign(it, it + static_cast<std::ptrdiff_t>(info.sym_sig_key_bytes));
  it += static_cast<std::ptrdiff_t>(info.sym_sig_key_bytes);
  keys.enc_key.assign(it, it + static_cast<std::ptrdiff_t>(info.sym_enc_key_bytes));
  it += static_cast<std::ptrdiff_t>(info.sym_enc_key_bytes);
  keys.iv.assign(it, it + 16);
  return keys;
}

AsymmetricSigner asymmetric_signer(SecurityPolicy policy) {
  switch (policy_info(policy).asym_signature) {
    case AsymmetricSignature::pkcs1v15_sha1:
      return {"http://www.w3.org/2000/09/xmldsig#rsa-sha1", HashAlgorithm::sha1, false};
    case AsymmetricSignature::pkcs1v15_sha256:
      return {"http://www.w3.org/2001/04/xmldsig-more#rsa-sha256", HashAlgorithm::sha256, false};
    case AsymmetricSignature::pss_sha256:
      return {"http://opcfoundation.org/UA/security/rsa-pss-sha2-256", HashAlgorithm::sha256,
              true};
    case AsymmetricSignature::none: break;
  }
  return {};
}

Bytes AsymmetricSigner::sign(const RsaPrivateKey& key, std::span<const std::uint8_t> data,
                             Rng& rng) const {
  if (algorithm_uri.empty()) return {};
  return pss ? rsa_pss_sign(key, hash, data, rng) : rsa_pkcs1v15_sign(key, hash, data);
}

bool AsymmetricSigner::verify(const RsaPublicKey& key, std::span<const std::uint8_t> data,
                              std::span<const std::uint8_t> signature) const {
  if (algorithm_uri.empty()) return false;
  return pss ? rsa_pss_verify(key, hash, data, signature)
             : rsa_pkcs1v15_verify(key, hash, data, signature);
}

namespace {

/// A policy's RSA encryption scheme: OAEP with its hash, or PKCS#1 v1.5.
struct RsaCipher {
  bool oaep = false;
  HashAlgorithm hash = HashAlgorithm::sha1;

  explicit RsaCipher(SecurityPolicy policy) {
    switch (policy_info(policy).asym_encryption) {
      case AsymmetricEncryption::oaep_sha256: hash = HashAlgorithm::sha256; [[fallthrough]];
      case AsymmetricEncryption::oaep_sha1: oaep = true; break;
      case AsymmetricEncryption::pkcs1v15: break;
      case AsymmetricEncryption::none: throw std::logic_error("policy None has no RSA cipher");
    }
  }
  std::size_t plain_block(const RsaPublicKey& key) const {
    return oaep ? rsa_oaep_max_plaintext(key, hash) : rsa_pkcs1v15_max_plaintext(key);
  }
  Bytes encrypt(const RsaPublicKey& key, std::span<const std::uint8_t> block, Rng& rng) const {
    return oaep ? rsa_oaep_encrypt(key, hash, block, rng) : rsa_pkcs1v15_encrypt(key, block, rng);
  }
  std::optional<Bytes> decrypt(const RsaPrivateKey& key, std::span<const std::uint8_t> block) const {
    return oaep ? rsa_oaep_decrypt(key, hash, block) : rsa_pkcs1v15_decrypt(key, block);
  }
};

// A chunk's protection tells the seal and the open how its secured region
// is signed and encrypted, whether its padding size carries the
// ExtraPaddingSize byte, and names the chunk in the open's errors.

/// The encrypting key is wider than 2048 bits (OPC 10000-6 §6.7.2).
bool needs_extra_padding(std::size_t modulus_bytes) { return modulus_bytes > 256; }

/// OPN under a secured policy, as the sender seals it: signed with the
/// sender's key (PSS draws its salt first), then encrypted block by block
/// under the receiver's public key.
class OpnSeal {
 public:
  OpnSeal(const OpnSecurity& sec, Rng& rng) : sec_(sec), cipher_(sec.policy), rng_(rng) {
    if (sec.local_private == nullptr || sec.remote_public == nullptr) {
      throw std::invalid_argument("secured OPN requires both keys");
    }
  }
  bool encrypted() const { return true; }
  bool extra_padding() const { return needs_extra_padding(cipher_block()); }
  std::size_t signature_size() const { return sec_.local_private->modulus_bytes(); }
  std::size_t plain_block() const { return cipher_.plain_block(*sec_.remote_public); }
  std::size_t cipher_block() const { return sec_.remote_public->modulus_bytes(); }
  Bytes sign(std::span<const std::uint8_t> data) const {
    return asymmetric_signer(sec_.policy).sign(*sec_.local_private, data, rng_);
  }
  Bytes encrypt(std::span<const std::uint8_t> plain) const {
    const std::size_t block = plain_block();
    Bytes out;
    for (std::size_t off = 0; off < plain.size(); off += block) {
      const Bytes cipher = cipher_.encrypt(*sec_.remote_public, plain.subspan(off, block), rng_);
      out.insert(out.end(), cipher.begin(), cipher.end());
    }
    return out;
  }

 private:
  const OpnSecurity& sec_;
  RsaCipher cipher_;
  Rng& rng_;
};

/// OPN under a secured policy, as the receiver opens it: decrypted block by
/// block with its private key, then verified against the certificate the
/// chunk carries, whose public key is parsed into `sender` once the chunk
/// has decrypted.
class OpnOpen {
 public:
  static constexpr std::string_view kind = "OPN";
  static constexpr std::string_view too_short = "OPN plaintext too short";

  OpnOpen(SecurityPolicy policy, const RsaPrivateKey& local_private, const Bytes& sender_cert_der,
          RsaPublicKey& sender)
      : policy_(policy),
        cipher_(policy),
        local_(local_private),
        sender_der_(sender_cert_der),
        sender_(sender) {}
  bool encrypted() const { return true; }
  bool extra_padding() const { return needs_extra_padding(local_.modulus_bytes()); }
  Bytes decrypt(std::span<const std::uint8_t> region) const {
    const std::size_t block = local_.modulus_bytes();
    if (region.empty() || region.size() % block != 0) {
      throw DecodeError("OPN encrypted region not block-aligned");
    }
    Bytes plain;
    for (std::size_t off = 0; off < region.size(); off += block) {
      const auto decrypted = cipher_.decrypt(local_, region.subspan(off, block));
      if (!decrypted) throw DecodeError("OPN block decryption failed");
      plain.insert(plain.end(), decrypted->begin(), decrypted->end());
    }
    return plain;
  }
  std::size_t signature_size() {
    sender_ = x509_parse(sender_der_).public_key;
    return sender_.modulus_bytes();
  }
  bool verify(std::span<const std::uint8_t> data, std::span<const std::uint8_t> signature) const {
    return asymmetric_signer(policy_).verify(sender_, data, signature);
  }

 private:
  SecurityPolicy policy_;
  RsaCipher cipher_;
  const RsaPrivateKey& local_;
  const Bytes& sender_der_;
  RsaPublicKey& sender_;
};

/// MSG and CLO in Sign or SignAndEncrypt: an HMAC with the sender's signing
/// key and, when encrypted, AES-CBC under its encryption key.
class MsgProtection {
 public:
  static constexpr std::string_view kind = "MSG";
  static constexpr std::string_view too_short = "MSG too short";

  MsgProtection(SecurityPolicy policy, MessageSecurityMode mode, const DerivedKeys& keys)
      : mac_(policy_info(policy).sym_mac_hash),
        encrypted_(mode == MessageSecurityMode::SignAndEncrypt),
        keys_(keys) {}
  bool encrypted() const { return encrypted_; }
  bool extra_padding() const { return false; }
  std::size_t signature_size() const { return digest_size(mac_); }
  std::size_t plain_block() const { return 16; }
  std::size_t cipher_block() const { return 16; }
  Bytes sign(std::span<const std::uint8_t> data) const { return hmac(mac_, keys_.sig_key, data); }
  bool verify(std::span<const std::uint8_t> data, std::span<const std::uint8_t> signature) const {
    return std::ranges::equal(sign(data), signature);
  }
  Bytes encrypt(std::span<const std::uint8_t> plain) const {
    return aes_cbc_encrypt(keys_.enc_key, keys_.iv, plain);
  }
  Bytes decrypt(std::span<const std::uint8_t> region) const {
    if (region.size() % 16 != 0) throw DecodeError("MSG ciphertext not block-aligned");
    return aes_cbc_decrypt(keys_.enc_key, keys_.iv, region);
  }

 private:
  HashAlgorithm mac_;
  bool encrypted_;
  const DerivedKeys& keys_;
};

/// MSG and CLO are protected unless the policy or the mode is None.
std::optional<MsgProtection> msg_protection(SecurityPolicy policy, MessageSecurityMode mode,
                                            const DerivedKeys& keys) {
  if (mode == MessageSecurityMode::None || policy == SecurityPolicy::None) return std::nullopt;
  return MsgProtection(policy, mode, keys);
}

// ------------------------------------------------------ seal and open ----

/// Bytes that carry a chunk's padding size: none unless it is encrypted,
/// then PaddingSize, and ExtraPaddingSize (the high byte) after it when
/// the protection says so.
template <typename Protection>
std::size_t padding_size_bytes(const Protection& protection) {
  if (!protection.encrypted()) return 0;
  return protection.extra_padding() ? 2 : 1;
}

/// Seals one chunk: the sequence header and body; when `protection` is
/// set, padding to whole blocks if it encrypts, the signature over the
/// whole chunk so far (the header already holding the final size), and the
/// encryption of the secured region.
template <typename Protection>
Bytes seal_chunk(std::string_view type, std::span<const std::uint8_t> prefix, SequenceHeader seq,
                 std::span<const std::uint8_t> body,
                 const std::optional<Protection>& protection) {
  const bool encrypted = protection && protection->encrypted();
  const std::size_t sig_len = protection ? protection->signature_size() : 0;
  const std::size_t size_bytes = protection ? padding_size_bytes(*protection) : 0;
  const std::size_t block = encrypted ? protection->plain_block() : 1;
  // Encrypted: plain + padding + padding-size bytes + signature fill blocks.
  const std::size_t unpadded = 8 + body.size() + sig_len + size_bytes;
  const std::size_t padding = (block - unpadded % block) % block;
  const std::size_t secured_size =
      encrypted ? (unpadded + padding) / block * protection->cipher_block() : unpadded;
  const std::size_t final_size = 8 + prefix.size() + secured_size;

  ByteWriter w;
  w.raw(type);
  w.u8('F');
  w.u32(static_cast<std::uint32_t>(final_size));
  w.raw(prefix);
  const std::size_t region = w.size();
  w.u32(seq.sequence_number);
  w.u32(seq.request_id);
  w.raw(body);
  if (encrypted) {
    // Each padding byte and PaddingSize hold the size's low byte.
    for (std::size_t i = 0; i <= padding; ++i) w.u8(static_cast<std::uint8_t>(padding));
    if (size_bytes == 2) w.u8(static_cast<std::uint8_t>(padding >> 8));
  }
  if (protection) {
    const Bytes signature = protection->sign(w.bytes());
    if (signature.size() != sig_len) throw std::logic_error("chunk signature length mismatch");
    w.raw(signature);
  }
  Bytes out = w.take();
  if (encrypted) {
    const Bytes cipher = protection->encrypt(std::span<const std::uint8_t>(out).subspan(region));
    out.resize(region);
    out.insert(out.end(), cipher.begin(), cipher.end());
  }
  if (out.size() != final_size) throw std::logic_error(std::string(type) + " size bookkeeping error");
  return out;
}

/// Opens one chunk: the framing, then the prefix, which `read_prefix(type,
/// reader)` checks and reads and which names the chunk's protection (none:
/// an empty optional). A protected chunk is decrypted if it is encrypted;
/// its signature is split off and checked; its padding is checked and
/// stripped, within the bound that leaves the sequence header whole. Then
/// the sequence header, into `seq`. Returns the body.
template <typename ReadPrefix>
Bytes open_chunk(std::span<const std::uint8_t> wire, SequenceHeader& seq,
                 ReadPrefix&& read_prefix) {
  const Frame frame = parse_frame(wire);
  UaReader r(frame.body);
  auto protection = read_prefix(frame.type, r);
  const std::size_t head = wire.size() - r.remaining();  // frame header + prefix
  Bytes secured = r.base().raw(r.remaining());
  std::size_t body_end = secured.size();
  if (protection) {
    auto& p = *protection;
    const std::string kind(p.kind);
    if (p.encrypted()) secured = p.decrypt(secured);
    const std::size_t sig_len = p.signature_size();
    const std::size_t size_bytes = padding_size_bytes(p);
    if (secured.size() < 8 + size_bytes + sig_len) throw DecodeError(std::string(p.too_short));
    body_end = secured.size() - sig_len;
    Bytes signed_view(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(head));
    signed_view.insert(signed_view.end(), secured.begin(),
                       secured.begin() + static_cast<std::ptrdiff_t>(body_end));
    if (!p.verify(signed_view, std::span<const std::uint8_t>(secured).subspan(body_end))) {
      throw DecodeError(kind + " signature verification failed");
    }
    if (size_bytes > 0) {
      const std::uint8_t low = secured[body_end - size_bytes];
      std::size_t padding = low;
      if (size_bytes == 2) padding |= std::size_t{secured[body_end - 1]} << 8;
      if (body_end < padding + size_bytes + 8) throw DecodeError(kind + " padding underflow");
      for (std::size_t i = 0; i < padding; ++i) {
        if (secured[body_end - size_bytes - 1 - i] != low) {
          throw DecodeError(kind + " padding corrupt");
        }
      }
      body_end -= padding + size_bytes;
    }
  }
  UaReader body(std::span<const std::uint8_t>(secured).first(body_end));
  seq.sequence_number = body.u32();
  seq.request_id = body.u32();
  return body.base().raw(body.remaining());
}

}  // namespace

// ------------------------------------------------------------ entry points ----

Bytes build_opn(std::uint32_t channel_id, const OpnSecurity& sec, SequenceHeader seq,
                std::span<const std::uint8_t> body, Rng& rng) {
  const bool secured = sec.policy != SecurityPolicy::None;
  UaWriter prefix;
  prefix.u32(channel_id);
  prefix.string(std::string(policy_info(sec.policy).uri));
  for (const Bytes* field : {&sec.local_cert_der, &sec.remote_cert_thumbprint}) {
    secured && !field->empty() ? prefix.byte_string(*field) : prefix.null_byte_string();
  }
  std::optional<OpnSeal> protection;
  if (secured) protection.emplace(sec, rng);
  return seal_chunk("OPN", prefix.bytes(), seq, body, protection);
}

OpnParsed parse_opn(std::span<const std::uint8_t> wire, const RsaPrivateKey* local_private) {
  OpnParsed out;
  out.body = open_chunk(wire, out.seq, [&](const std::string& type, UaReader& r) {
    if (type != "OPN") throw DecodeError("not an OPN frame");
    out.channel_id = r.u32();
    out.policy_uri = r.string();
    const auto policy = policy_from_uri(out.policy_uri);
    if (!policy) throw DecodeError("unknown security policy URI: " + out.policy_uri);
    out.policy = *policy;
    out.sender_cert_der = r.byte_string();
    out.receiver_cert_thumbprint = r.byte_string();
    std::optional<OpnOpen> protection;
    if (out.policy != SecurityPolicy::None) {
      if (local_private == nullptr) throw DecodeError("secured OPN but no private key to decrypt");
      protection.emplace(out.policy, *local_private, out.sender_cert_der, out.sender_public);
    }
    return protection;
  });
  return out;
}

Bytes build_msg(std::string_view frame_type, std::uint32_t channel_id, std::uint32_t token_id,
                SequenceHeader seq, std::span<const std::uint8_t> body, SecurityPolicy policy,
                MessageSecurityMode mode, const DerivedKeys& sender_keys) {
  UaWriter prefix;
  prefix.u32(channel_id);
  prefix.u32(token_id);
  return seal_chunk(frame_type, prefix.bytes(), seq, body,
                    msg_protection(policy, mode, sender_keys));
}

MsgParsed parse_msg(std::span<const std::uint8_t> wire, SecurityPolicy policy,
                    MessageSecurityMode mode, const DerivedKeys& sender_keys) {
  MsgParsed out;
  out.body = open_chunk(wire, out.seq, [&](const std::string& type, UaReader& r) {
    if (type != "MSG" && type != "CLO") throw DecodeError("not a MSG/CLO frame");
    out.channel_id = r.u32();
    out.token_id = r.u32();
    return msg_protection(policy, mode, sender_keys);
  });
  return out;
}

}  // namespace opcua_study
