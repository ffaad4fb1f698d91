// UA SecureConversation (OPC 10000-6 §6): securing OPN and MSG chunks.
//
// Every chunk is one frame header, a prefix in the clear and a secured
// region:
//   OPN:      channel id | asymmetric security header (policy URI, sender
//             certificate, receiver certificate thumbprint)
//   MSG, CLO: channel id | token id
// followed by
//   SequenceHeader | Body | Padding* | PaddingSize | ExtraPaddingSize? |
//   Signature
// One seal and one open (secureconv.cpp) handle that layout for every
// chunk; the four entry points below only write or read their prefix and
// name their chunk's protection:
//   OPN under any policy but None: the policy's asymmetric signature with
//     the sender's key, RSA blocks under the receiver's public key;
//   MSG and CLO in Sign or SignAndEncrypt: HMAC, and AES-CBC when
//     encrypted, with keys derived from the handshake nonces via P_SHA.
// Padding fills whole cipher blocks and is present only when the chunk is
// encrypted. Every padding byte and PaddingSize hold the padding size's low
// byte; an OPN whose encrypting key (the receiver's) is wider than 2048
// bits adds ExtraPaddingSize, the high byte (OPC 10000-6 §6.7.2). The
// signature covers the whole chunk up to (excluding) itself, with the
// final message size already in the header, as the spec requires.
// The open checks the signature before it strips the padding, and rejects a
// padding size that would reach into the sequence header. Single-chunk
// messages only ('F'), which the study's message sizes never exceed.
#pragma once

#include <optional>

#include "crypto/rsa.hpp"
#include "crypto/x509.hpp"
#include "opcua/secpolicy.hpp"
#include "opcua/transport.hpp"
#include "util/rng.hpp"

namespace opcua_study {

/// Symmetric key block for one direction of a channel.
struct DerivedKeys {
  Bytes sig_key;
  Bytes enc_key;
  Bytes iv;
};

/// OPC UA key derivation: keys for the direction whose *remote* nonce is the
/// secret and *local* nonce is the seed (OPC 10000-6 §6.7.5).
DerivedKeys derive_keys(SecurityPolicy policy, std::span<const std::uint8_t> secret,
                        std::span<const std::uint8_t> seed);

struct SequenceHeader {
  std::uint32_t sequence_number = 1;
  std::uint32_t request_id = 1;
};

/// A policy's asymmetric signature (OPC 10000-6 §6.1): the RSA call that
/// signs and verifies with it, and the algorithm URI a SignatureData names.
/// It signs OPN chunks and the CreateSession proof of possession. Policy
/// None has no URI, signs nothing and verifies nothing (false).
struct AsymmetricSigner {
  std::string_view algorithm_uri;
  HashAlgorithm hash = HashAlgorithm::sha1;
  bool pss = false;  // RSA-PSS; otherwise PKCS#1 v1.5

  Bytes sign(const RsaPrivateKey& key, std::span<const std::uint8_t> data, Rng& rng) const;
  bool verify(const RsaPublicKey& key, std::span<const std::uint8_t> data,
              std::span<const std::uint8_t> signature) const;
};

AsymmetricSigner asymmetric_signer(SecurityPolicy policy);

// ------------------------------------------------------------------ OPN ----

struct OpnSecurity {
  SecurityPolicy policy = SecurityPolicy::None;
  /// Sender side (signing); null for policy None.
  const RsaPrivateKey* local_private = nullptr;
  Bytes local_cert_der;
  /// Receiver side (encryption); null for policy None.
  const RsaPublicKey* remote_public = nullptr;
  Bytes remote_cert_thumbprint;
};

Bytes build_opn(std::uint32_t channel_id, const OpnSecurity& sec, SequenceHeader seq,
                std::span<const std::uint8_t> body, Rng& rng);

struct OpnParsed {
  std::uint32_t channel_id = 0;
  std::string policy_uri;
  SecurityPolicy policy = SecurityPolicy::None;
  Bytes sender_cert_der;           // empty if none sent
  RsaPublicKey sender_public;      // its key, as the open parsed it; empty under None
  Bytes receiver_cert_thumbprint;  // empty if none sent
  SequenceHeader seq;
  Bytes body;
};

/// Parse and (for secured policies) decrypt + verify an OPN chunk.
/// `local_private` is the receiver's key for decryption; signature is
/// verified against the sender certificate embedded in the message.
/// Throws DecodeError on malformed or cryptographically invalid chunks.
OpnParsed parse_opn(std::span<const std::uint8_t> wire, const RsaPrivateKey* local_private);

// ------------------------------------------------------------------ MSG ----

Bytes build_msg(std::string_view frame_type, std::uint32_t channel_id, std::uint32_t token_id,
                SequenceHeader seq, std::span<const std::uint8_t> body, SecurityPolicy policy,
                MessageSecurityMode mode, const DerivedKeys& sender_keys);

struct MsgParsed {
  std::uint32_t channel_id = 0;
  std::uint32_t token_id = 0;
  SequenceHeader seq;
  Bytes body;
};

MsgParsed parse_msg(std::span<const std::uint8_t> wire, SecurityPolicy policy,
                    MessageSecurityMode mode, const DerivedKeys& sender_keys);

}  // namespace opcua_study
