// OPC UA status codes (OPC 10000-4, subset used by this stack).
#pragma once

#include <cstdint>

namespace opcua_study {

enum class StatusCode : std::uint32_t {
  Good = 0x00000000,
  BadUnexpectedError = 0x80010000,
  BadInternalError = 0x80020000,
  BadTimeout = 0x800A0000,
  BadServiceUnsupported = 0x800B0000,
  BadCommunicationError = 0x80050000,
  BadEncodingError = 0x80060000,
  BadDecodingError = 0x80070000,
  BadEncodingLimitsExceeded = 0x80080000,
  BadRequestTooLarge = 0x80B80000,
  BadConnectionRejected = 0x80AC0000,
  BadSecureChannelIdInvalid = 0x80220000,
  BadSecurityChecksFailed = 0x80130000,
  BadCertificateInvalid = 0x80120000,
  BadCertificateUntrusted = 0x801A0000,
  BadCertificateUriInvalid = 0x80170000,
  BadSecurityModeRejected = 0x80E60000,
  BadSecurityPolicyRejected = 0x80550000,
  BadIdentityTokenInvalid = 0x80200000,
  BadIdentityTokenRejected = 0x80210000,
  BadUserAccessDenied = 0x801F0000,
  BadSessionIdInvalid = 0x80250000,
  BadSessionClosed = 0x80260000,
  BadSessionNotActivated = 0x80270000,
  BadTooManySessions = 0x80560000,
  BadNodeIdUnknown = 0x80340000,
  BadAttributeIdInvalid = 0x80350000,
  BadNotReadable = 0x803A0000,
  BadNotWritable = 0x803B0000,
  BadNotExecutable = 0x81C10000,
  BadContinuationPointInvalid = 0x804A0000,
  BadNothingToDo = 0x800F0000,
  BadTcpMessageTypeInvalid = 0x807E0000,
  BadTcpEndpointUrlInvalid = 0x80830000,
  BadRequestInterrupted = 0x80840000,
};

inline bool is_good(StatusCode code) {
  return (static_cast<std::uint32_t>(code) & 0x80000000u) == 0;
}
inline bool is_bad(StatusCode code) { return !is_good(code); }

}  // namespace opcua_study
