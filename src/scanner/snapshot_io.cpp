#include "scanner/snapshot_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include <chrono>

#include "crypto/x509.hpp"
#include "obs/metrics.hpp"
#include "opcua/encoding.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OPCUA_STUDY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define OPCUA_STUDY_HAVE_MMAP 0
#endif

namespace opcua_study {

namespace {

constexpr std::uint32_t kMagic = 0x4f554153;       // "OUAS"
constexpr std::uint32_t kVersion = 6;
constexpr std::uint32_t kChunkMagic = 0x4b4e4843;  // "CHNK"
constexpr std::uint32_t kFooterMagic = 0x544f4f46; // "FOOT"
constexpr std::uint32_t kDictMagic = 0x43494443;   // "CDIC"
constexpr std::uint32_t kCampaignMagic = 0x504d4143;  // "CAMP"
constexpr std::uint32_t kProtocolMagic = 0x544f5250;  // "PROT"
constexpr std::uint32_t kEndMagic = 0x50414e53;    // "SNAP"
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 4 + 8;  // 8-aligned
constexpr std::size_t kTrailerBytes = 8 + 4;
// Sanity ceilings: a corrupt length field must fail fast, not drive a
// multi-gigabyte reserve() or an hours-long decode loop.
constexpr std::uint32_t kMaxSnapshots = 100000;
constexpr std::uint64_t kMaxChunks = 1u << 26;
constexpr std::uint64_t kMaxDictEntries = 1u << 26;

/// "opcua+mqtt-tls" for a protocol mask (bit p = protocol id p).
std::string protocol_set_name(std::uint32_t mask) {
  std::string s;
  for (std::uint32_t p = 0; p < 32; ++p) {
    if (mask & (1u << p)) {
      if (!s.empty()) s += "+";
      s += protocol_name(static_cast<ProtocolId>(p));
    }
  }
  return s;
}

/// The protocols a measurement scans: its mask, or OPC UA alone when a
/// week with hosts has none (the writer omits the 'PROT' block for an
/// OPC-UA-only file). An empty week scans nothing.
std::uint32_t scanned_protocols(const SnapshotMeta& meta) {
  if (meta.protocol_mask != 0 || meta.host_count == 0) return meta.protocol_mask;
  return 1u << static_cast<std::uint32_t>(ProtocolId::opcua);
}

/// Error-message context naming what protocol family the failing data
/// claims to hold: "protocols=opcua+mqtt-tls" (a file without a protocol
/// block is OPC-UA-only by construction).
std::string protocol_context(std::uint32_t mask) {
  return "protocols=" + (mask == 0 ? std::string("opcua") : protocol_set_name(mask));
}

/// ColumnEncoder's index key: a word-at-a-time multiply-xorshift mix of
/// the DER. Only a bucket key (equal keys still compare bytes) that never
/// leaves the process, so native byte order is fine.
std::uint64_t content_key(std::span<const std::uint8_t> der) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = der.size() * kMul;
  const std::uint8_t* p = der.data();
  std::size_t n = der.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 29);
}

/// Dictionary entries per work unit of the open-time fingerprint check:
/// one SHA-1 of a ~1 KiB DER is a few microseconds, so single entries
/// would mostly measure the pool, and a small dictionary stays inline.
constexpr std::size_t kDigestBlock = 64;

/// v6 chunk payloads are padded so every chunk header lands on an 8-byte
/// boundary (the header itself is 24 bytes, the file header 16).
std::uint64_t v6_padding(std::uint64_t payload_bytes) { return (8 - payload_bytes % 8) % 8; }

// Enum fields come off disk as raw integers; a flipped bit must surface as
// a DecodeError, not as an out-of-range enum that downstream switch
// statements silently misclassify.
std::uint32_t checked_enum(std::uint32_t v, std::uint32_t max, const char* field) {
  if (v > max) {
    throw DecodeError(std::string("snapshot record: invalid ") + field + " value " +
                      std::to_string(v));
  }
  return v;
}

NodeClass node_class_from_value(std::uint32_t v) {
  switch (v) {
    case 0: return NodeClass::Unspecified;
    case 1: return NodeClass::Object;
    case 2: return NodeClass::Variable;
    case 4: return NodeClass::Method;
    default:
      throw DecodeError("snapshot record: invalid node class value " + std::to_string(v));
  }
}

/// A v6 endpoint's policy code: true when an explicit policy URI follows
/// (255), false for a table policy (0..5).
bool explicit_policy_uri(std::uint8_t code) {
  if (code == 0xff) return true;
  if (code > 5) {
    throw DecodeError("snapshot record: invalid policy code value " + std::to_string(code));
  }
  return false;
}

ProtocolId checked_protocol(std::uint8_t code) {
  if (code == 0) {
    throw DecodeError(
        "snapshot record: zero protocol tail byte (non-canonical; OPC UA records carry no "
        "protocol tail)");
  }
  if (code >= kProtocolCount) {
    throw DecodeError("snapshot record: invalid protocol value " + std::to_string(code));
  }
  return static_cast<ProtocolId>(code);
}

std::uint32_t checked_cert_id(std::uint32_t id, std::size_t dict_size) {
  if (id >= dict_size) {
    throw DecodeError("certificate id " + std::to_string(id) + " out of dictionary range (" +
                      std::to_string(dict_size) + " entries)");
  }
  return id;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot file not found: " + path);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// The one builder of a ColumnView: the columns of a v6 chunk payload
/// holding `records` records, laid out as the format comment in
/// snapshot_io.hpp says (fixed section 47n+4 bytes, var column behind
/// it). Checks the fixed section's size, the var_offsets chain and,
/// record by record, the five enum columns; DecodeError names the first
/// violation.
ColumnView view_payload(std::span<const std::uint8_t> payload, std::uint32_t records,
                        std::uint32_t snapshot_ordinal) {
  const std::uint64_t fixed = 47ull * records + 4;
  if (payload.size() < fixed) throw DecodeError("chunk payload shorter than its fixed columns");
  const std::uint64_t var_bytes = payload.size() - fixed;
  if (var_bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw DecodeError("var column too large for its u32 offsets");
  }
  const std::size_t n = records;
  const auto column = [&payload](std::size_t bytes) {
    const auto out = payload.first(bytes);
    payload = payload.subspan(bytes);
    return out;
  };
  ColumnView v;
  v.snapshot_ordinal = snapshot_ordinal;
  v.records = n;
  v.bytes_sent = LeColumn<std::uint64_t>(column(8 * n));
  v.uri_hash = LeColumn<std::uint64_t>(column(8 * n));
  v.duration_seconds = LeColumn<double>(column(8 * n));
  v.ip = LeColumn<std::uint32_t>(column(4 * n));
  v.asn = LeColumn<std::uint32_t>(column(4 * n));
  v.var_offsets = LeColumn<std::uint32_t>(column(4 * (n + 1)));
  v.port = LeColumn<std::uint16_t>(column(2 * n));
  for (auto* bytes : {&v.application_type, &v.channel, &v.channel_policy, &v.channel_mode,
                      &v.session, &v.flags, &v.mode_mask, &v.policy_mask, &v.token_mask}) {
    *bytes = column(n);
  }
  v.var_blob = payload;

  std::uint32_t prev = v.var_offsets[0];
  if (prev != 0) throw DecodeError("var offsets do not start at zero");
  for (std::size_t i = 1; i <= n; ++i) {
    const std::uint32_t cur = v.var_offsets[i];
    if (cur < prev) throw DecodeError("var offsets not monotone");
    prev = cur;
  }
  if (prev != var_bytes) throw DecodeError("var offsets do not cover the var column");
  for (std::size_t i = 0; i < n; ++i) {
    checked_enum(v.application_type[i], 3, "application type");
    checked_enum(v.channel[i], 3, "channel outcome");
    checked_enum(v.channel_policy[i], 5, "channel policy");
    checked_enum(v.channel_mode[i], 3, "channel mode");
    checked_enum(v.session[i], 3, "session outcome");
  }
  return v;
}

/// The view of the v6 chunk `info` indexes in the file bytes at `data`,
/// for read_chunk and column_view alike: the chunk header must repeat its
/// index entry before view_payload checks the payload.
ColumnView locate_v6_chunk(const std::uint8_t* data, const SnapshotChunkInfo& info) {
  const std::uint8_t* base = data + info.file_offset;
  UaReader h(std::span<const std::uint8_t>(base, kChunkHeaderBytes));
  if (h.u32() != kChunkMagic || h.u32() != info.snapshot_ordinal ||
      h.u32() != info.record_count || h.u32() != 0 || h.u64() != info.payload_bytes) {
    throw DecodeError("chunk header disagrees with footer index");
  }
  return view_payload({base + kChunkHeaderBytes, static_cast<std::size_t>(info.payload_bytes)},
                      info.record_count, info.snapshot_ordinal);
}

/// Record i of a v6 chunk's view as a full HostScanRecord, certificates
/// copied out of `dict`. The derived columns (uri_hash, mode/policy/token
/// masks) and the head cert id list are re-derived from the decoded
/// fields and cross-checked, so corruption in either representation
/// surfaces as a DecodeError.
HostScanRecord read_row(const ColumnView& view, const CertDictionary& dict, std::size_t i) {
  HostScanRecord host;
  host.ip = view.ip[i];
  host.port = view.port[i];
  host.asn = view.asn[i];
  const std::uint8_t flags = view.flags[i];
  host.tcp_open = flags & snapshot_flags::kTcpOpen;
  host.speaks_opcua = flags & snapshot_flags::kSpeaksOpcua;
  host.found_via_reference = flags & snapshot_flags::kFoundViaReference;
  host.server_signature_valid = flags & snapshot_flags::kServerSignatureValid;
  host.anonymous_offered = flags & snapshot_flags::kAnonymousOffered;
  host.traversal_truncated = flags & snapshot_flags::kTraversalTruncated;
  // The view range-checked the enum columns.
  host.application_type = static_cast<ApplicationType>(view.application_type[i]);
  host.channel = static_cast<ChannelOutcome>(view.channel[i]);
  host.channel_policy = static_cast<SecurityPolicy>(view.channel_policy[i]);
  host.channel_mode = static_cast<MessageSecurityMode>(view.channel_mode[i]);
  host.session = static_cast<SessionOutcome>(view.session[i]);
  host.bytes_sent = view.bytes_sent[i];
  host.duration_seconds = view.duration_seconds[i];

  VarRecordCursor cursor(view.var_record(i));
  std::vector<std::uint32_t> head;
  cursor.cert_ids(head, &dict);
  host.application_uri = cursor.application_uri();
  host.product_uri = cursor.product_uri();
  host.application_name = cursor.application_name();
  host.software_version = cursor.software_version();
  std::vector<std::uint32_t> ep_ids;
  host.endpoints = cursor.endpoints(dict, ep_ids);
  host.referenced_targets = cursor.referenced_targets();
  host.namespaces = cursor.namespaces();
  host.nodes = cursor.nodes();
  cursor.tails(flags, host);

  // Cross-check every derived representation against the decoded record.
  std::vector<std::uint32_t> expect_head;
  std::uint8_t mode_mask = 0, policy_mask = 0, token_mask = 0;
  for (std::size_t e = 0; e < host.endpoints.size(); ++e) {
    const EndpointObservation& ep = host.endpoints[e];
    mode_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(ep.mode));
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      policy_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(*policy));
    }
    for (const UserTokenType t : ep.token_types) {
      token_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(t));
    }
    const std::uint32_t id = ep_ids[e];
    if (id != kNoCertId &&
        std::find(expect_head.begin(), expect_head.end(), id) == expect_head.end()) {
      expect_head.push_back(id);
    }
  }
  if (head != expect_head) {
    throw DecodeError("certificate id list disagrees with the record's endpoints");
  }
  if (mode_mask != view.mode_mask[i] || policy_mask != view.policy_mask[i] ||
      token_mask != view.token_mask[i]) {
    throw DecodeError("derived security columns disagree with the record's endpoints");
  }
  const std::uint64_t uri_hash =
      host.application_uri.empty() ? 0 : hash64(host.application_uri);
  if (uri_hash != view.uri_hash[i]) {
    throw DecodeError("uri hash column disagrees with the record's application URI");
  }
  return host;
}

}  // namespace

// -------------------------------------------------- var-record cursor ----

void VarRecordCursor::skip_string() {
  const std::int32_t len = r_.i32();
  if (len > 0) r_.base().skip(static_cast<std::size_t>(len));
}

void VarRecordCursor::advance(int target) {
  if (stage_ > target) {
    throw DecodeError("var record cursor: fields must be read in field order");
  }
  while (stage_ < target) {
    switch (stage_) {
      case kCertIds: {
        const std::uint16_t n = r_.u16();
        r_.base().skip(4ull * n);
        break;
      }
      case kApplicationUri:
      case kProductUri:
      case kApplicationName:
      case kSoftwareVersion:
        skip_string();
        break;
      case kEndpoints: {
        const std::uint32_t n = r_.u32();
        for (std::uint32_t e = 0; e < n; ++e) {
          skip_string();  // url
          r_.byte();      // mode
          if (explicit_policy_uri(r_.byte())) skip_string();
          const std::uint8_t n_tokens = r_.byte();
          r_.base().skip(n_tokens);
          r_.u32();  // cert id
        }
        break;
      }
      case kRefs: {
        const std::uint32_t n = r_.u32();
        r_.base().skip(6ull * n);
        break;
      }
      case kNamespaces: {
        const std::int32_t n = r_.i32();
        for (std::int32_t k = 0; k < n; ++k) skip_string();
        break;
      }
      case kNodes: {
        const std::uint32_t n = r_.u32();
        for (std::uint32_t k = 0; k < n; ++k) {
          skip_string();  // browse name
          r_.base().skip(2);  // node class, access bits
        }
        break;
      }
      default:
        break;
    }
    ++stage_;
  }
}

void VarRecordCursor::cert_ids(std::vector<std::uint32_t>& out, const CertDictionary* dict) {
  advance(kCertIds);
  out.clear();
  const std::uint16_t n = r_.u16();
  out.reserve(n);
  for (std::uint16_t k = 0; k < n; ++k) {
    const std::uint32_t id = r_.u32();
    out.push_back(dict != nullptr ? checked_cert_id(id, dict->cert_count()) : id);
  }
  stage_ = kApplicationUri;
}

std::string VarRecordCursor::application_uri() {
  advance(kApplicationUri);
  std::string s = r_.string();
  stage_ = kProductUri;
  return s;
}

std::string VarRecordCursor::product_uri() {
  advance(kProductUri);
  std::string s = r_.string();
  stage_ = kApplicationName;
  return s;
}

std::string VarRecordCursor::application_name() {
  advance(kApplicationName);
  std::string s = r_.string();
  stage_ = kSoftwareVersion;
  return s;
}

std::string VarRecordCursor::software_version() {
  advance(kSoftwareVersion);
  std::string s = r_.string();
  stage_ = kEndpoints;
  return s;
}

std::vector<EndpointObservation> VarRecordCursor::endpoints(
    const CertDictionary& dict, std::vector<std::uint32_t>& cert_ids) {
  advance(kEndpoints);
  cert_ids.clear();
  std::vector<EndpointObservation> out;
  const std::uint32_t n = r_.u32();
  for (std::uint32_t e = 0; e < n; ++e) {
    EndpointObservation ep;
    ep.url = r_.string();
    ep.mode = static_cast<MessageSecurityMode>(checked_enum(r_.byte(), 3, "security mode"));
    const std::uint8_t code = r_.byte();
    if (explicit_policy_uri(code)) {
      ep.policy_uri = r_.string();
      if (const auto policy = policy_from_uri(ep.policy_uri)) {
        ep.policy = *policy;
        ep.policy_known = true;
      }
    } else {
      ep.policy = static_cast<SecurityPolicy>(code);
      ep.policy_known = true;
      ep.policy_uri = std::string(policy_info(ep.policy).uri);
    }
    const std::uint8_t n_tokens = r_.byte();
    for (std::uint8_t t = 0; t < n_tokens; ++t) {
      ep.token_types.push_back(
          static_cast<UserTokenType>(checked_enum(r_.byte(), 3, "user token type")));
    }
    const std::uint32_t cert_id = r_.u32();
    if (cert_id != kNoCertId) {
      const auto der = dict.cert_der(checked_cert_id(cert_id, dict.cert_count()));
      ep.certificate_der.assign(der.begin(), der.end());
    }
    cert_ids.push_back(cert_id);
    out.push_back(std::move(ep));
  }
  stage_ = kRefs;
  return out;
}

std::vector<std::pair<Ipv4, std::uint16_t>> VarRecordCursor::referenced_targets() {
  advance(kRefs);
  std::vector<std::pair<Ipv4, std::uint16_t>> out;
  const std::uint32_t n = r_.u32();
  for (std::uint32_t k = 0; k < n; ++k) {
    const Ipv4 ip = r_.u32();
    out.emplace_back(ip, r_.u16());
  }
  stage_ = kNamespaces;
  return out;
}

std::vector<std::string> VarRecordCursor::namespaces() {
  advance(kNamespaces);
  std::vector<std::string> out = r_.string_array();
  stage_ = kNodes;
  return out;
}

NodeObservation VarRecordCursor::node_fields() {
  NodeObservation node;
  node.node_class = node_class_from_value(r_.byte());
  const std::uint8_t access = r_.byte();
  if (access & ~0x7u) {
    throw DecodeError("snapshot record: invalid node access bits " + std::to_string(access));
  }
  node.readable = access & 0x1;
  node.writable = access & 0x2;
  node.executable = access & 0x4;
  return node;
}

std::vector<NodeObservation> VarRecordCursor::nodes() {
  advance(kNodes);
  std::vector<NodeObservation> out;
  const std::uint32_t n = r_.u32();
  for (std::uint32_t k = 0; k < n; ++k) {
    std::string browse_name = r_.string();
    out.push_back(node_fields());
    out.back().browse_name = std::move(browse_name);
  }
  stage_ = kTails;
  return out;
}

void VarRecordCursor::visit_nodes(
    const std::function<void(NodeClass, bool, bool, bool)>& fn) {
  advance(kNodes);
  const std::uint32_t n = r_.u32();
  for (std::uint32_t k = 0; k < n; ++k) {
    skip_string();  // browse name
    const NodeObservation node = node_fields();
    fn(node.node_class, node.readable, node.writable, node.executable);
  }
  stage_ = kTails;
}

void VarRecordCursor::tails(std::uint8_t flags, HostScanRecord& host) {
  advance(kTails);
  if (flags & snapshot_flags::kScanQuality) {
    host.completeness = static_cast<ProbeOutcome>(checked_enum(r_.byte(), 3, "completeness"));
    host.retries = r_.u16();
    host.fault_events = r_.u16();
    if (host.completeness == ProbeOutcome::complete && host.retries == 0 &&
        host.fault_events == 0) {
      throw DecodeError("snapshot record: all-zero scan-quality tail (non-canonical)");
    }
  }
  if (flags & snapshot_flags::kProtocol) host.protocol = checked_protocol(r_.byte());
  if (!r_.done()) throw DecodeError("var record longer than its fields");
  stage_ = kTails + 1;
}

// ------------------------------------------------------ column access ----

ProtocolId ColumnView::protocol(std::size_t i) const {
  if (!(flags[i] & snapshot_flags::kProtocol)) return ProtocolId::opcua;
  const std::uint32_t end = var_offsets[i + 1];
  if (end == var_offsets[i]) throw DecodeError("var record too short for its protocol tail");
  return checked_protocol(var_blob[end - 1]);
}

ColumnView::Quality ColumnView::quality(std::size_t i) const {
  Quality q;
  if (!(flags[i] & snapshot_flags::kScanQuality)) return q;
  // Tails sit at the end of the var slice: [quality 5B][protocol 1B].
  const std::uint32_t tails = (flags[i] & snapshot_flags::kProtocol) ? 6 : 5;
  const std::uint32_t end = var_offsets[i + 1];
  if (end - var_offsets[i] < tails) {
    throw DecodeError("var record too short for its scan-quality tail");
  }
  UaReader t(var_blob.subspan(end - tails, 5));
  q.completeness = static_cast<std::uint8_t>(checked_enum(t.byte(), 3, "completeness"));
  q.retries = t.u16();
  q.fault_events = t.u16();
  return q;
}

// ------------------------------------------------------ column encoder ----

std::uint64_t CertDictionary::cert_fp64(std::uint32_t cert_id) const {
  return fingerprint64(cert_sha1(cert_id));
}

std::uint32_t ColumnEncoder::intern(const Bytes& der) {
  const auto slot = index_.try_emplace(content_key(der), kNoCertId).first;
  std::uint32_t last = kNoCertId;
  for (std::uint32_t id = slot->second; id != kNoCertId; id = same_key_[id]) {
    if (ders_[id] == der) return id;
    last = id;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(ders_.size());
  ders_.push_back(der);
  sha1s_.push_back(certificate_sha1(der));
  same_key_.push_back(kNoCertId);
  (last == kNoCertId ? slot->second : same_key_[last]) = id;
  return id;
}

namespace {

void check_cert_id(std::uint32_t cert_id, std::size_t count, const std::string& where) {
  if (cert_id >= count) {
    throw SnapshotError("certificate id " + std::to_string(cert_id) +
                        " out of dictionary range (" + std::to_string(count) + " entries)" +
                        where);
  }
}

/// The mask bit of an endpoint's security mode or token type. A value the
/// enum does not define (one a read of the record rejects) is refused here
/// rather than shifted past the mask.
std::uint8_t mask_bit(std::uint32_t v, const char* field) {
  if (v > 3) {
    throw SnapshotError(std::string("snapshot record: invalid ") + field + " value " +
                        std::to_string(v));
  }
  return static_cast<std::uint8_t>(1u << v);
}

}  // namespace

std::span<const std::uint8_t> ColumnEncoder::cert_der(std::uint32_t cert_id) const {
  check_cert_id(cert_id, ders_.size(), "");
  return ders_[cert_id];
}

const Sha1Digest& ColumnEncoder::cert_sha1(std::uint32_t cert_id) const {
  check_cert_id(cert_id, sha1s_.size(), "");
  return sha1s_[cert_id];
}

void ColumnEncoder::add(const HostScanRecord& host) {
  // The record's checks run before any column, var byte, offset or
  // dictionary entry grows, so a rejected record leaves the encoder as it
  // was. Only the var column's 4 GiB bound needs the record's var bytes
  // (and so its certificate ids): it takes the bytes back when they do not
  // fit, and a certificate the record interned stays unreferenced.
  if (static_cast<std::uint32_t>(host.protocol) >= kProtocolCount) {
    throw SnapshotError("snapshot record: invalid protocol value " +
                        std::to_string(static_cast<std::uint32_t>(host.protocol)));
  }
  std::uint8_t mode_mask = 0, policy_mask = 0, token_mask = 0;
  std::size_t certified = 0;
  for (const EndpointObservation& ep : host.endpoints) {
    mode_mask |= mask_bit(static_cast<std::uint32_t>(ep.mode), "security mode");
    if (ep.token_types.size() > 0xff) {
      throw SnapshotError("endpoint advertises more than 255 token types");
    }
    for (const UserTokenType t : ep.token_types) {
      token_mask |= mask_bit(static_cast<std::uint32_t>(t), "user token type");
    }
    if (!ep.certificate_der.empty()) ++certified;
  }
  if (certified > 0xffff && host.distinct_certificates().size() > 0xffff) {
    throw SnapshotError("host advertises more than 65535 distinct certificates");
  }
  if (certified > kNoCertId - ders_.size()) throw SnapshotError("certificate dictionary overflow");

  // Dictionary interning. The head id list mirrors distinct_certificates():
  // distinct ids, first-seen endpoint order (interning dedups by DER
  // content, so id identity is content identity).
  std::vector<std::uint32_t>& head = head_scratch_;
  std::vector<std::uint32_t>& ep_ids = ep_scratch_;
  head.clear();
  ep_ids.clear();
  for (const EndpointObservation& ep : host.endpoints) {
    std::uint32_t id = kNoCertId;
    if (!ep.certificate_der.empty()) {
      id = intern(ep.certificate_der);
      if (std::find(head.begin(), head.end(), id) == head.end()) head.push_back(id);
    }
    ep_ids.push_back(id);
  }

  UaWriter& w = var_;
  const std::size_t var_start = w.bytes().size();
  w.u16(static_cast<std::uint16_t>(head.size()));
  for (const std::uint32_t id : head) w.u32(id);
  w.string(host.application_uri);
  w.string(host.product_uri);
  w.string(host.application_name);
  w.string(host.software_version);
  w.u32(static_cast<std::uint32_t>(host.endpoints.size()));
  for (std::size_t e = 0; e < host.endpoints.size(); ++e) {
    const EndpointObservation& ep = host.endpoints[e];
    w.string(ep.url);
    w.byte(static_cast<std::uint8_t>(ep.mode));
    // A read derives (policy, policy_known) from the policy URI alone, so
    // only the URI's identity is stored: canonically (one byte) when it
    // names a table policy, verbatim behind the 255 escape otherwise.
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      policy_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(*policy));
      w.byte(static_cast<std::uint8_t>(*policy));
    } else {
      w.byte(0xff);
      w.string(ep.policy_uri);
    }
    w.byte(static_cast<std::uint8_t>(ep.token_types.size()));
    for (const UserTokenType t : ep.token_types) w.byte(static_cast<std::uint8_t>(t));
    w.u32(ep_ids[e]);
  }
  w.u32(static_cast<std::uint32_t>(host.referenced_targets.size()));
  for (const auto& [ip, port] : host.referenced_targets) {
    w.u32(ip);
    w.u16(port);
  }
  w.string_array(host.namespaces);
  w.u32(static_cast<std::uint32_t>(host.nodes.size()));
  for (const NodeObservation& node : host.nodes) {
    w.string(node.browse_name);
    w.byte(static_cast<std::uint8_t>(node.node_class));
    std::uint8_t access = 0;
    if (node.readable) access |= 0x1;
    if (node.writable) access |= 0x2;
    if (node.executable) access |= 0x4;
    w.byte(access);
  }
  const bool scan_quality = host.completeness != ProbeOutcome::complete ||
                            host.retries != 0 || host.fault_events != 0;
  if (scan_quality) {
    w.byte(static_cast<std::uint8_t>(host.completeness));
    w.u16(host.retries);
    w.u16(host.fault_events);
  }
  // The protocol byte is always the last byte of the slice, so columnar
  // consumers can peel it off without a cursor walk (nonzero by
  // construction: protocol 0 never sets the flag).
  const bool foreign_protocol = host.protocol != ProtocolId::opcua;
  if (foreign_protocol) w.byte(static_cast<std::uint8_t>(host.protocol));
  if (w.bytes().size() > std::numeric_limits<std::uint32_t>::max()) {
    w.base().truncate(var_start);
    throw SnapshotError("chunk var column exceeds 4 GiB; lower chunk_records");
  }
  var_offsets_.push_back(static_cast<std::uint32_t>(w.bytes().size()));

  ip_.push_back(host.ip);
  port_.push_back(host.port);
  asn_.push_back(host.asn);
  bytes_sent_.push_back(host.bytes_sent);
  duration_.push_back(host.duration_seconds);
  uri_hash_.push_back(host.application_uri.empty() ? 0 : hash64(host.application_uri));
  application_type_.push_back(static_cast<std::uint8_t>(host.application_type));
  channel_.push_back(static_cast<std::uint8_t>(host.channel));
  channel_policy_.push_back(static_cast<std::uint8_t>(host.channel_policy));
  channel_mode_.push_back(static_cast<std::uint8_t>(host.channel_mode));
  session_.push_back(static_cast<std::uint8_t>(host.session));
  std::uint8_t flags = 0;
  if (host.tcp_open) flags |= snapshot_flags::kTcpOpen;
  if (host.speaks_opcua) flags |= snapshot_flags::kSpeaksOpcua;
  if (host.found_via_reference) flags |= snapshot_flags::kFoundViaReference;
  if (host.server_signature_valid) flags |= snapshot_flags::kServerSignatureValid;
  if (host.anonymous_offered) flags |= snapshot_flags::kAnonymousOffered;
  if (host.traversal_truncated) flags |= snapshot_flags::kTraversalTruncated;
  if (scan_quality) flags |= snapshot_flags::kScanQuality;
  if (foreign_protocol) flags |= snapshot_flags::kProtocol;
  flags_.push_back(flags);
  mode_mask_.push_back(mode_mask);
  policy_mask_.push_back(policy_mask);
  token_mask_.push_back(token_mask);
}

ColumnView ColumnEncoder::view(std::uint32_t snapshot_ordinal) {
  payload_ = UaWriter();
  write_payload(payload_);
  return view_payload(payload_.bytes(), static_cast<std::uint32_t>(records()), snapshot_ordinal);
}

std::uint64_t ColumnEncoder::payload_bytes() const {
  return 47ull * records() + 4 + var_.bytes().size();
}

void ColumnEncoder::write_payload(UaWriter& w) const {
  for (const std::uint64_t v : bytes_sent_) w.u64(v);
  for (const std::uint64_t v : uri_hash_) w.u64(v);
  for (const double v : duration_) w.f64(v);
  for (const std::uint32_t v : ip_) w.u32(v);
  for (const std::uint32_t v : asn_) w.u32(v);
  for (const std::uint32_t v : var_offsets_) w.u32(v);
  for (const std::uint16_t v : port_) w.u16(v);
  for (const auto* column : {&application_type_, &channel_, &channel_policy_, &channel_mode_,
                             &session_, &flags_, &mode_mask_, &policy_mask_, &token_mask_}) {
    w.base().raw(*column);
  }
  w.base().raw(var_.bytes());
}

void ColumnEncoder::clear_records() {
  for (auto* column : {&bytes_sent_, &uri_hash_}) column->clear();
  for (auto* column : {&ip_, &asn_, &var_offsets_}) column->clear();
  for (auto* column : {&application_type_, &channel_, &channel_policy_, &channel_mode_,
                       &session_, &flags_, &mode_mask_, &policy_mask_, &token_mask_}) {
    column->clear();
  }
  duration_.clear();
  port_.clear();
  var_offsets_.push_back(0);
  var_ = UaWriter();
}

// ------------------------------------------------------------- writer ----

SnapshotWriter::SnapshotWriter(const std::string& path, std::uint64_t seed,
                               std::uint32_t chunk_records)
    : path_(path), chunk_records_(std::max<std::uint32_t>(1, chunk_records)) {
  // Write into a sibling temp file; finish() renames it over `path` so a
  // crash mid-campaign can never leave a half-written file at the final
  // name (same pattern as the key-cache flush).
  out_.open(path + ".tmp", std::ios::binary | std::ios::trunc);
  if (!out_) throw SnapshotError("cannot open snapshot file for writing: " + path + ".tmp");
  UaWriter header;
  header.u32(kMagic);
  header.u32(kVersion);
  header.u64(seed);
  const Bytes& bytes = header.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file_pos_ = bytes.size();
}

SnapshotWriter::~SnapshotWriter() {
  // No auto-seal: a writer destroyed without finish() — e.g. during stack
  // unwinding after a failed campaign — must leave the file *unsealed*
  // (no trailer), so readers reject the partial dataset instead of
  // silently analyzing a truncated study.
}

void SnapshotWriter::set_campaign(const std::string& label, std::int64_t epoch_days) {
  if (finished_) throw SnapshotError("snapshot writer already finished: " + path_);
  campaign_label_ = label;
  campaign_epoch_days_ = epoch_days;
  campaign_set_ = true;
}

void SnapshotWriter::begin_snapshot(int measurement_index, std::int64_t date_days) {
  if (finished_) throw SnapshotError("snapshot writer already finished: " + path_);
  if (in_snapshot_) throw SnapshotError("begin_snapshot while a snapshot is open: " + path_);
  SnapshotMeta meta;
  meta.measurement_index = measurement_index;
  meta.date_days = date_days;
  meta.campaign_label = campaign_label_;
  meta.campaign_epoch_days = campaign_epoch_days_;
  snapshots_.push_back(meta);
  in_snapshot_ = true;
}

void SnapshotWriter::add_host(const HostScanRecord& host) {
  if (!in_snapshot_) throw SnapshotError("add_host outside begin/end_snapshot: " + path_);
  try {
    columns_.add(host);
  } catch (const SnapshotError& e) {
    throw SnapshotError(std::string(e.what()) + ": " + path_);
  }
  snapshots_.back().protocol_mask |= 1u << static_cast<std::uint32_t>(host.protocol);
  ++buffered_records_;
  ++snapshots_.back().host_count;
  if (buffered_records_ >= chunk_records_) flush_chunk();
}

void SnapshotWriter::end_snapshot(std::uint64_t probes_sent, std::uint64_t tcp_open_count) {
  if (!in_snapshot_) throw SnapshotError("end_snapshot without begin_snapshot: " + path_);
  snapshots_.back().probes_sent = probes_sent;
  snapshots_.back().tcp_open_count = tcp_open_count;
  flush_chunk();  // chunks never straddle measurements
  in_snapshot_ = false;
}

void SnapshotWriter::add_snapshot(const ScanSnapshot& snapshot) {
  begin_snapshot(snapshot.measurement_index, snapshot.date_days);
  for (const auto& host : snapshot.hosts) add_host(host);
  end_snapshot(snapshot.probes_sent, snapshot.tcp_open_count);
}

void SnapshotWriter::flush_chunk() {
  if (buffered_records_ == 0) return;
  const bool obs_on = obs::enabled();
  const auto wall_start =
      obs_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  SnapshotChunkInfo info;
  info.snapshot_ordinal = static_cast<std::uint32_t>(snapshots_.size() - 1);
  info.record_count = buffered_records_;
  info.file_offset = file_pos_;
  info.payload_bytes = columns_.payload_bytes();

  UaWriter w;
  w.u32(kChunkMagic);
  w.u32(info.snapshot_ordinal);
  w.u32(info.record_count);
  w.u32(0);  // reserved: keeps the header 24 bytes, i.e. 8-aligned
  w.u64(info.payload_bytes);
  columns_.write_payload(w);
  const std::uint64_t pad = v6_padding(info.payload_bytes);
  for (std::uint64_t p = 0; p < pad; ++p) w.byte(0);
  columns_.clear_records();
  const Bytes& bytes = w.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  // Flush per chunk so a failed write (a full disk) stops the campaign at
  // this chunk instead of surfacing only when finish() seals the file.
  out_.flush();
  if (!out_) {
    throw SnapshotError("write failure at chunk " + std::to_string(chunks_.size()) +
                        " of snapshot file: " + path_ + ".tmp");
  }
  file_pos_ += bytes.size();
  chunks_.push_back(info);
  buffered_records_ = 0;
  if (obs_on) {
    obs::add(obs::Metric::snapshot_chunks_written);
    obs::add(obs::Metric::snapshot_bytes_written, bytes.size());
    obs::add(obs::Metric::snapshot_write_wall_us,
             static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - wall_start)
                                            .count()));
  }
}

void SnapshotWriter::finish() {
  if (finished_) return;
  if (in_snapshot_) throw SnapshotError("finish with an open snapshot: " + path_);
  const std::uint64_t dict_offset = file_pos_;
  UaWriter d;
  d.u32(kDictMagic);
  d.u32(static_cast<std::uint32_t>(columns_.cert_count()));
  for (std::uint32_t id = 0; id < columns_.cert_count(); ++id) {
    const auto der = columns_.cert_der(id);
    d.u64(columns_.cert_fp64(id));
    d.i32(static_cast<std::int32_t>(der.size()));
    d.base().raw(der);
  }
  const Bytes& db = d.bytes();
  out_.write(reinterpret_cast<const char*>(db.data()), static_cast<std::streamsize>(db.size()));
  const std::uint64_t dict_bytes = db.size();
  file_pos_ += dict_bytes;
  const std::uint64_t footer_offset = file_pos_;
  UaWriter w;
  w.u32(kFooterMagic);
  w.u32(static_cast<std::uint32_t>(snapshots_.size()));
  for (const auto& meta : snapshots_) {
    w.i32(meta.measurement_index);
    w.i64(meta.date_days);
    w.u64(meta.probes_sent);
    w.u64(meta.tcp_open_count);
    w.u64(meta.host_count);
  }
  w.u32(static_cast<std::uint32_t>(chunks_.size()));
  for (const auto& chunk : chunks_) {
    w.u32(chunk.snapshot_ordinal);
    w.u32(chunk.record_count);
    w.u64(chunk.file_offset);
    w.u64(chunk.payload_bytes);
  }
  w.u64(dict_offset);
  w.u64(dict_bytes);
  w.u32(static_cast<std::uint32_t>(columns_.cert_count()));
  if (campaign_set_) {
    w.u32(kCampaignMagic);
    for (const auto& meta : snapshots_) {
      w.string(meta.campaign_label);
      w.i64(meta.campaign_epoch_days);
    }
  }
  // The protocol block exists only for mixed fleets: an OPC-UA-only
  // campaign omits it (readers leave every mask 0, which means OPC UA)
  // and the file stays byte-identical to pre-protocol output.
  bool any_foreign = false;
  for (const auto& meta : snapshots_) any_foreign |= (meta.protocol_mask & ~1u) != 0;
  if (any_foreign) {
    w.u32(kProtocolMagic);
    for (const auto& meta : snapshots_) w.u32(meta.protocol_mask);
  }
  w.u64(footer_offset);
  w.u32(kEndMagic);
  const Bytes& bytes = w.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.close();
  if (!out_) throw SnapshotError("write failure while sealing snapshot file: " + path_ + ".tmp");
  const std::string tmp = path_ + ".tmp";
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot move sealed snapshot file into place: " + tmp + " -> " + path_);
  }
  finished_ = true;
}

// ------------------------------------------------------------- reader ----

void SnapshotReader::Unmap::operator()(void* p) const {
#if OPCUA_STUDY_HAVE_MMAP
  ::munmap(p, length);
#else
  (void)p;
#endif
}

SnapshotReader::SnapshotReader(const std::string& path, std::uint64_t seed) : path_(path) {
  map_file();
  if (data_size_ == 0) {
    throw SnapshotError("snapshot file is empty (0 bytes): " + path);
  }
  if (data_size_ < kHeaderBytes) {
    throw SnapshotError("snapshot file truncated: " + path + " holds only " +
                        std::to_string(data_size_) + " bytes, need at least " +
                        std::to_string(kHeaderBytes) + " for the header");
  }
  UaReader hr(std::span<const std::uint8_t>(data_, kHeaderBytes));
  if (hr.u32() != kMagic) throw SnapshotError("not a snapshot file (bad magic): " + path);
  version_ = hr.u32();
  if (version_ != kVersion) {
    throw SnapshotError("unsupported snapshot version " + std::to_string(version_) + ": " +
                        path);
  }
  const std::uint64_t file_seed = hr.u64();
  if (file_seed != seed) {
    throw SnapshotError("snapshot seed mismatch at byte offset 8 (v6 file seed " +
                        std::to_string(file_seed) + ", expected " + std::to_string(seed) +
                        "): " + path);
  }
  open_indexed();
}

SnapshotReader::~SnapshotReader() = default;

void SnapshotReader::map_file() {
#if OPCUA_STUDY_HAVE_MMAP
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto length = static_cast<std::size_t>(st.st_size);
      void* p = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p != MAP_FAILED) {
        mapping_ = {p, Unmap{length}};
        data_ = static_cast<const std::uint8_t*>(p);
        data_size_ = length;
      }
    }
    ::close(fd);
  }
#endif
  if (mapping_ == nullptr) {
    // Heap fallback (no mmap on this platform, an empty or missing file,
    // or the map failed): one resident copy, same lifetime and alignment
    // guarantees; read_file names a missing file.
    heap_data_ = read_file(path_);
    data_ = heap_data_.data();
    data_size_ = heap_data_.size();
  }
}

void SnapshotReader::open_indexed() {
  // Trailer -> footer: measurement metas, chunk table, the dictionary's
  // extent, then the optional blocks. Chunks are 8-aligned, padded, and
  // end at the dictionary.
  if (data_size_ < kHeaderBytes + kTrailerBytes) {
    throw SnapshotError("snapshot file truncated before trailer (v6): " + path_ + " holds only " +
                        std::to_string(data_size_) + " bytes, need at least " +
                        std::to_string(kHeaderBytes + kTrailerBytes));
  }
  UaReader tr(std::span<const std::uint8_t>(data_ + data_size_ - kTrailerBytes, kTrailerBytes));
  const std::uint64_t footer_offset = tr.u64();
  if (tr.u32() != kEndMagic) {
    throw SnapshotError(
        "snapshot file truncated or unsealed (missing end marker at byte offset " +
        std::to_string(data_size_ - 4) + ", v6): " + path_);
  }
  if (footer_offset < kHeaderBytes || footer_offset > data_size_ - kTrailerBytes) {
    throw SnapshotError("snapshot footer offset out of range (v6): " + path_);
  }
  std::uint64_t dict_offset = 0;
  std::uint64_t dict_bytes = 0;
  std::uint32_t dict_count = 0;
  try {
    UaReader r(std::span<const std::uint8_t>(data_ + footer_offset,
                                             data_size_ - kTrailerBytes - footer_offset));
    if (r.u32() != kFooterMagic) throw DecodeError("bad footer magic");
    const std::uint32_t snapshot_count = r.u32();
    if (snapshot_count > kMaxSnapshots) {
      throw DecodeError("implausible snapshot count " + std::to_string(snapshot_count));
    }
    snapshots_.reserve(snapshot_count);
    for (std::uint32_t i = 0; i < snapshot_count; ++i) {
      SnapshotMeta meta;
      meta.measurement_index = r.i32();
      meta.date_days = r.i64();
      meta.probes_sent = r.u64();
      meta.tcp_open_count = r.u64();
      meta.host_count = r.u64();
      snapshots_.push_back(meta);
    }
    const std::uint32_t chunk_count = r.u32();
    if (chunk_count > kMaxChunks) {
      throw DecodeError("implausible chunk count " + std::to_string(chunk_count));
    }
    chunks_.reserve(chunk_count);
    std::vector<std::uint64_t> records_seen(snapshot_count, 0);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      SnapshotChunkInfo chunk;
      chunk.snapshot_ordinal = r.u32();
      chunk.record_count = r.u32();
      chunk.file_offset = r.u64();
      chunk.payload_bytes = r.u64();
      if (chunk.snapshot_ordinal >= snapshot_count) {
        throw DecodeError("chunk " + std::to_string(i) + " references snapshot " +
                          std::to_string(chunk.snapshot_ordinal) + " of " +
                          std::to_string(snapshot_count));
      }
      if (chunk.record_count == 0) throw DecodeError("chunk " + std::to_string(i) + " is empty");
      records_seen[chunk.snapshot_ordinal] += chunk.record_count;
      if (!chunks_.empty() && chunk.snapshot_ordinal < chunks_.back().snapshot_ordinal) {
        throw DecodeError("chunk index not ordered by snapshot");
      }
      chunks_.push_back(chunk);
    }
    dict_offset = r.u64();
    dict_bytes = r.u64();
    dict_count = r.u32();
    if (dict_count > kMaxDictEntries) {
      throw DecodeError("implausible certificate dictionary size " + std::to_string(dict_count));
    }
    if (dict_offset < kHeaderBytes || dict_bytes < 8 || dict_bytes > footer_offset ||
        dict_offset > footer_offset - dict_bytes) {
      throw DecodeError("certificate dictionary extent out of range");
    }
    // Chunks are written back to back in index order; each must lie fully
    // inside [the previous chunk's end, the dictionary). Checked without
    // forming any sum past the dictionary's offset, so no offset or size
    // can wrap around.
    std::uint64_t min_offset = kHeaderBytes;
    for (std::uint32_t i = 0; i < chunks_.size(); ++i) {
      const SnapshotChunkInfo& chunk = chunks_[i];
      if (chunk.file_offset % 8 != 0) {
        throw DecodeError("chunk " + std::to_string(i) + " misaligned");
      }
      const std::uint64_t framing = kChunkHeaderBytes + v6_padding(chunk.payload_bytes);
      if (chunk.file_offset < min_offset || chunk.file_offset > dict_offset ||
          dict_offset - chunk.file_offset < framing ||
          chunk.payload_bytes > dict_offset - chunk.file_offset - framing) {
        throw DecodeError("chunk " + std::to_string(i) + " extent out of range");
      }
      min_offset = chunk.file_offset + framing + chunk.payload_bytes;
    }
    // Optional blocks, each at most once, in write order: campaign
    // identity ('CAMP'), then per-snapshot protocol masks ('PROT').
    bool saw_campaign = false;
    bool saw_protocol = false;
    while (!r.done()) {
      const std::uint32_t block_magic = r.u32();
      if (block_magic == kCampaignMagic && !saw_campaign && !saw_protocol) {
        saw_campaign = true;
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          snapshots_[i].campaign_label = r.string();
          snapshots_[i].campaign_epoch_days = r.i64();
        }
      } else if (block_magic == kProtocolMagic && !saw_protocol) {
        saw_protocol = true;
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          snapshots_[i].protocol_mask = r.u32();
        }
      } else {
        throw DecodeError("bad optional footer block magic");
      }
    }
    for (std::uint32_t i = 0; i < snapshot_count; ++i) {
      if (records_seen[i] != snapshots_[i].host_count) {
        throw DecodeError("snapshot " + std::to_string(i) + " indexes " +
                          std::to_string(records_seen[i]) + " records but declares " +
                          std::to_string(snapshots_[i].host_count));
      }
    }
    // Every record takes 47 bytes of its chunk's fixed columns, so a
    // record count no payload could hold never sizes a reservation.
    for (std::uint32_t i = 0; i < chunks_.size(); ++i) {
      if (chunks_[i].payload_bytes < 47ull * chunks_[i].record_count + 4) {
        throw DecodeError("chunk " + std::to_string(i) + " payload shorter than its fixed columns");
      }
    }
  } catch (const DecodeError& e) {
    throw SnapshotError("corrupt snapshot footer in " + path_ + " (v6, footer at byte " +
                        std::to_string(footer_offset) + "): " + e.what());
  }

  try {
    open_dictionary(dict_offset, dict_bytes, dict_count);
  } catch (const DecodeError& e) {
    std::uint32_t mask = 0;
    for (const auto& meta : snapshots_) mask |= meta.protocol_mask;
    throw SnapshotError("corrupt certificate dictionary in " + path_ + " (v6, " +
                        protocol_context(mask) + ", dictionary at byte " +
                        std::to_string(dict_offset) + "): " + e.what());
  }
}

void SnapshotReader::open_dictionary(std::uint64_t offset, std::uint64_t bytes,
                                     std::uint32_t count) {
  UaReader d(std::span<const std::uint8_t>(data_ + offset, static_cast<std::size_t>(bytes)));
  if (d.u32() != kDictMagic) throw DecodeError("bad certificate dictionary magic");
  if (const std::uint32_t declared = d.u32(); declared != count) {
    throw DecodeError("dictionary declares " + std::to_string(declared) +
                      " entries but the footer indexes " + std::to_string(count));
  }
  // An entry takes at least 13 bytes (fp64, length, one DER byte), which
  // bounds the reservation by the extent rather than the declared count.
  const auto capacity = static_cast<std::size_t>(std::min<std::uint64_t>(count, bytes / 13));
  std::vector<std::uint64_t> stored_fp64;
  stored_fp64.reserve(capacity);
  dict_.reserve(capacity);
  // Walk the entries first. A structural error is held back until the
  // entries before it have been checked: a serial walk would have
  // reported a fingerprint mismatch there first.
  std::optional<DecodeError> structural;
  try {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t fp64 = d.u64();
      const std::int32_t length = d.i32();
      if (length <= 0) {
        throw DecodeError("dictionary entry " + std::to_string(i) + " has no DER bytes");
      }
      DictEntry entry;
      entry.length = static_cast<std::uint32_t>(length);
      entry.offset = offset + d.base().position();
      d.base().view(entry.length);
      stored_fp64.push_back(fp64);
      dict_.push_back(entry);
    }
    if (!d.done()) throw DecodeError("trailing bytes in certificate dictionary");
  } catch (const DecodeError& e) {
    structural = e;
  }
  // Every stored fingerprint must match a recomputation from its DER — a
  // flipped bit in either fails the open. The SHA-1s fill disjoint slots
  // on a pool and stay as cert_sha1; the comparison runs in entry order,
  // so the first bad entry is the one reported, for any thread count.
  const ThreadPool pool;
  const std::size_t blocks = (dict_.size() + kDigestBlock - 1) / kDigestBlock;
  pool.parallel_for(blocks, [&](std::size_t b) {
    const std::size_t end = std::min(dict_.size(), (b + 1) * kDigestBlock);
    for (std::size_t i = b * kDigestBlock; i < end; ++i) {
      dict_[i].sha1 = certificate_sha1({data_ + dict_[i].offset, dict_[i].length});
    }
  });
  for (std::size_t i = 0; i < dict_.size(); ++i) {
    if (fingerprint64(dict_[i].sha1) != stored_fp64[i]) {
      throw DecodeError("dictionary entry " + std::to_string(i) + " fingerprint mismatch");
    }
  }
  if (structural) throw *structural;
}

const SnapshotReader::DictEntry& SnapshotReader::dict_entry(std::uint32_t cert_id) const {
  check_cert_id(cert_id, dict_.size(), " in " + path_);
  return dict_[cert_id];
}

std::span<const std::uint8_t> SnapshotReader::cert_der(std::uint32_t cert_id) const {
  const DictEntry& entry = dict_entry(cert_id);
  return {data_ + entry.offset, entry.length};
}

const Sha1Digest& SnapshotReader::cert_sha1(std::uint32_t cert_id) const {
  return dict_entry(cert_id).sha1;
}

std::uint64_t SnapshotReader::total_records() const {
  std::uint64_t total = 0;
  for (const auto& meta : snapshots_) total += meta.host_count;
  return total;
}

std::uint64_t SnapshotReader::file_fingerprint() const {
  // Folds the validated structural metadata — format version, every
  // measurement's identity/counters, the complete chunk index, and the
  // dictionary shape — into one 64-bit value. Snapshot output is a pure
  // function of (records, seed), so any record change moves a chunk
  // payload size or host count and therefore the fingerprint; sidecar
  // files (posture sketches) staple themselves to this value to detect a
  // swapped or rewritten snapshot without re-reading record bytes.
  std::string acc = "snapshot-fp:v" + std::to_string(version_);
  for (const auto& meta : snapshots_) {
    acc += ';';
    acc += std::to_string(meta.measurement_index) + ',' + std::to_string(meta.date_days) + ',' +
           std::to_string(meta.probes_sent) + ',' + std::to_string(meta.tcp_open_count) + ',' +
           std::to_string(meta.host_count) + ',' + meta.campaign_label + ',' +
           std::to_string(meta.campaign_epoch_days) + ',' + std::to_string(meta.protocol_mask);
  }
  for (const auto& chunk : chunks_) {
    acc += '|';
    acc += std::to_string(chunk.snapshot_ordinal) + ',' + std::to_string(chunk.record_count) +
           ',' + std::to_string(chunk.file_offset) + ',' + std::to_string(chunk.payload_bytes);
  }
  acc += "#dict:" + std::to_string(dict_.size());
  for (const auto& entry : dict_) acc += ',' + std::to_string(fingerprint64(entry.sha1));
  return hash64(acc);
}

const SnapshotChunkInfo& SnapshotReader::chunk_info(std::size_t chunk_index) const {
  if (chunk_index >= chunks_.size()) {
    throw SnapshotError("chunk index " + std::to_string(chunk_index) + " out of range in " +
                        path_);
  }
  return chunks_[chunk_index];
}

SnapshotError SnapshotReader::corrupt_chunk(std::size_t chunk_index, const DecodeError& e) const {
  const SnapshotChunkInfo& info = chunks_[chunk_index];
  return SnapshotError(
      "corrupt chunk " + std::to_string(chunk_index) + " in " + path_ + " (v6, " +
      protocol_context(snapshots_[info.snapshot_ordinal].protocol_mask) + ", chunk at byte " +
      std::to_string(info.file_offset) + "): " + e.what());
}

std::vector<HostScanRecord> SnapshotReader::read_chunk(std::size_t chunk_index) const {
  std::vector<HostScanRecord> records;
  read_chunk(chunk_index, records);
  return records;
}

void SnapshotReader::read_chunk(std::size_t chunk_index,
                                std::vector<HostScanRecord>& out) const {
  out.clear();
  const SnapshotChunkInfo& info = chunk_info(chunk_index);
  out.reserve(info.record_count);
  const bool obs_on = obs::enabled();
  const auto wall_start =
      obs_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  try {
    const ColumnView view = locate_v6_chunk(data_, info);
    for (std::size_t i = 0; i < view.records; ++i) out.push_back(read_row(view, *this, i));
  } catch (const DecodeError& e) {
    throw corrupt_chunk(chunk_index, e);
  }
  if (obs_on) {
    obs::add(obs::Metric::snapshot_chunks_read);
    obs::add(obs::Metric::snapshot_bytes_read, info.payload_bytes);
    obs::add(obs::Metric::snapshot_read_wall_us,
             static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - wall_start)
                                            .count()));
  }
}

ColumnView SnapshotReader::column_view(std::size_t chunk_index) const {
  const SnapshotChunkInfo& info = chunk_info(chunk_index);
  ColumnView view;
  try {
    view = locate_v6_chunk(data_, info);
  } catch (const DecodeError& e) {
    throw corrupt_chunk(chunk_index, e);
  }
  // A column view is a zero-copy chunk read: same coverage accounting as
  // the record-decoding path, just without the decode cost.
  obs::add(obs::Metric::snapshot_chunks_read);
  obs::add(obs::Metric::snapshot_bytes_read, info.payload_bytes);
  return view;
}

void SnapshotReader::for_each_host(
    const std::function<void(std::size_t, const HostScanRecord&)>& fn) const {
  std::vector<HostScanRecord> records;  // one decode buffer for the whole walk
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    read_chunk(c, records);
    for (const auto& record : records) fn(chunks_[c].snapshot_ordinal, record);
  }
}

std::vector<ScanSnapshot> SnapshotReader::load_all() const {
  std::vector<ScanSnapshot> out;
  out.reserve(snapshots_.size());
  for (const auto& meta : snapshots_) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = meta.measurement_index;
    snapshot.date_days = meta.date_days;
    snapshot.probes_sent = meta.probes_sent;
    snapshot.tcp_open_count = meta.tcp_open_count;
    snapshot.hosts.reserve(meta.host_count);
    out.push_back(std::move(snapshot));
  }
  std::vector<HostScanRecord> records;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    read_chunk(c, records);
    auto& hosts = out[chunks_[c].snapshot_ordinal].hosts;
    for (auto& record : records) hosts.push_back(std::move(record));
  }
  return out;
}

// ---------------------------------------------------------- functions ----

void save_snapshots(const std::string& path, std::uint64_t seed,
                    const std::vector<ScanSnapshot>& snapshots) {
  SnapshotWriter writer(path, seed);
  for (const auto& snapshot : snapshots) writer.add_snapshot(snapshot);
  writer.finish();
}

std::optional<std::vector<ScanSnapshot>> load_snapshots(const std::string& path,
                                                        std::uint64_t seed,
                                                        std::string* error) {
  try {
    SnapshotReader reader(path, seed);
    return reader.load_all();
  } catch (const SnapshotError& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

bool campaign_declared(const SnapshotMeta& meta) {
  return !meta.campaign_label.empty() || meta.campaign_epoch_days != 0;
}

void validate_campaign_chain(const std::vector<SnapshotMeta>& members) {
  const SnapshotMeta* prev = nullptr;        // last declared member
  const SnapshotMeta* prev_epoch = nullptr;  // last declared member with a non-zero epoch
  const SnapshotMeta* prev_proto = nullptr;  // last member that scans any protocol
  for (const SnapshotMeta& member : members) {
    // Protocol sets must agree across the whole chain: a series mixing an
    // OPC-UA-only campaign with a mixed-fleet one would diff incomparable
    // populations. An empty week anchors nothing.
    const std::uint32_t protocols = scanned_protocols(member);
    if (protocols != 0) {
      if (prev_proto != nullptr && scanned_protocols(*prev_proto) != protocols) {
        throw SnapshotError("campaign chain: campaign '" + member.campaign_label + "' scans " +
                            protocol_set_name(protocols) + " but its predecessor '" +
                            prev_proto->campaign_label + "' scans " +
                            protocol_set_name(scanned_protocols(*prev_proto)));
      }
      prev_proto = &member;
    }
    if (!campaign_declared(member)) continue;  // unlabeled: nothing to anchor
    if (prev != nullptr && prev->campaign_label == member.campaign_label &&
        prev->campaign_epoch_days == member.campaign_epoch_days) {
      throw SnapshotError("campaign chain: consecutive members declare the same campaign '" +
                          member.campaign_label + "'");
    }
    // Epochs compare against the last member that *declared* one, so a
    // label-only member in between cannot hide a time-reversed series.
    if (prev_epoch != nullptr && member.campaign_epoch_days != 0 &&
        member.campaign_epoch_days <= prev_epoch->campaign_epoch_days) {
      throw SnapshotError("campaign chain: campaign '" + member.campaign_label + "' (epoch " +
                          std::to_string(member.campaign_epoch_days) +
                          ") is not after its predecessor '" + prev_epoch->campaign_label +
                          "' (epoch " + std::to_string(prev_epoch->campaign_epoch_days) + ")");
    }
    prev = &member;
    if (member.campaign_epoch_days != 0) prev_epoch = &member;
  }
}

}  // namespace opcua_study
