// Binary persistence for scan snapshots.
//
// `reproduce` regenerates every table/figure from one recorded campaign:
// its first run scans and records it, later runs and the examples load it
// from disk (exactly like the paper's analyses ran on the recorded dataset
// rather than re-scanning per figure).
//
// Three format generations load through SnapshotReader:
//   v4 — retired monolithic row stream (whole-file decode, chunk index
//        synthesized on open);
//   v5 — retired chunked row stream: records in the v4 encoding, grouped
//        into fixed-size chunks, indexed by a footer;
//   v6 — the current *columnar* layout, the only one SnapshotWriter
//        writes.
// Older caches keep loading; tests/data holds one committed v4 and one v5
// file that pin the two row decoders.
//
// Format v6 splits each chunk into fixed-width per-field columns plus one
// variable-length column, and hoists all certificate DER into a single
// file-level dictionary so a blob repeated across endpoints, hosts,
// chunks and measurements is stored exactly once:
//
//   header:  u32 magic 'OUAS'  u32 version=6  u64 seed
//   chunk*:  (8-byte aligned)
//            u32 'CHNK'  u32 snapshot_ordinal  u32 record_count=n
//            u32 reserved=0  u64 payload_bytes
//            fixed columns (47n + 4 bytes, decreasing alignment):
//              u64 bytes_sent[n]   u64 uri_hash[n]   f64 duration[n]
//              u32 ip[n]  u32 asn[n]  u32 var_offsets[n+1]  u16 port[n]
//              u8 application_type[n]  u8 channel[n]  u8 channel_policy[n]
//              u8 channel_mode[n]  u8 session[n]  u8 flags[n]
//              u8 mode_mask[n]  u8 policy_mask[n]  u8 token_mask[n]
//            var column (var_offsets[n] bytes): per record
//              u16 distinct_cert_count  u32 cert_id*
//              string application_uri | product_uri | name | software
//              u32 endpoint_count, per endpoint: string url  u8 mode
//                u8 policy_code (enum value; 255 = explicit URI follows)
//                u8 token_count  u8 token*  u32 cert_id (0xffffffff = none)
//              u32 ref_count ×(u32 ip  u16 port)
//              string[] namespaces
//              u32 node_count ×(string browse_name  u8 node_class
//                               u8 access bits r|w<<1|x<<2)
//              [scan-quality tail, only when flags bit 6 is set:
//               u8 completeness  u16 retries  u16 fault_events —
//               at least one field nonzero (an all-zero tail is
//               non-canonical and rejected)]
//              [protocol tail, only when flags bit 7 is set: u8
//               protocol id — always last in the slice, and always
//               nonzero (OPC UA is protocol 0 and carries no tail, so
//               single-protocol files stay byte-identical to
//               pre-registry output; a zero byte is rejected)]
//            zero padding to the next 8-byte boundary (not indexed;
//            recomputed as (8 - payload%8) % 8)
//   dict:    u32 'CDIC'  u32 entry_count
//            entry*: u64 fingerprint64  byte_string der
//   footer:  u32 'FOOT'  u32 snapshot_count
//            snapshot*: i32 measurement_index  i64 date_days
//                       u64 probes_sent  u64 tcp_open_count  u64 host_count
//            u32 chunk_count
//            chunk*: u32 snapshot_ordinal  u32 record_count
//                    u64 file_offset  u64 payload_bytes (unpadded)
//            u64 dict_offset  u64 dict_bytes  u32 dict_count
//            [optional campaign block — only when a label/epoch was set:
//             u32 'CAMP'  snapshot*: string campaign_label  i64 epoch_days]
//            [optional protocol block — only when any record is from a
//             non-OPC-UA backend: u32 'PROT'  snapshot*: u32 protocol
//             mask (bit p set = protocol id p present in that week)]
//   trailer: u64 footer_offset  u32 'SNAP'
//
// uri_hash, mode_mask, policy_mask and token_mask are *derived* columns
// (hash64 of the application URI; one bit per advertised endpoint mode /
// canonical policy / token type) so posture passes never touch the var
// column; the row decoder re-derives and cross-checks them, turning a
// flipped bit into a SnapshotError instead of a silent misclassification.
// Dictionary ids are assigned by first appearance in the record stream
// and entries are stored in id order, which makes v6 output a pure
// function of (records, seed): byte-identical across runs, shard layouts
// and thread counts. v6 files are memory-mapped on open; a ColumnView
// aliases the mapping and stays valid exactly as long as the reader lives.
//
// The campaign block makes diff inputs self-describing (src/diff/ checks
// that a follow-up campaign really is later than its base). Files written
// without SnapshotWriter::set_campaign omit the block; readers default
// absent labels to ""/0, and the v4/v5 load paths are unaffected.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/hash.hpp"
#include "opcua/encoding.hpp"
#include "scanner/record.hpp"

namespace opcua_study {

/// Thrown on any structural problem with a snapshot file: bad magic,
/// truncation, out-of-range enum values, inconsistent chunk index. The
/// message names what was wrong and where, so a corrupt multi-gigabyte
/// dataset fails loudly instead of yielding garbage records.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-measurement metadata, available without decoding any host record.
struct SnapshotMeta {
  int measurement_index = 0;
  std::int64_t date_days = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t tcp_open_count = 0;
  std::uint64_t host_count = 0;
  /// Which recorded campaign this measurement belongs to. Empty label /
  /// zero epoch = undeclared (v4 files and v5 files predating the label).
  std::string campaign_label;
  std::int64_t campaign_epoch_days = 0;
  /// Bit p set = protocol id p appears in this measurement. 0 =
  /// undeclared: v4/v5 files, and v6 files whose every record is OPC UA
  /// (the writer omits the block so such files stay byte-identical to
  /// pre-protocol output).
  std::uint32_t protocol_mask = 0;

  friend bool operator==(const SnapshotMeta&, const SnapshotMeta&) = default;
};

/// One indexed record group. Chunks are stored (and indexed) in write
/// order: ascending snapshot ordinal, then record order within the week.
struct SnapshotChunkInfo {
  std::uint32_t snapshot_ordinal = 0;
  std::uint32_t record_count = 0;
  std::uint64_t file_offset = 0;   // of the chunk header
  std::uint64_t payload_bytes = 0;

  friend bool operator==(const SnapshotChunkInfo&, const SnapshotChunkInfo&) = default;
};

/// Bit assignments of the v6 per-record flags column.
namespace snapshot_flags {
inline constexpr std::uint8_t kTcpOpen = 1u << 0;
inline constexpr std::uint8_t kSpeaksOpcua = 1u << 1;
inline constexpr std::uint8_t kFoundViaReference = 1u << 2;
inline constexpr std::uint8_t kServerSignatureValid = 1u << 3;
inline constexpr std::uint8_t kAnonymousOffered = 1u << 4;
inline constexpr std::uint8_t kTraversalTruncated = 1u << 5;
/// Record carries a scan-quality tail (5 bytes at the end of its var
/// slice). Only set when any quality field is nonzero, so fault-free
/// files stay byte-identical to pre-fault output.
inline constexpr std::uint8_t kScanQuality = 1u << 6;
/// Record carries a protocol tail (1 byte, the very end of its var
/// slice). Only set for non-OPC-UA backends — protocol 0 records carry
/// no tail, so OPC-UA-only files stay byte-identical to pre-registry
/// output, and a zero tail byte is rejected as non-canonical.
inline constexpr std::uint8_t kProtocol = 1u << 7;
}  // namespace snapshot_flags

/// The v6 "no certificate" sentinel in endpoint cert_id slots.
inline constexpr std::uint32_t kNoCertId = 0xffffffffu;

/// One multi-byte column of a v6 payload: column[i] loads element i
/// little-endian with a memcpy (bytes reversed only on a big-endian
/// host), so views read payload bytes as they are, on every host.
template <typename T>
class LeColumn {
 public:
  LeColumn() = default;
  explicit LeColumn(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  T operator[](std::size_t i) const {
    std::array<std::uint8_t, sizeof(T)> raw;
    std::memcpy(raw.data(), &bytes_[i * sizeof(T)], sizeof(T));
    if constexpr (std::endian::native == std::endian::big) std::reverse(raw.begin(), raw.end());
    return std::bit_cast<T>(raw);
  }

 private:
  std::span<const std::uint8_t> bytes_;
};

/// View over one v6 chunk's columns: the one input shape of the analysis
/// and posture passes, and what v6 rows decode from. view_payload alone
/// makes every view, over a SnapshotReader's mapping or over the payload
/// a ColumnEncoder would write, and checks the fixed section's size, the
/// var_offsets chain and the range of the five enum columns. A view (and
/// every UaReader from var_record) must not outlive its owner; the bytes
/// stay immutable while it lives, so concurrent readers never race.
struct ColumnView {
  std::uint32_t snapshot_ordinal = 0;
  std::size_t records = 0;

  LeColumn<std::uint64_t> bytes_sent;
  LeColumn<std::uint64_t> uri_hash;
  LeColumn<double> duration_seconds;
  LeColumn<std::uint32_t> ip;
  LeColumn<std::uint32_t> asn;
  LeColumn<std::uint32_t> var_offsets;  // records + 1 entries
  LeColumn<std::uint16_t> port;
  std::span<const std::uint8_t> application_type;
  std::span<const std::uint8_t> channel;
  std::span<const std::uint8_t> channel_policy;
  std::span<const std::uint8_t> channel_mode;
  std::span<const std::uint8_t> session;
  std::span<const std::uint8_t> flags;
  std::span<const std::uint8_t> mode_mask;
  std::span<const std::uint8_t> policy_mask;
  std::span<const std::uint8_t> token_mask;
  std::span<const std::uint8_t> var_blob;

  /// Reader positioned at record i's slice of the var column (validated
  /// monotone and in-bounds when the view was built).
  UaReader var_record(std::size_t i) const {
    return UaReader(var_blob.subspan(var_offsets[i], var_offsets[i + 1] - var_offsets[i]));
  }

  /// Record i's protocol: its protocol tail byte when flags bit 7 is set,
  /// OPC UA otherwise. Throws DecodeError on a missing, zero or unknown
  /// tail byte.
  ProtocolId protocol(std::size_t i) const;

  /// Record i's scan-quality tail (all zero when flags bit 6 is clear).
  /// Read from the end of the var slice, so no cursor walk is needed.
  /// Throws DecodeError on a short slice or an out-of-range completeness.
  struct Quality {
    std::uint8_t completeness = 0;
    std::uint16_t retries = 0;
    std::uint16_t fault_events = 0;
  };
  Quality quality(std::size_t i) const;
};

/// Certificate dictionary that a ColumnView's cert ids index: the
/// file-level dictionary of a v6 SnapshotReader, or the chunk-scoped one a
/// ColumnEncoder interns while transposing records. Each entry carries
/// its DER's SHA-1 thumbprint, computed once: by the encoder when it
/// inserts the entry, by the reader when it verifies the stored
/// fingerprint at open. Accessors throw SnapshotError for an id at or past
/// cert_count().
class CertDictionary {
 public:
  virtual ~CertDictionary() = default;
  virtual std::size_t cert_count() const = 0;
  virtual std::span<const std::uint8_t> cert_der(std::uint32_t cert_id) const = 0;
  /// x509_thumbprint(cert_der(id)), kept rather than recomputed.
  virtual const Sha1Digest& cert_sha1(std::uint32_t cert_id) const = 0;
  /// The entry's 64-bit fingerprint: fingerprint64(cert_sha1(id)).
  std::uint64_t cert_fp64(std::uint32_t cert_id) const;
};

/// The v6 chunk encoder: transposes records into one chunk's typed fixed
/// columns plus its var column, interning certificate DER by content into
/// its dictionary (ids in first-appearance order). SnapshotWriter
/// serializes it chunk by chunk and keeps one dictionary for the whole
/// file; RecordSource::visit_columns fills a fresh encoder per chunk, so
/// row inputs reach the passes as the same columns with a chunk-scoped
/// dictionary.
class ColumnEncoder final : public CertDictionary {
 public:
  ColumnEncoder() { var_offsets_.push_back(0); }

  /// Append one record. Throws SnapshotError for a record the format
  /// cannot hold: a protocol id past kProtocolCount, an endpoint security
  /// mode or token type its enum does not define, more than 255 token
  /// types on one endpoint, more than 65535 distinct certificates on one
  /// host, a full dictionary, or a var column past 4 GiB. A record
  /// rejected for its content leaves the encoder as it was, so the next
  /// one can follow it.
  void add(const HostScanRecord& host);
  std::size_t records() const { return ip_.size(); }

  /// View over the buffered records, built from the payload
  /// write_payload() writes and checked as a reader's view is (throws
  /// DecodeError, as a read of the payload would); valid until the next
  /// add(), view() or clear_records().
  ColumnView view(std::uint32_t snapshot_ordinal);

  /// Payload size (47n + 4 fixed-column bytes plus the var column) and
  /// payload bytes, little-endian, in the layout documented above.
  std::uint64_t payload_bytes() const;
  void write_payload(UaWriter& w) const;

  /// Drop the buffered records; the dictionary stays.
  void clear_records();

  std::size_t cert_count() const override { return ders_.size(); }
  std::span<const std::uint8_t> cert_der(std::uint32_t cert_id) const override;
  const Sha1Digest& cert_sha1(std::uint32_t cert_id) const override;

 private:
  /// The id of `der`'s entry, inserting it (and computing its SHA-1) when
  /// the content is new. Lookups go by a cheap content key, so a repeated
  /// certificate costs one word-wise pass and one comparison, not a hash.
  std::uint32_t intern(const Bytes& der);

  std::vector<std::uint64_t> bytes_sent_, uri_hash_;
  std::vector<double> duration_;
  std::vector<std::uint32_t> ip_, asn_, var_offsets_;
  std::vector<std::uint16_t> port_;
  std::vector<std::uint8_t> application_type_, channel_, channel_policy_, channel_mode_,
      session_, flags_, mode_mask_, policy_mask_, token_mask_;
  UaWriter var_;
  UaWriter payload_;  // what view() reads
  std::vector<std::uint32_t> head_scratch_, ep_scratch_;
  // Dictionary: id order == first appearance order.
  std::vector<Bytes> ders_;
  std::vector<Sha1Digest> sha1s_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // content key -> first id
  std::vector<std::uint32_t> same_key_;  // id -> next id with its content key, or kNoCertId
};

/// Lazy decoder over one record's var-column slice. Accessors must be
/// called in field order (cert_ids, application_uri, product_uri,
/// application_name, software_version, endpoints, referenced_targets,
/// namespaces, nodes or visit_nodes, tails); any prefix may be skipped
/// and the cursor skips the intervening fields without materializing
/// them. Throws DecodeError on malformed bytes.
class VarRecordCursor {
 public:
  explicit VarRecordCursor(UaReader r) : r_(std::move(r)) {}

  /// Distinct certificate dictionary ids, first-seen endpoint order. With
  /// `dict`, each id is checked against it as it is read.
  void cert_ids(std::vector<std::uint32_t>& out, const CertDictionary* dict = nullptr);
  std::string application_uri();
  std::string product_uri();
  std::string application_name();
  std::string software_version();
  /// The endpoints, each certificate copied out of `dict`; `cert_ids`
  /// receives every endpoint's id (kNoCertId for none), in order.
  std::vector<EndpointObservation> endpoints(const CertDictionary& dict,
                                             std::vector<std::uint32_t>& cert_ids);
  std::vector<std::pair<Ipv4, std::uint16_t>> referenced_targets();
  std::vector<std::string> namespaces();
  /// The traversed nodes, browse names included.
  std::vector<NodeObservation> nodes();
  /// fn(node_class, readable, writable, executable) per traversed node;
  /// browse names are skipped, not decoded.
  void visit_nodes(const std::function<void(NodeClass, bool, bool, bool)>& fn);
  /// Reads the tails `flags` announces into `host` (scan quality, then
  /// protocol, each checked); the slice must end there.
  void tails(std::uint8_t flags, HostScanRecord& host);

 private:
  enum Stage {
    kCertIds = 0, kApplicationUri, kProductUri, kApplicationName,
    kSoftwareVersion, kEndpoints, kRefs, kNamespaces, kNodes, kTails,
  };
  void advance(int target);
  void skip_string();
  /// The class and access bits that follow a node's browse name, checked.
  NodeObservation node_fields();

  UaReader r_;
  int stage_ = 0;
};

/// Streaming writer: open, then per measurement begin_snapshot() /
/// add_host()* / end_snapshot(); finish() seals the file with the footer.
/// A writer destroyed without finish() leaves the file unsealed, and
/// readers reject it — a half-written campaign never masquerades as a
/// complete dataset. Buffers at most one chunk of records plus the
/// certificate dictionary (one copy of each distinct DER), and writes v6.
/// Every sealed chunk is flushed to the file; a failed write (a full disk)
/// throws SnapshotError from the add_host() or end_snapshot() that sealed
/// it, not at finish().
class SnapshotWriter {
 public:
  static constexpr std::uint32_t kDefaultChunkRecords = 4096;

  SnapshotWriter(const std::string& path, std::uint64_t seed,
                 std::uint32_t chunk_records = kDefaultChunkRecords);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Stamp every *subsequent* begin_snapshot() with a campaign identity.
  /// Never called -> the footer omits the campaign block and the file is
  /// byte-identical to one written before labels existed.
  void set_campaign(const std::string& label, std::int64_t epoch_days);

  void begin_snapshot(int measurement_index, std::int64_t date_days);
  void add_host(const HostScanRecord& host);
  void end_snapshot(std::uint64_t probes_sent, std::uint64_t tcp_open_count);

  /// Convenience: append a fully materialized measurement.
  void add_snapshot(const ScanSnapshot& snapshot);

  /// Flushes the footer and closes the file (idempotent). Must be called
  /// for the file to be loadable.
  void finish();

 private:
  void flush_chunk();

  std::string path_;
  std::uint32_t chunk_records_;
  std::string campaign_label_;
  std::int64_t campaign_epoch_days_ = 0;
  bool campaign_set_ = false;
  std::vector<SnapshotMeta> snapshots_;
  std::vector<SnapshotChunkInfo> chunks_;
  ColumnEncoder columns_;  // the open chunk + the file's dictionary
  std::uint32_t buffered_records_ = 0;
  std::uint64_t file_pos_ = 0;
  std::ofstream out_;
  bool in_snapshot_ = false;
  bool finished_ = false;
};

/// Random-access chunk reader. Opening validates the header, seed, the
/// complete chunk index (offsets inside the file, record counts consistent
/// with the per-snapshot host counts) and — for v6 — the certificate
/// dictionary (every stored fingerprint is recomputed from its DER; the
/// SHA-1s are computed on a thread pool and kept as cert_sha1, the
/// comparisons run in entry order so the first bad entry is the one
/// reported), and throws SnapshotError on any mismatch. Every format is
/// memory-mapped once for the reader's lifetime (falling back to a heap
/// copy where mmap is unavailable or fails), and every read decodes from
/// that one image. read_chunk() and column_view() are const and
/// thread-safe: workers may decode disjoint chunks concurrently.
class SnapshotReader final : public CertDictionary {
 public:
  SnapshotReader(const std::string& path, std::uint64_t seed);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  std::uint32_t version() const { return version_; }
  const std::vector<SnapshotMeta>& snapshots() const { return snapshots_; }
  const std::vector<SnapshotChunkInfo>& chunks() const { return chunks_; }
  std::uint64_t total_records() const;

  /// 64-bit digest of the file's validated structure (format version,
  /// measurement metas, chunk index, certificate-dictionary fingerprints).
  /// Snapshot bytes are a pure function of (records, seed), so two files
  /// with equal fingerprints carry the same records for all practical
  /// purposes — this is the staleness check sidecar files (posture
  /// sketches, src/series/sketch.hpp) validate against before their
  /// contents are allowed to stand in for a record walk.
  std::uint64_t file_fingerprint() const;

  /// Decode one chunk into records (throws SnapshotError on corrupt
  /// payload bytes). A v6 chunk's rows decode from its column view; each
  /// record's derived columns (uri_hash, the mode/policy/token masks) and
  /// head cert ids are then re-derived and cross-checked.
  std::vector<HostScanRecord> read_chunk(std::size_t chunk_index) const;

  /// Decode one chunk into a caller-owned buffer (cleared first). The
  /// streaming paths reuse one buffer across chunks instead of allocating
  /// a fresh vector per chunk.
  void read_chunk(std::size_t chunk_index, std::vector<HostScanRecord>& out) const;

  /// Stream every record in file order: fn(snapshot_ordinal, record).
  /// Holds at most one decoded chunk at a time.
  void for_each_host(
      const std::function<void(std::size_t, const HostScanRecord&)>& fn) const;

  /// Materialize everything (the legacy load-all path).
  std::vector<ScanSnapshot> load_all() const;

  /// Zero-copy column access to one v6 chunk, on any host. The view
  /// aliases the reader's mapping and must not outlive it. Throws
  /// SnapshotError for a v4/v5 file or a malformed chunk (bad header,
  /// short columns, non-monotone var offsets, an out-of-range enum
  /// column). v4/v5 rows reach the passes transposed into columns
  /// (RecordSource::visit_columns).
  ColumnView column_view(std::size_t chunk_index) const;

  /// The SnapshotError for chunk `chunk_index` failing to decode with `e`,
  /// naming the file, format, protocol set and chunk offset. read_chunk,
  /// column_view and the analysis passes over this reader all report
  /// through it.
  SnapshotError corrupt_chunk(std::size_t chunk_index, const DecodeError& e) const;

  /// v6 certificate dictionary: deduplicated DER in id order.
  std::size_t cert_count() const override { return dict_.size(); }
  std::span<const std::uint8_t> cert_der(std::uint32_t cert_id) const override;
  const Sha1Digest& cert_sha1(std::uint32_t cert_id) const override;

 private:
  /// Maps the file into data_/data_size_ (heap copy as the fallback).
  void map_file();
  /// v5 and v6: trailer, footer and chunk index (and the v6 dictionary),
  /// one parser with the version rules as its only branches.
  void open_indexed();
  /// Parses the dictionary at [offset, offset + bytes) into dict_ and
  /// verifies every stored fingerprint (throws DecodeError).
  void open_dictionary(std::uint64_t offset, std::uint64_t bytes, std::uint32_t count);
  /// chunks_[chunk_index]; SnapshotError naming the file when out of range.
  const SnapshotChunkInfo& chunk_info(std::size_t chunk_index) const;
  struct DictEntry {
    std::uint64_t offset = 0;  // of the DER bytes inside the file
    std::uint32_t length = 0;
    Sha1Digest sha1{};  // verified against the stored fingerprint at open
  };
  /// dict_[cert_id]; SnapshotError naming the file when out of range.
  const DictEntry& dict_entry(std::uint32_t cert_id) const;

  std::string path_;
  std::uint32_t version_ = 0;
  std::vector<SnapshotMeta> snapshots_;
  std::vector<SnapshotChunkInfo> chunks_;
  std::vector<DictEntry> dict_;  // v6 only
  // The whole file, every format: a read-only mapping, or heap_data_
  // where mmap is unavailable or fails. mapping_ unmaps it with the
  // reader, also when the constructor throws.
  const std::uint8_t* data_ = nullptr;
  std::size_t data_size_ = 0;
  Bytes heap_data_;
  struct Unmap {
    // No initializer: with one, this nested type is not yet
    // default-constructible where unique_ptr needs it to be; unique_ptr
    // value-initializes it to 0.
    std::size_t length;
    void operator()(void* p) const;
  };
  std::unique_ptr<void, Unmap> mapping_;
};

/// Streams `snapshots` into a snapshot file (current format, v6) via
/// SnapshotWriter. Output is byte-deterministic: same records + seed give
/// identical bytes on every run.
void save_snapshots(const std::string& path, std::uint64_t seed,
                    const std::vector<ScanSnapshot>& snapshots);

/// Returns nullopt when the file is missing, corrupt, or was produced with
/// a different seed/format version; `error` (when given) receives a
/// human-readable reason naming the detected format version and the byte
/// offset of the failure where one is known.
std::optional<std::vector<ScanSnapshot>> load_snapshots(const std::string& path,
                                                        std::uint64_t seed,
                                                        std::string* error = nullptr);

/// True when the measurement declares a campaign identity (label or epoch
/// set); v4 files and unlabeled v5 files don't, and are exempt from chain
/// validation.
bool campaign_declared(const SnapshotMeta& meta);

/// Validates that `members` (the final measurement of each campaign in an
/// ordered series) form a chain: declared epochs must strictly increase
/// (each non-zero epoch compares against the last non-zero one, even
/// across label-only members in between), and no two consecutive declared
/// members may carry the same (label, epoch) identity. Undeclared members
/// are skipped — a legacy file can sit anywhere in the series without
/// anchoring the chain. Members that declare a protocol mask must all
/// declare the *same* mask (a diff between an OPC-UA-only campaign and a
/// mixed fleet is apples-to-oranges); mask-0 members — pre-protocol files
/// — are exempt. Throws SnapshotError naming the offending link.
/// diff_campaigns applies it to its two-member (base, follow-up) pair.
void validate_campaign_chain(const std::vector<SnapshotMeta>& members);

}  // namespace opcua_study
