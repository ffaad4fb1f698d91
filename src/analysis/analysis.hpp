// Shared analysis library — every figure/table of the paper computed in
// one pass framework over a *stream* of host records.
//
// This is the one implementation of the §5 analyses (the result structs
// live in analysis/figures.hpp). It works on a chunked stream in bounded
// memory: chunk partials are aggregated by thread-pool workers and merged
// in chunk-index order, so the result is independent of thread count and
// scheduling. That is what lets one Aggregator serve the 1k-host paper
// reproduction and a million-host follow-up campaign alike (cf. Dahlmanns
// et al., PAM 2022). The tests pin it to golden dumps under tests/data/,
// to the rules their generators plant and to hand-counted populations.
// Every pass reads v6 columns: a snapshot file serves its mapped chunks as
// they are, in-memory records are transposed chunk by chunk
// (RecordSource::visit_columns). Either way one builder makes the view
// and range-checks its enum columns, so a pass rejects an out-of-range
// value with a SnapshotError, as the row reader does.
//
// Pass structure:
//   pass      one walk over every chunk: per-week tallies, the final
//             measurement's figure counters, and flat rows each record
//             appends to (a history row per server with its certificates,
//             corpus rows, and from the final measurement reuse-cluster
//             rows and, optionally, the RSA moduli for §5.3). The merge
//             adds counters and appends rows in chunk order.
//   finalize  one sort per row kind -> StudyAnalysis: the reuse clusters
//             (only certificates on >= 2 hosts become ReuseClusters), the
//             corpus, and over the history sorted by endpoint the renewal
//             events, Fig. 8 and each week's §5.5 distributor fleet, the
//             tallies that need the finished >= 3-host reuse sets.
// Certificates are facts of their dictionary entry (CertFacts, one parse
// per entry), and every certificate set is keyed by its SHA-1 digest.
#pragma once

#include <cstdint>

#include "analysis/figures.hpp"
#include "scanner/snapshot_io.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

struct AnalysisOptions {
  /// Worker threads for chunk aggregation and the batch-GCD trees; 0 =
  /// hardware concurrency, 1 = inline on the caller. The result is
  /// identical for any value.
  int threads = 1;
  /// Run the §5.3 batch-GCD shared-prime sweep (expensive at scale).
  bool shared_primes = false;
};

/// Scan-quality tallies of one measurement: how completely the grabs ran
/// once fault injection (netsim/faults.hpp) is in play. All-zero fault
/// counters and all-complete grades on fault-free data.
struct ScanQualityWeek {
  int measurement_index = 0;
  std::uint64_t hosts = 0;        // records, including discovery servers
  std::uint64_t complete = 0;     // per ProbeOutcome grade
  std::uint64_t truncated = 0;
  std::uint64_t degraded = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t faulted = 0;      // hosts that saw >= 1 injected fault
  std::uint64_t recovered = 0;    // faulted hosts still graded complete
  std::uint64_t retries = 0;      // retry attempts across all hosts
  std::uint64_t fault_events = 0; // injected faults across all hosts

  friend bool operator==(const ScanQualityWeek&, const ScanQualityWeek&) = default;
};

/// Scan-quality section of a study: per-week tallies plus study totals.
struct ScanQualityStats {
  std::vector<ScanQualityWeek> weeks;
  std::uint64_t hosts = 0, complete = 0, truncated = 0, degraded = 0, unreachable = 0;
  std::uint64_t faulted = 0, recovered = 0, retries = 0, fault_events = 0;
  /// recovered / faulted; 1.0 when nothing faulted (a fault-free campaign
  /// trivially recovered everything).
  double recovery_rate = 1.0;

  friend bool operator==(const ScanQualityStats&, const ScanQualityStats&) = default;
};

/// Every statistic the benches/examples render, computed together.
/// Figure/table members cover the final measurement (the paper's headline
/// 2020-08-30 snapshot); `longitudinal` covers all measurements.
struct StudyAnalysis {
  std::vector<SnapshotMeta> weeks;

  ModePolicyStats modes;              // Fig. 3
  CertConformanceStats certificates;  // Fig. 4
  ReuseStats reuse;                   // Fig. 5
  SharedPrimeStats shared_primes;     // §5.3 (only when options request it)
  AuthStats auth;                     // Fig. 6 / Table 2
  AccessRightsStats access_rights;    // Fig. 7
  DeficitBreakdown deficits;          // Fig. 8
  LongitudinalStats longitudinal;     // Fig. 2 / §5.5
  ScanQualityStats scan_quality;      // fault/retry/recovery rates
  ProtocolStats protocols;            // per-protocol population split

  double shared_prime_seconds = 0;  // batch-GCD wall time, 0 if skipped

  /// Figure-output identity, ignoring the timing field — the invariant
  /// the determinism tests and the pipeline bench assert.
  bool figures_equal(const StudyAnalysis& other) const;
};

/// §5.2 deficiency rules (the Fig. 8 deficits that make a host
/// deficient), one bit each; a host is deficient when any bit is set.
namespace deficiency {
inline constexpr std::uint8_t kNoSecurity = 1u << 0;        // strongest policy is None
inline constexpr std::uint8_t kDeprecatedPolicy = 1u << 1;  // strongest policy deprecated
inline constexpr std::uint8_t kWeakCertificate = 1u << 2;   // primary cert too weak for it
inline constexpr std::uint8_t kAnonymousAccess = 1u << 3;   // anonymous token offered
}  // namespace deficiency

/// Strength of a parsed certificate — what the §5.2 classifier needs of a
/// host's primary certificate (the first distinct one that parses).
struct CertStrength {
  bool parsed = false;
  HashAlgorithm hash = HashAlgorithm::sha1;
  std::size_t key_bits = 0;
};

/// Strongest policy in a v6 policy mask (table rank order is enum order,
/// so the highest set bit wins); None for an empty mask.
SecurityPolicy strongest_policy_in(std::uint8_t policy_mask);

/// The §5.2 classifier: rule bits for a host advertising `policy_mask`,
/// whose primary certificate is `primary` (nullptr when none parses).
std::uint8_t classify_deficiencies(std::uint8_t policy_mask, const CertStrength* primary,
                                   bool anonymous_offered);

/// A source of record chunks the analysis passes drain. Chunk index order
/// defines the canonical record order (ascending week, then record order
/// within the week); both visits must be const-thread-safe.
class RecordSource {
 public:
  using ColumnVisitor = std::function<void(const ColumnView&, const CertDictionary&)>;

  virtual ~RecordSource() = default;
  virtual std::size_t week_count() const = 0;
  virtual SnapshotMeta week_meta(std::size_t week) const = 0;
  virtual std::size_t chunk_count() const = 0;
  virtual std::size_t chunk_week(std::size_t chunk) const = 0;
  virtual void visit_chunk(std::size_t chunk,
                           const std::function<void(const HostScanRecord&)>& fn) const = 0;
  /// One chunk as v6 columns plus the dictionary its cert ids index — the
  /// only input of the analysis and posture passes. The default, which
  /// serves SnapshotVectorSource, transposes visit_chunk's records through
  /// a ColumnEncoder with a chunk-scoped dictionary; records the v6 format
  /// cannot hold throw the SnapshotError their write would. A value the
  /// view's checks or the pass reject (a DecodeError) becomes
  /// corrupt_chunk's SnapshotError.
  virtual void visit_columns(std::size_t chunk, const ColumnVisitor& fn) const;
  /// The dictionary every chunk's ids index when the source has one
  /// file-wide, so per-certificate facts are computed once per file;
  /// nullptr when each visit hands out its own.
  virtual const CertDictionary* shared_dictionary() const { return nullptr; }

 protected:
  /// The one SnapshotError for chunk `chunk` failing a pass with `e`; the
  /// default names the chunk and its week.
  virtual SnapshotError corrupt_chunk(std::size_t chunk, const DecodeError& e) const;
};

/// Everything the figure and posture passes read of one certificate
/// dictionary entry, computed once per entry rather than once per host:
/// the entry's SHA-1 (the key of every certificate set and the posture
/// fingerprint), and what its DER parse yields (CertStrength's fields,
/// the self-signed flag, the subject organization, NotBefore and, for the
/// §5.3 sweep only, the RSA modulus). An entry whose DER does not parse
/// keeps its SHA-1 and nothing else.
struct CertFacts : CertStrength {
  Sha1Digest sha1{};
  bool self_signed = false;
  std::string org;
  std::int64_t not_before_days = 0;
  Bignum modulus;  // only in a table built with_modulus
};

/// CertFacts by dictionary id, for the dictionaries a column visit hands
/// out, each entry filled by one function (one DER parse per entry): a
/// source's shared dictionary is digested once up front on the
/// caller's pool (each entry into its own slot, so the table is the same
/// for any thread count), a chunk-scoped one serially on every visit.
class CertFactTable {
 public:
  CertFactTable(const RecordSource& source, const ThreadPool& pool, bool with_modulus);

  /// Facts of `dict`; `scratch` holds them when `dict` is chunk-scoped.
  const std::vector<CertFacts>& of(const CertDictionary& dict,
                                   std::vector<CertFacts>& scratch) const;

 private:
  const CertDictionary* shared_;
  bool with_modulus_;
  std::vector<CertFacts> shared_facts_;
};

/// facts[id]; a cert id past the dictionary is a DecodeError.
const CertFacts& fact_at(const std::vector<CertFacts>& facts, std::uint32_t id);

/// The primary certificate among a record's head ids: the first that
/// parses (head ids are the distinct certificates in first-seen endpoint
/// order, so this is the first endpoint certificate that parses).
const CertFacts* primary_cert(const std::vector<std::uint32_t>& ids,
                              const std::vector<CertFacts>& facts);

/// Adapters.
class ReaderRecordSource final : public RecordSource {
 public:
  explicit ReaderRecordSource(const SnapshotReader& reader) : reader_(reader) {}
  std::size_t week_count() const override { return reader_.snapshots().size(); }
  SnapshotMeta week_meta(std::size_t week) const override { return reader_.snapshots()[week]; }
  std::size_t chunk_count() const override { return reader_.chunks().size(); }
  std::size_t chunk_week(std::size_t chunk) const override {
    return reader_.chunks()[chunk].snapshot_ordinal;
  }
  void visit_chunk(std::size_t chunk,
                   const std::function<void(const HostScanRecord&)>& fn) const override;
  /// The chunk as the reader's column view, on any host, with the file
  /// dictionary: the view checks the chunk as read_chunk does, short of
  /// the cross-checks only rows need.
  void visit_columns(std::size_t chunk, const ColumnVisitor& fn) const override;
  const CertDictionary* shared_dictionary() const override { return &reader_; }

 protected:
  /// The reader's own report, as load_snapshots gives it.
  SnapshotError corrupt_chunk(std::size_t chunk, const DecodeError& e) const override;

 private:
  const SnapshotReader& reader_;
};

class SnapshotVectorSource final : public RecordSource {
 public:
  SnapshotVectorSource(const std::vector<ScanSnapshot>& snapshots, std::uint32_t chunk_records);
  std::size_t week_count() const override { return snapshots_.size(); }
  SnapshotMeta week_meta(std::size_t week) const override;
  std::size_t chunk_count() const override { return chunks_.size(); }
  std::size_t chunk_week(std::size_t chunk) const override { return chunks_[chunk].week; }
  void visit_chunk(std::size_t chunk,
                   const std::function<void(const HostScanRecord&)>& fn) const override;

 private:
  struct Span {
    std::size_t week, first, count;
  };
  const std::vector<ScanSnapshot>& snapshots_;
  std::vector<Span> chunks_;
  std::vector<std::uint32_t> protocol_masks_;  // per week, as the writer declares them
};

/// Entry points. analyze_file/analyze_reader stream chunk-by-chunk and
/// never materialize a full snapshot; analyze_snapshots serves callers
/// that already hold the vector, in chunks of
/// SnapshotWriter::kDefaultChunkRecords (analyze_source over a
/// SnapshotVectorSource picks another chunk size).
StudyAnalysis analyze_source(const RecordSource& source, const AnalysisOptions& options = {});
StudyAnalysis analyze_reader(const SnapshotReader& reader, const AnalysisOptions& options = {});
StudyAnalysis analyze_file(const std::string& path, std::uint64_t seed,
                           const AnalysisOptions& options = {});
StudyAnalysis analyze_snapshots(const std::vector<ScanSnapshot>& snapshots,
                                const AnalysisOptions& options = {});

}  // namespace opcua_study
