// Chunk-parallel implementation of the shared analysis library.
//
// Each worker aggregates whole chunks into a ChunkPartial; partials are
// merged on the caller in chunk-index order, so every statistic —
// including order-sensitive ones like the Fig. 7 fraction vectors and the
// renewal-event list — is identical to a sequential pass over the same
// records (the tests pin this, and pin the result to recorded goldens).
// The one pass absorbs v6 columns only: scalar figures come from the
// fixed columns, identity strings and cert ids from a lazy cursor over the
// var record, and per-certificate facts from a table over the chunk's
// dictionary.
//
// What one record cannot settle alone (the host history, the certificate
// corpus, the final week's reuse clusters and RSA moduli) is kept as flat
// rows of digests and small integers: absorbing a record appends rows, and
// the merge appends each partial's rows in chunk order, so neither makes a
// map node per record. Finalize sorts each row kind once and reads its
// runs; Fig. 8 and the weekly manufacturer split count over the history.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>

#include "analysis/analysis.hpp"
#include "crypto/batch_gcd.hpp"
#include "obs/metrics.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

template <typename K, typename V>
void merge_count_map(std::map<K, V>& into, const std::map<K, V>& from) {
  for (const auto& [key, count] : from) into[key] += count;
}

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

/// Calls fn(first, last) for each run of rows with equal `proj(row)` in
/// `rows`, which are sorted by it.
template <typename Row, typename Proj, typename Fn>
void for_each_run(const std::vector<Row>& rows, Proj proj, Fn fn) {
  for (auto first = rows.begin(); first != rows.end();) {
    const auto last = std::find_if(first, rows.end(), [&](const Row& row) {
      return std::invoke(proj, row) != std::invoke(proj, *first);
    });
    fn(first, last);
    first = last;
  }
}

/// Byte order of two digests, which is the order of their lowercase hex.
/// Their fingerprint64s (the first eight bytes as one integer) decide all
/// but rare ties, so sorts and searches compare integers, not byte arrays.
constexpr auto digest_less = [](const Sha1Digest& a, const Sha1Digest& b) {
  const std::uint64_t x = fingerprint64(a), y = fingerprint64(b);
  return x != y ? x < y : a < b;
};

/// Record counts by ProtocolId.
using ProtocolCounts = std::array<std::uint64_t, kProtocolCount>;

void add_counts(ProtocolCounts& into, const ProtocolCounts& from) {
  for (std::size_t p = 0; p < into.size(); ++p) into[p] += from[p];
}

/// The protocols counted at least once, as the result structs key them.
std::map<ProtocolId, std::uint64_t> protocol_map(const ProtocolCounts& counts) {
  std::map<ProtocolId, std::uint64_t> out;
  for (std::size_t p = 0; p < counts.size(); ++p) {
    if (counts[p] != 0) out.emplace(static_cast<ProtocolId>(p), counts[p]);
  }
  return out;
}

/// Distinct strings in order of first appearance; rows hold the index.
struct StringTable {
  std::vector<std::string> values;
  std::unordered_map<std::string, std::uint32_t> index;

  std::uint32_t intern(const std::string& value) {
    const auto [it, added] = index.try_emplace(value, static_cast<std::uint32_t>(values.size()));
    if (added) values.push_back(value);
    return it->second;
  }
};

/// One certificate of a history row: the entry's digest and signature
/// hash, nullopt when its DER does not parse.
struct CertRef {
  Sha1Digest digest{};
  std::optional<HashAlgorithm> hash;

  friend bool operator==(const CertRef&, const CertRef&) = default;
};

/// One server record as the finalize reads it: renewal detection (§5.5)
/// compares an endpoint's consecutive observations, and the tallies that
/// need the final week's finished >= 3-host reuse sets count over them.
struct HistoryRow {
  Ipv4 ip = 0;
  std::uint16_t port = 0;
  std::uint8_t rules = 0;      // classify_deficiencies bits
  std::uint32_t week = 0;      // ordinal in the source
  std::uint32_t asn = 0;
  std::uint32_t label = 0;     // manufacturer label, in the labels table
  std::uint32_t software = 0;  // software version, in the versions table
  /// The record's distinct certificates, ascending by digest:
  /// cert_refs[first_cert, first_cert + cert_count).
  std::uint32_t cert_count = 0;
  std::size_t first_cert = 0;
};

/// A parsed certificate of a server record, for the cross-week corpus.
struct CorpusRow {
  Sha1Digest digest{};
  HashAlgorithm hash = HashAlgorithm::sha1;
  std::int64_t not_before_days = 0;
};

/// A certificate of a final-week server record (Fig. 5). `facts` is the
/// entry's, read at finalize for its subject organization.
struct ClusterRow {
  Sha1Digest digest{};
  std::uint32_t asn = 0;
  const CertFacts* facts = nullptr;
};

// ------------------------------------------------------ chunk partials ----

/// Everything one chunk of records contributes. A chunk belongs to exactly
/// one measurement; the final measurement's chunks additionally feed the
/// figure statistics, the reuse clusters and the §5.3 moduli.
struct ChunkPartial {
  // Weekly tallies (Fig. 2 / §5.5), servers unless noted.
  int servers = 0, discovery = 0, via_reference = 0, non_default_port = 0, deficient = 0;

  // Rows, in record order: every server record's history row and its
  // certificates, its parsed certificates for the corpus, and in the final
  // week its certificates for the clusters and, for §5.3, the moduli of
  // every record's parsed certificates, discovery servers included.
  std::vector<HistoryRow> history;
  std::vector<CertRef> cert_refs;
  std::vector<CorpusRow> corpus;
  std::vector<ClusterRow> clusters;
  std::vector<const Bignum*> moduli;
  StringTable labels, versions;
  /// The facts of a chunk-scoped dictionary, which the final week's
  /// cluster and modulus rows point into; empty for a shared dictionary.
  std::vector<CertFacts> chunk_facts;

  // Scan quality (fault-injection resilience; all zero on fault-free data).
  std::uint64_t q_hosts = 0, q_complete = 0, q_truncated = 0, q_degraded = 0, q_unreachable = 0;
  std::uint64_t q_faulted = 0, q_recovered = 0, q_retries = 0, q_fault_events = 0;

  // Per-protocol population split. proto_hosts covers every record (like
  // the quality tallies); the final-week counts cover servers only.
  ProtocolCounts proto_hosts{};
  ProtocolCounts proto_servers{}, proto_deficient{}, proto_anonymous{};

  // Final-measurement figures (Fig. 8 counts over the history at finalize).
  ModePolicyStats modes;
  CertConformanceStats certs;
  std::map<std::tuple<bool, bool, bool, bool>, AuthRow> auth_rows;
  AuthStats auth;  // scalar fields; rows assembled at finalize
  AccessRightsStats access;

  /// Quality tallies cover *every* record (discovery servers included —
  /// the section measures the scan process, not the server population).
  void absorb_quality(const ColumnView::Quality& quality) {
    ++q_hosts;
    switch (quality.completeness) {
      case 0: ++q_complete; break;
      case 1: ++q_truncated; break;
      case 2: ++q_degraded; break;
      default: ++q_unreachable; break;
    }
    q_retries += quality.retries;
    q_fault_events += quality.fault_events;
    if (quality.fault_events > 0) {
      ++q_faulted;
      if (quality.completeness == 0) ++q_recovered;
    }
  }

  /// Mask iteration runs in enum order, which is equivalent to the
  /// records' first-seen endpoint order because every mode/policy has a
  /// distinct rank and no endpoint ever advertises Invalid mode.
  void absorb(const ColumnView& view, std::size_t i, const std::vector<CertFacts>& facts,
              std::vector<std::uint32_t>& ids, std::uint32_t week, bool final_week,
              bool collect_moduli) {
    const std::uint8_t host_flags = view.flags[i];
    const auto protocol = static_cast<std::size_t>(view.protocol(i));
    absorb_quality(view.quality(i));
    ++proto_hosts[protocol];
    const bool anonymous_offered = (host_flags & snapshot_flags::kAnonymousOffered) != 0;
    const bool is_discovery = view.application_type[i] ==
                              static_cast<std::uint8_t>(ApplicationType::DiscoveryServer);
    const bool accessible =
        view.session[i] == static_cast<std::uint8_t>(SessionOutcome::accessible);

    // Var-column reads happen up front in field order; within one host
    // every statistic below is a pure accumulation, so ordering is free.
    ids.clear();
    VarRecordCursor cursor(view.var_record(i));
    std::string app_uri;
    std::string software;
    std::vector<std::string> nss;
    // A final-week discovery server's certificates are §5.3 moduli, never
    // cluster hosts. Its id list is read with the sweep off too, so a
    // final-week record whose ids do not decode fails the pass either way.
    if (!is_discovery || final_week) cursor.cert_ids(ids);
    if (!is_discovery) {
      app_uri = cursor.application_uri();
      software = cursor.software_version();
      if (final_week && accessible) nss = cursor.namespaces();
    }
    // Fig. 7 is the one figure with no discovery-server filter: it keys
    // on session outcome alone.
    if (final_week && accessible) {
      int vars = 0, readable = 0, writable = 0, methods = 0, executable = 0;
      cursor.visit_nodes([&](NodeClass node_class, bool r, bool w, bool x) {
        if (node_class == NodeClass::Variable) {
          ++vars;
          readable += r;
          writable += w;
        } else if (node_class == NodeClass::Method) {
          ++methods;
          executable += x;
        }
      });
      if (vars > 0) {
        access.read_fractions.push_back(static_cast<double>(readable) / vars);
        access.write_fractions.push_back(static_cast<double>(writable) / vars);
      }
      if (methods > 0) {
        access.exec_fractions.push_back(static_cast<double>(executable) / methods);
      }
    }

    if (final_week && collect_moduli) {
      for (const std::uint32_t id : ids) {
        const CertFacts& entry = fact_at(facts, id);
        if (entry.parsed) moduli.push_back(&entry.modulus);
      }
    }
    if (is_discovery) {
      ++discovery;
      return;
    }
    ++servers;
    via_reference += (host_flags & snapshot_flags::kFoundViaReference) != 0;
    non_default_port += view.port[i] != kOpcUaDefaultPort;

    const std::uint8_t policy_mask = view.policy_mask[i];
    const CertFacts* cert = primary_cert(ids, facts);
    const std::uint8_t rules = classify_deficiencies(policy_mask, cert, anonymous_offered);
    deficient += rules != 0;
    if (final_week) {
      ++proto_servers[protocol];
      if (rules != 0) ++proto_deficient[protocol];
      if (anonymous_offered) ++proto_anonymous[protocol];
    }

    // ----- History, corpus (§5.5) and Fig. 5 clusters ---------------------
    HistoryRow host;
    host.ip = view.ip[i];
    host.port = view.port[i];
    host.rules = rules;
    host.week = week;
    host.asn = view.asn[i];
    host.label = labels.intern(manufacturer_cluster(app_uri));
    host.software = versions.intern(software);
    host.first_cert = cert_refs.size();
    for (const std::uint32_t id : ids) {
      const CertFacts& entry = fact_at(facts, id);
      std::optional<HashAlgorithm> hash;
      if (entry.parsed) {
        hash = entry.hash;
        corpus.push_back({entry.sha1, entry.hash, entry.not_before_days});
      }
      cert_refs.push_back({entry.sha1, hash});
      if (final_week) clusters.push_back({entry.sha1, host.asn, &entry});
    }
    // Entries with one digest have one DER, so the refs unique drops equal
    // the one it keeps.
    const std::span<CertRef> record_certs = std::span(cert_refs).subspan(host.first_cert);
    std::ranges::sort(record_certs, digest_less, &CertRef::digest);
    const auto repeats = std::ranges::unique(record_certs, {}, &CertRef::digest);
    cert_refs.resize(cert_refs.size() - repeats.size());
    host.cert_count = static_cast<std::uint32_t>(cert_refs.size() - host.first_cert);
    history.push_back(host);

    if (!final_week) return;

    // ----- Fig. 3: security modes and policies --------------------------
    ++modes.servers;
    const std::uint8_t mode_mask = view.mode_mask[i];
    MessageSecurityMode weakest_mode = MessageSecurityMode::Invalid;
    MessageSecurityMode strongest_mode = MessageSecurityMode::Invalid;
    for (int m = 0; m <= 3; ++m) {
      if (!(mode_mask & (1u << m))) continue;
      const auto mode = static_cast<MessageSecurityMode>(m);
      modes.mode_support[mode]++;
      if (weakest_mode == MessageSecurityMode::Invalid ||
          security_mode_rank(mode) < security_mode_rank(weakest_mode)) {
        weakest_mode = mode;
      }
      if (security_mode_rank(mode) > security_mode_rank(strongest_mode)) strongest_mode = mode;
    }
    if (weakest_mode != MessageSecurityMode::Invalid) modes.mode_least[weakest_mode]++;
    if (strongest_mode != MessageSecurityMode::Invalid) modes.mode_most[strongest_mode]++;
    if (strongest_mode == MessageSecurityMode::None) ++modes.none_only;
    if (security_mode_rank(strongest_mode) >= security_mode_rank(MessageSecurityMode::Sign)) {
      ++modes.secure_mode_capable;
    }

    std::optional<SecurityPolicy> weakest;
    bool any_deprecated = false;
    for (const SecurityPolicy policy : kAllPolicies) {
      if (!(policy_mask & (1u << static_cast<int>(policy)))) continue;
      if (!weakest) weakest = policy;
      modes.policy_support[policy]++;
      any_deprecated |= policy_info(policy).deprecated;
    }
    if (weakest) {
      const SecurityPolicy strongest = strongest_policy_in(policy_mask);
      modes.policy_least[*weakest]++;
      modes.policy_most[strongest]++;
      if (policy_info(*weakest).secure) ++modes.strong_enforcing;
      if (policy_info(strongest).secure) ++modes.strong_capable;
      if (policy_info(strongest).deprecated) ++modes.deprecated_max;
    }
    modes.deprecated_supported += any_deprecated;

    // ----- Fig. 4: certificate conformance ------------------------------
    if (cert) {
      ++certs.hosts_with_cert;
      if (!cert->self_signed) ++certs.ca_signed;
      const CertClassKey key{cert->hash, cert->key_bits};
      for (const SecurityPolicy policy : kAllPolicies) {
        if (!(policy_mask & (1u << static_cast<int>(policy)))) continue;
        certs.class_counts[policy][key]++;
        certs.announced_with_cert[policy]++;
        switch (classify_certificate(policy, cert->hash, cert->key_bits)) {
          case CertConformance::too_weak: certs.too_weak[policy]++; break;
          case CertConformance::too_strong: certs.too_strong[policy]++; break;
          case CertConformance::conformant: break;
        }
      }
      if (rules & deficiency::kWeakCertificate) ++certs.weaker_than_max;
    }

    // ----- Fig. 6 / Table 2: authentication -----------------------------
    ++auth.servers;
    AuthRow probe;
    const std::uint8_t token_mask = view.token_mask[i];
    probe.anonymous = (token_mask & (1u << static_cast<int>(UserTokenType::Anonymous))) != 0;
    probe.credentials = (token_mask & (1u << static_cast<int>(UserTokenType::UserName))) != 0;
    probe.certificate = (token_mask & (1u << static_cast<int>(UserTokenType::Certificate))) != 0;
    probe.token = (token_mask & (1u << static_cast<int>(UserTokenType::IssuedToken))) != 0;
    AuthRow& row = auth_rows.try_emplace(probe.key(), probe).first->second;
    const bool sc_rejected =
        view.channel[i] == static_cast<std::uint8_t>(ChannelOutcome::cert_rejected) ||
        view.channel[i] == static_cast<std::uint8_t>(ChannelOutcome::failed);
    if (sc_rejected) {
      ++auth.channel_rejected;
      ++row.channel_rejected;
    } else {
      ++auth.channel_capable;
    }
    if (probe.anonymous) {
      ++auth.anonymous_offered;
      if (!sc_rejected) ++auth.anonymous_channel_capable;
      const bool none_mode =
          (mode_mask & (1u << static_cast<int>(MessageSecurityMode::None))) != 0;
      if (!none_mode) ++auth.anonymous_secure_only;
    }
    if (accessible) {
      ++auth.accessible;
      switch (classify_namespaces(nss)) {
        case SystemClass::production:
          ++auth.production;
          ++row.production;
          break;
        case SystemClass::test:
          ++auth.test;
          ++row.test;
          break;
        case SystemClass::unclassified:
          ++auth.unclassified;
          ++row.unclassified;
          break;
      }
    } else if (!sc_rejected) {
      ++auth.auth_rejected;
      ++row.auth_rejected;
    }

  }
};

/// Appends `from`'s rows to `into`'s, re-indexing labels, versions and
/// certificate ranges into `into`'s tables.
void append_rows(ChunkPartial& into, const ChunkPartial& from) {
  const auto reindex = [](StringTable& table, const StringTable& from_table) {
    std::vector<std::uint32_t> index;
    for (const std::string& value : from_table.values) index.push_back(table.intern(value));
    return index;
  };
  const std::vector<std::uint32_t> label = reindex(into.labels, from.labels);
  const std::vector<std::uint32_t> software = reindex(into.versions, from.versions);
  const std::size_t cert_base = into.cert_refs.size();
  for (HistoryRow host : from.history) {
    host.label = label[host.label];
    host.software = software[host.software];
    host.first_cert += cert_base;
    into.history.push_back(host);
  }
  append(into.cert_refs, from.cert_refs);
  append(into.corpus, from.corpus);
  append(into.clusters, from.clusters);
  append(into.moduli, from.moduli);
}

void merge_figures(ChunkPartial& into, const ChunkPartial& from) {
  // Cross-protocol split (final week, servers only)
  add_counts(into.proto_servers, from.proto_servers);
  add_counts(into.proto_deficient, from.proto_deficient);
  add_counts(into.proto_anonymous, from.proto_anonymous);
  // Fig. 3
  into.modes.servers += from.modes.servers;
  merge_count_map(into.modes.mode_support, from.modes.mode_support);
  merge_count_map(into.modes.mode_least, from.modes.mode_least);
  merge_count_map(into.modes.mode_most, from.modes.mode_most);
  merge_count_map(into.modes.policy_support, from.modes.policy_support);
  merge_count_map(into.modes.policy_least, from.modes.policy_least);
  merge_count_map(into.modes.policy_most, from.modes.policy_most);
  into.modes.none_only += from.modes.none_only;
  into.modes.secure_mode_capable += from.modes.secure_mode_capable;
  into.modes.deprecated_supported += from.modes.deprecated_supported;
  into.modes.deprecated_max += from.modes.deprecated_max;
  into.modes.strong_enforcing += from.modes.strong_enforcing;
  into.modes.strong_capable += from.modes.strong_capable;
  // Fig. 4
  for (const auto& [policy, classes] : from.certs.class_counts) {
    merge_count_map(into.certs.class_counts[policy], classes);
  }
  merge_count_map(into.certs.announced_with_cert, from.certs.announced_with_cert);
  merge_count_map(into.certs.too_weak, from.certs.too_weak);
  merge_count_map(into.certs.too_strong, from.certs.too_strong);
  into.certs.weaker_than_max += from.certs.weaker_than_max;
  into.certs.hosts_with_cert += from.certs.hosts_with_cert;
  into.certs.ca_signed += from.certs.ca_signed;
  // Fig. 6 / Table 2
  for (const auto& [key, row] : from.auth_rows) {
    const auto [it, inserted] = into.auth_rows.try_emplace(key, row);
    if (!inserted) {
      it->second.production += row.production;
      it->second.test += row.test;
      it->second.unclassified += row.unclassified;
      it->second.auth_rejected += row.auth_rejected;
      it->second.channel_rejected += row.channel_rejected;
    }
  }
  into.auth.servers += from.auth.servers;
  into.auth.channel_capable += from.auth.channel_capable;
  into.auth.channel_rejected += from.auth.channel_rejected;
  into.auth.anonymous_offered += from.auth.anonymous_offered;
  into.auth.anonymous_channel_capable += from.auth.anonymous_channel_capable;
  into.auth.anonymous_secure_only += from.auth.anonymous_secure_only;
  into.auth.accessible += from.auth.accessible;
  into.auth.auth_rejected += from.auth.auth_rejected;
  into.auth.production += from.auth.production;
  into.auth.test += from.auth.test;
  into.auth.unclassified += from.auth.unclassified;
  // Fig. 7 (record order == chunk order)
  append(into.access.read_fractions, from.access.read_fractions);
  append(into.access.write_fractions, from.access.write_fractions);
  append(into.access.exec_fractions, from.access.exec_fractions);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

SecurityPolicy strongest_policy_in(std::uint8_t policy_mask) {
  SecurityPolicy max = SecurityPolicy::None;
  for (const SecurityPolicy policy : kAllPolicies) {
    if (policy_mask & (1u << static_cast<int>(policy))) max = policy;
  }
  return max;
}

std::uint8_t classify_deficiencies(std::uint8_t policy_mask, const CertStrength* primary,
                                   bool anonymous_offered) {
  const SecurityPolicy max = strongest_policy_in(policy_mask);
  std::uint8_t rules = 0;
  if (max == SecurityPolicy::None) rules |= deficiency::kNoSecurity;
  if (policy_info(max).deprecated) rules |= deficiency::kDeprecatedPolicy;
  if (primary != nullptr && max != SecurityPolicy::None &&
      classify_certificate(max, primary->hash, primary->key_bits) == CertConformance::too_weak) {
    rules |= deficiency::kWeakCertificate;
  }
  if (anonymous_offered) rules |= deficiency::kAnonymousAccess;
  return rules;
}

namespace {

/// The facts of dictionary entry `cert_id`; the one DER parse every pass
/// makes of an entry.
CertFacts cert_facts(const CertDictionary& dict, std::uint32_t cert_id, bool with_modulus) {
  CertFacts facts;
  facts.sha1 = dict.cert_sha1(cert_id);
  try {
    Certificate cert = x509_parse(dict.cert_der(cert_id));
    facts.parsed = true;
    facts.hash = cert.signature_hash;
    facts.key_bits = cert.key_bits();
    facts.self_signed = cert.self_signed();
    facts.org = std::move(cert.subject.organization);
    facts.not_before_days = cert.not_before_days;
    if (with_modulus) facts.modulus = std::move(cert.public_key.n);
  } catch (const DecodeError&) {
  }
  return facts;
}

}  // namespace

CertFactTable::CertFactTable(const RecordSource& source, const ThreadPool& pool, bool with_modulus)
    : shared_(source.shared_dictionary()), with_modulus_(with_modulus) {
  if (shared_ == nullptr) return;
  shared_facts_.resize(shared_->cert_count());
  pool.parallel_for(shared_facts_.size(), [&](std::size_t id) {
    shared_facts_[id] = cert_facts(*shared_, static_cast<std::uint32_t>(id), with_modulus_);
  });
}

const std::vector<CertFacts>& CertFactTable::of(const CertDictionary& dict,
                                                std::vector<CertFacts>& scratch) const {
  if (&dict == shared_) return shared_facts_;
  scratch.clear();
  scratch.reserve(dict.cert_count());
  for (std::uint32_t id = 0; id < dict.cert_count(); ++id) {
    scratch.push_back(cert_facts(dict, id, with_modulus_));
  }
  return scratch;
}

const CertFacts& fact_at(const std::vector<CertFacts>& facts, std::uint32_t id) {
  if (id >= facts.size()) {
    throw DecodeError("certificate id " + std::to_string(id) + " out of dictionary range (" +
                      std::to_string(facts.size()) + " entries)");
  }
  return facts[id];
}

const CertFacts* primary_cert(const std::vector<std::uint32_t>& ids,
                              const std::vector<CertFacts>& facts) {
  for (const std::uint32_t id : ids) {
    if (fact_at(facts, id).parsed) return &facts[id];
  }
  return nullptr;
}

void RecordSource::visit_columns(std::size_t chunk, const ColumnVisitor& fn) const {
  ColumnEncoder columns;
  visit_chunk(chunk, [&](const HostScanRecord& host) { columns.add(host); });
  try {
    fn(columns.view(static_cast<std::uint32_t>(chunk_week(chunk))), columns);
  } catch (const DecodeError& e) {
    throw corrupt_chunk(chunk, e);
  }
}

SnapshotError RecordSource::corrupt_chunk(std::size_t chunk, const DecodeError& e) const {
  return SnapshotError("corrupt chunk " + std::to_string(chunk) + " (week " +
                       std::to_string(chunk_week(chunk)) + "): " + e.what());
}

void ReaderRecordSource::visit_chunk(std::size_t chunk,
                                     const std::function<void(const HostScanRecord&)>& fn) const {
  // Each pool worker reuses one decode buffer across all the chunks it
  // processes instead of allocating (and churning) a fresh vector per call.
  static thread_local std::vector<HostScanRecord> records;
  reader_.read_chunk(chunk, records);
  for (const auto& record : records) fn(record);
}

void ReaderRecordSource::visit_columns(std::size_t chunk, const ColumnVisitor& fn) const {
  if (shared_dictionary() == nullptr) return RecordSource::visit_columns(chunk, fn);
  const ColumnView view = reader_.column_view(chunk);
  try {
    fn(view, reader_);
  } catch (const DecodeError& e) {
    throw corrupt_chunk(chunk, e);
  }
}

SnapshotError ReaderRecordSource::corrupt_chunk(std::size_t chunk, const DecodeError& e) const {
  return reader_.corrupt_chunk(chunk, e);
}

SnapshotVectorSource::SnapshotVectorSource(const std::vector<ScanSnapshot>& snapshots,
                                           std::uint32_t chunk_records)
    : snapshots_(snapshots) {
  const std::size_t stride = std::max<std::uint32_t>(1, chunk_records);
  for (std::size_t week = 0; week < snapshots.size(); ++week) {
    const std::size_t hosts = snapshots[week].hosts.size();
    for (std::size_t first = 0; first < hosts; first += stride) {
      chunks_.push_back({week, first, std::min(stride, hosts - first)});
    }
  }
}

SnapshotMeta SnapshotVectorSource::week_meta(std::size_t week) const {
  const ScanSnapshot& snapshot = snapshots_[week];
  SnapshotMeta meta;
  meta.measurement_index = snapshot.measurement_index;
  meta.date_days = snapshot.date_days;
  meta.probes_sent = snapshot.probes_sent;
  meta.tcp_open_count = snapshot.tcp_open_count;
  meta.host_count = snapshot.hosts.size();
  return meta;
}

void SnapshotVectorSource::visit_chunk(
    std::size_t chunk, const std::function<void(const HostScanRecord&)>& fn) const {
  const Span& span = chunks_[chunk];
  const auto& hosts = snapshots_[span.week].hosts;
  for (std::size_t i = 0; i < span.count; ++i) fn(hosts[span.first + i]);
}

bool StudyAnalysis::figures_equal(const StudyAnalysis& other) const {
  return weeks == other.weeks && modes == other.modes && certificates == other.certificates &&
         reuse == other.reuse && shared_primes == other.shared_primes && auth == other.auth &&
         access_rights == other.access_rights && deficits == other.deficits &&
         longitudinal == other.longitudinal && scan_quality == other.scan_quality &&
         protocols == other.protocols;
}

StudyAnalysis analyze_source(const RecordSource& source, const AnalysisOptions& options) {
  const obs::WallTimer pass_timer(obs::Metric::analysis_pass_wall_us);
  StudyAnalysis analysis;
  const std::size_t weeks = source.week_count();
  for (std::size_t w = 0; w < weeks; ++w) analysis.weeks.push_back(source.week_meta(w));
  if (weeks == 0) return analysis;

  const std::size_t final_week = weeks - 1;
  const std::size_t chunk_count = source.chunk_count();
  ThreadPool pool(options.threads);
  const CertFactTable cert_table(source, pool, options.shared_primes);

  // ---- the pass: figures + rows + weekly tallies ------------------------
  // Early prefix merge: as soon as the contiguous prefix of chunks has
  // been aggregated, those partials append their rows to the running total
  // and fold their counters into it (in chunk-index order, so the result
  // is that of a sequential pass) and die. On a 10M-host stream every
  // chunk's partial would otherwise coexist until the end; this way at
  // most the unmerged suffix does.
  ChunkPartial total;
  std::vector<WeeklyObservation> week_obs(weeks);
  std::vector<ScanQualityWeek> quality_weeks(weeks);
  std::vector<ProtocolCounts> proto_week_hosts(weeks);
  // The chunk-scoped facts the final week's rows point into.
  std::vector<std::vector<CertFacts>> final_week_facts;
  std::vector<ChunkPartial> partials(chunk_count);
  pool.parallel_for_merged(
      chunk_count,
      [&](std::size_t c) {
        const std::size_t week = source.chunk_week(c);
        ChunkPartial& partial = partials[c];
        source.visit_columns(c, [&](const ColumnView& view, const CertDictionary& dict) {
          const std::vector<CertFacts>& facts = cert_table.of(dict, partial.chunk_facts);
          std::vector<std::uint32_t> ids;
          for (std::size_t r = 0; r < view.records; ++r) {
            partial.absorb(view, r, facts, ids, static_cast<std::uint32_t>(week),
                           week == final_week, options.shared_primes);
          }
        });
      },
      [&](std::size_t c) {
        ChunkPartial& partial = partials[c];
        const std::size_t week = source.chunk_week(c);
        WeeklyObservation& obs = week_obs[week];
        obs.servers += partial.servers;
        obs.discovery += partial.discovery;
        obs.via_reference += partial.via_reference;
        obs.non_default_port += partial.non_default_port;
        obs.deficient += partial.deficient;
        ScanQualityWeek& q = quality_weeks[week];
        q.hosts += partial.q_hosts;
        q.complete += partial.q_complete;
        q.truncated += partial.q_truncated;
        q.degraded += partial.q_degraded;
        q.unreachable += partial.q_unreachable;
        q.faulted += partial.q_faulted;
        q.recovered += partial.q_recovered;
        q.retries += partial.q_retries;
        q.fault_events += partial.q_fault_events;
        add_counts(proto_week_hosts[week], partial.proto_hosts);
        append_rows(total, partial);
        merge_figures(total, partial);
        if (week == final_week && !partial.chunk_facts.empty()) {
          final_week_facts.push_back(std::move(partial.chunk_facts));
        }
        partial = ChunkPartial{};
      });
  partials.clear();

  // ---- finalize: one sort per row kind ----------------------------------
  // Stable sorts, so the rows of one key keep merge order, which is record
  // order: cluster and corpus rows by digest (the first row of a digest is
  // its first sighting), history rows by endpoint (an endpoint's rows in
  // the order renewal detection compares them). The sorts are independent,
  // so each is one task on the pool.
  std::vector<HistoryRow>& history = total.history;
  pool.parallel_for(3, [&](std::size_t kind) {
    if (kind == 0) std::ranges::stable_sort(total.clusters, digest_less, &ClusterRow::digest);
    if (kind == 1) std::ranges::stable_sort(total.corpus, digest_less, &CorpusRow::digest);
    if (kind == 2) {
      std::ranges::stable_sort(history, {}, [](const HistoryRow& host) {
        return std::uint64_t{host.ip} << 16 | host.port;
      });
    }
  });

  // ---- finalize: Fig. 5 reuse clusters ----------------------------------
  // Each run of one digest is one certificate; only runs on two or more
  // hosts become clusters.
  std::vector<Sha1Digest> reused, fleet;  // >= 3 hosts; of those, the distributor's
  for_each_run(total.clusters, &ClusterRow::digest, [&](auto first, auto last) {
    ++analysis.reuse.distinct_certificates;
    const int hosts = static_cast<int>(last - first);
    if (hosts < 2) return;
    ReuseCluster cluster;
    cluster.fingerprint_hex = to_hex(first->digest);
    cluster.host_count = hosts;
    for (auto row = first; row != last; ++row) cluster.ases.insert(row->asn);
    const auto named =
        std::find_if(first, last, [](const ClusterRow& row) { return !row.facts->org.empty(); });
    if (named != last) cluster.subject_organization = named->facts->org;
    if (hosts >= 3) {
      ++analysis.reuse.clusters_ge3;
      analysis.reuse.hosts_in_ge3 += hosts;
      reused.push_back(first->digest);
      if (cluster.subject_organization == "Bachmann electronic") fleet.push_back(first->digest);
    }
    analysis.reuse.clusters.push_back(std::move(cluster));
  });
  // Fingerprint breaks host-count ties, so the order is the same under
  // every standard library.
  std::sort(analysis.reuse.clusters.begin(), analysis.reuse.clusters.end(),
            [](const ReuseCluster& a, const ReuseCluster& b) {
              if (a.host_count != b.host_count) return a.host_count > b.host_count;
              return a.fingerprint_hex < b.fingerprint_hex;
            });

  // ---- finalize: the tallies over the host history ----------------------
  const auto certs_of = [&](const HistoryRow& host) {
    return std::span<const CertRef>(total.cert_refs).subspan(host.first_cert, host.cert_count);
  };
  const auto carries = [&](const HistoryRow& host, const std::vector<Sha1Digest>& set) {
    return std::ranges::any_of(certs_of(host), [&](const CertRef& cert) {
      return std::ranges::binary_search(set, cert.digest, digest_less);
    });
  };
  // Fig. 8 counts a final-week server once per deficit it shows, the
  // certificate-reuse one however many reused certificates it carries;
  // §5.5 counts, in every week, the servers that carry a certificate of
  // the final week's distributor fleet.
  struct Deficit {
    std::uint8_t bit;
    const char* name;
    int DeficitBreakdown::*count;
  };
  constexpr std::uint8_t kCertReuse = 1u << 4;  // beside the §5.2 rule bits
  static constexpr Deficit kDeficits[] = {
      {deficiency::kNoSecurity, "None", &DeficitBreakdown::none_only},
      {deficiency::kDeprecatedPolicy, "Deprecated Policies", &DeficitBreakdown::deprecated_only},
      {deficiency::kWeakCertificate, "Too Weak Certificate", &DeficitBreakdown::weak_certificate},
      {kCertReuse, "Certificate Reuse", &DeficitBreakdown::cert_reuse},
      {deficiency::kAnonymousAccess, "Anonymous Access", &DeficitBreakdown::anonymous_access}};
  constexpr std::size_t kDeficitCount = std::size(kDeficits);
  const std::vector<std::string>& labels = total.labels.values;
  DeficitBreakdown& deficits = analysis.deficits;
  std::vector<std::vector<int>> week_labels(weeks, std::vector<int>(labels.size()));
  std::vector<std::array<int, kDeficitCount>> label_deficits(labels.size());
  std::array<std::vector<std::uint32_t>, kDeficitCount> deficit_ases;  // an AS per server
  for (const HistoryRow& host : history) {
    ++week_labels[host.week][host.label];
    week_obs[host.week].reuse_devices += carries(host, fleet);
    if (host.week != final_week) continue;
    const std::uint8_t bits = host.rules | (carries(host, reused) ? kCertReuse : 0);
    ++deficits.servers;
    deficits.deficient_total += host.rules != 0;
    for (std::size_t d = 0; d < kDeficitCount; ++d) {
      if (!(bits & kDeficits[d].bit)) continue;
      ++(deficits.*kDeficits[d].count);
      ++label_deficits[host.label][d];
      deficit_ases[d].push_back(host.asn);
    }
  }
  for (std::size_t w = 0; w < weeks; ++w) {
    for (std::size_t l = 0; l < labels.size(); ++l) {
      if (week_labels[w][l] != 0) week_obs[w].by_manufacturer.emplace(labels[l], week_labels[w][l]);
    }
  }
  for (std::size_t d = 0; d < kDeficitCount; ++d) {
    if (deficit_ases[d].empty()) continue;
    std::map<std::string, int>& by_label = deficits.by_manufacturer[kDeficits[d].name];
    for (std::size_t l = 0; l < labels.size(); ++l) {
      if (label_deficits[l][d] != 0) by_label.emplace(labels[l], label_deficits[l][d]);
    }
    std::map<std::uint32_t, int>& by_as = deficits.by_as[kDeficits[d].name];
    std::ranges::sort(deficit_ases[d]);
    for_each_run(deficit_ases[d], std::identity{}, [&](auto first, auto last) {
      by_as.emplace_hint(by_as.end(), *first, static_cast<int>(last - first));
    });
  }

  // ---- finalize: §5.3 shared primes -------------------------------------
  if (options.shared_primes) {
    std::ranges::sort(total.moduli, [](const Bignum* a, const Bignum* b) { return *a < *b; });
    std::vector<Bignum> moduli;
    for (const Bignum* modulus : total.moduli) {
      if (moduli.empty() || !(moduli.back() == *modulus)) moduli.push_back(*modulus);
    }
    analysis.shared_primes.distinct_moduli = moduli.size();
    const auto started = std::chrono::steady_clock::now();
    analysis.shared_primes.moduli_with_shared_prime =
        batch_gcd(moduli, options.threads).affected();
    analysis.shared_prime_seconds = seconds_since(started);
  }

  // ---- finalize: final-measurement figures ------------------------------
  analysis.modes = std::move(total.modes);
  analysis.certificates = std::move(total.certs);
  analysis.auth = std::move(total.auth);
  for (auto& [key, row] : total.auth_rows) analysis.auth.rows.push_back(row);
  analysis.access_rights = std::move(total.access);

  // ---- finalize: scan quality -------------------------------------------
  ScanQualityStats& quality = analysis.scan_quality;
  for (std::size_t w = 0; w < weeks; ++w) {
    ScanQualityWeek& q = quality_weeks[w];
    q.measurement_index = analysis.weeks[w].measurement_index;
    quality.hosts += q.hosts;
    quality.complete += q.complete;
    quality.truncated += q.truncated;
    quality.degraded += q.degraded;
    quality.unreachable += q.unreachable;
    quality.faulted += q.faulted;
    quality.recovered += q.recovered;
    quality.retries += q.retries;
    quality.fault_events += q.fault_events;
    quality.weeks.push_back(std::move(q));
  }
  if (quality.faulted > 0) {
    quality.recovery_rate =
        static_cast<double>(quality.recovered) / static_cast<double>(quality.faulted);
  }

  // ---- finalize: cross-protocol population split ------------------------
  for (std::size_t w = 0; w < weeks; ++w) {
    ProtocolWeek pw;
    pw.measurement_index = analysis.weeks[w].measurement_index;
    pw.hosts = protocol_map(proto_week_hosts[w]);
    analysis.protocols.weeks.push_back(std::move(pw));
  }
  analysis.protocols.servers = protocol_map(total.proto_servers);
  analysis.protocols.deficient = protocol_map(total.proto_deficient);
  analysis.protocols.anonymous = protocol_map(total.proto_anonymous);

  // ---- finalize: Fig. 2 / §5.5 longitudinal -----------------------------
  LongitudinalStats& lng = analysis.longitudinal;
  double sum = 0, sum_sq = 0;
  lng.deficiency_min = 100;
  for (std::size_t w = 0; w < weeks; ++w) {
    WeeklyObservation& obs = week_obs[w];
    obs.measurement_index = analysis.weeks[w].measurement_index;
    obs.date_days = analysis.weeks[w].date_days;
    obs.deficient_pct =
        obs.servers == 0 ? 0 : 100.0 * obs.deficient / static_cast<double>(obs.servers);
    sum += obs.deficient_pct;
    sum_sq += obs.deficient_pct * obs.deficient_pct;
    lng.deficiency_min = std::min(lng.deficiency_min, obs.deficient_pct);
    lng.deficiency_max = std::max(lng.deficiency_max, obs.deficient_pct);
    lng.weeks.push_back(std::move(obs));
  }
  {
    const double n = static_cast<double>(weeks);
    lng.deficiency_avg = sum / n;
    lng.deficiency_std =
        std::sqrt(std::max(0.0, sum_sq / n - lng.deficiency_avg * lng.deficiency_avg));
  }
  // Each certificate's first corpus row is the first record that carried it.
  const std::int64_t y2017 = days_from_civil({2017, 1, 1});
  const std::int64_t y2019 = days_from_civil({2019, 1, 1});
  for_each_run(total.corpus, &CorpusRow::digest, [&](auto first, auto) {
    ++lng.total_distinct_certificates;
    if (first->hash != HashAlgorithm::sha1) return;
    if (first->not_before_days >= y2017) ++lng.sha1_after_2017;
    if (first->not_before_days >= y2019) ++lng.sha1_after_2019;
  });
  const std::vector<std::string>& versions = total.versions.values;
  for (std::size_t i = 1; i < history.size(); ++i) {
    const HistoryRow& before = history[i - 1];
    const HistoryRow& after = history[i];
    if (after.ip != before.ip || after.port != before.port) continue;
    const std::span<const CertRef> was = certs_of(before), now = certs_of(after);
    if (std::ranges::equal(now, was) || now.empty() || was.empty()) continue;
    RenewalEvent event;
    event.ip = after.ip;
    event.week = analysis.weeks[after.week].measurement_index;
    event.software_update = !versions[after.software].empty() &&
                            !versions[before.software].empty() &&
                            after.software != before.software;
    // A parsed certificate of `from` with signature hash `hash` that `to`
    // lacks.
    const auto leaves = [](std::span<const CertRef> from, std::span<const CertRef> to,
                           HashAlgorithm hash) {
      return std::ranges::any_of(from, [&](const CertRef& cert) {
        return cert.hash == hash &&
               !std::ranges::binary_search(to, cert.digest, digest_less, &CertRef::digest);
      });
    };
    const bool removed_sha1 = leaves(was, now, HashAlgorithm::sha1);
    const bool removed_sha256 = leaves(was, now, HashAlgorithm::sha256);
    const bool added_sha1 = leaves(now, was, HashAlgorithm::sha1);
    const bool added_sha256 = leaves(now, was, HashAlgorithm::sha256);
    event.sha1_replaced = removed_sha1 && added_sha256 && !added_sha1;
    event.downgraded_to_sha1 = removed_sha256 && added_sha1 && !added_sha256;
    lng.renewals_with_software_update += event.software_update;
    lng.sha1_upgrades += event.sha1_replaced;
    lng.downgrades += event.downgraded_to_sha1;
    lng.renewals.push_back(event);
  }
  return analysis;
}

StudyAnalysis analyze_reader(const SnapshotReader& reader, const AnalysisOptions& options) {
  return analyze_source(ReaderRecordSource(reader), options);
}

StudyAnalysis analyze_file(const std::string& path, std::uint64_t seed,
                           const AnalysisOptions& options) {
  const SnapshotReader reader(path, seed);
  return analyze_reader(reader, options);
}

StudyAnalysis analyze_snapshots(const std::vector<ScanSnapshot>& snapshots,
                                const AnalysisOptions& options) {
  return analyze_source(SnapshotVectorSource(snapshots, SnapshotWriter::kDefaultChunkRecords),
                        options);
}

}  // namespace opcua_study
