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
#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <tuple>

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

/// Adds one server to a Fig. 8 deficit: `count` (a field of `d`) and the
/// deficit's manufacturer and AS rows.
void tally_deficit(DeficitBreakdown& d, int& count, const char* deficit,
                   const std::string& manufacturer, std::uint32_t asn) {
  ++count;
  d.by_manufacturer[deficit][manufacturer]++;
  d.by_as[deficit][asn]++;
}

/// One server record as the finalize reads it: renewal detection (§5.5)
/// compares an endpoint's consecutive observations, and the two tallies
/// that need the final week's finished >= 3-host reuse sets count them.
struct HostObs {
  Ipv4 ip = 0;
  std::uint16_t port = 0;
  std::size_t week = 0;  // ordinal in the source
  std::uint32_t asn = 0;
  std::string manufacturer;
  std::string software;
  /// The record's distinct certificates: each one's signature hash, or
  /// nullopt when its DER does not parse.
  std::map<Sha1Digest, std::optional<HashAlgorithm>> certs;
};

// ------------------------------------------------------ chunk partials ----

/// Everything one chunk of records contributes. A chunk belongs to exactly
/// one measurement; the final measurement's chunks additionally feed the
/// figure statistics and the certificate census.
struct ChunkPartial {
  // Weekly tallies (Fig. 2 / §5.5), servers unless noted.
  int servers = 0, discovery = 0, via_reference = 0, non_default_port = 0, deficient = 0;
  std::map<std::string, int> by_manufacturer;

  // Cross-week certificate corpus and per-server history (record order).
  std::map<Sha1Digest, std::pair<HashAlgorithm, std::int64_t>> corpus;
  std::vector<HostObs> history;

  // Final-measurement certificate census: reuse clusters over the servers'
  // distinct certificates (Fig. 5; the hex fingerprint is set for the ones
  // reported) and, for §5.3, the distinct RSA moduli of every record's
  // certificates, discovery servers included.
  std::map<Sha1Digest, ReuseCluster> clusters;
  std::set<Bignum> moduli;

  // Scan quality (fault-injection resilience; all zero on fault-free data).
  std::uint64_t q_hosts = 0, q_complete = 0, q_truncated = 0, q_degraded = 0, q_unreachable = 0;
  std::uint64_t q_faulted = 0, q_recovered = 0, q_retries = 0, q_fault_events = 0;

  // Per-protocol population split. proto_hosts covers every record (like
  // the quality tallies); the final-week maps cover servers only.
  std::map<ProtocolId, std::uint64_t> proto_hosts;
  std::map<ProtocolId, std::uint64_t> proto_servers, proto_deficient, proto_anonymous;

  // Final-measurement figures.
  ModePolicyStats modes;
  CertConformanceStats certs;
  std::map<std::tuple<bool, bool, bool, bool>, AuthRow> auth_rows;
  AuthStats auth;  // scalar fields; rows assembled at finalize
  AccessRightsStats access;
  DeficitBreakdown deficits;

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
              std::vector<std::uint32_t>& ids, bool final_week, bool collect_moduli) {
    const std::uint8_t host_flags = view.flags[i];
    const ProtocolId protocol = view.protocol(i);
    absorb_quality(view.quality(i));
    proto_hosts[protocol]++;
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
        if (entry.parsed) moduli.insert(entry.modulus);
      }
    }
    if (is_discovery) {
      ++discovery;
      return;
    }
    ++servers;
    const std::string cluster = manufacturer_cluster(app_uri);
    by_manufacturer[cluster]++;
    via_reference += (host_flags & snapshot_flags::kFoundViaReference) != 0;
    non_default_port += view.port[i] != kOpcUaDefaultPort;

    const std::uint8_t policy_mask = view.policy_mask[i];
    const CertFacts* cert = primary_cert(ids, facts);
    const std::uint8_t rules = classify_deficiencies(policy_mask, cert, anonymous_offered);
    deficient += rules != 0;
    if (final_week) {
      proto_servers[protocol]++;
      if (rules != 0) proto_deficient[protocol]++;
      if (anonymous_offered) proto_anonymous[protocol]++;
    }

    // History / corpus (§5.5).
    HostObs obs;
    obs.ip = view.ip[i];
    obs.port = view.port[i];
    obs.asn = view.asn[i];
    obs.manufacturer = cluster;
    obs.software = std::move(software);
    for (const std::uint32_t id : ids) {
      const CertFacts& entry = fact_at(facts, id);
      std::optional<HashAlgorithm> hash;
      if (entry.parsed) {
        hash = entry.hash;
        corpus.try_emplace(entry.sha1, entry.hash, entry.not_before_days);
      }
      obs.certs.emplace(entry.sha1, hash);
    }
    history.push_back(std::move(obs));

    if (!final_week) return;

    // ----- Fig. 5: reuse clusters ---------------------------------------
    for (const std::uint32_t id : ids) {
      const CertFacts& entry = fact_at(facts, id);
      ReuseCluster& c = clusters[entry.sha1];
      ++c.host_count;
      c.ases.insert(view.asn[i]);
      if (c.subject_organization.empty()) c.subject_organization = entry.org;
    }

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

    // ----- Fig. 8: deficit breakdown ------------------------------------
    ++deficits.servers;
    // Certificate reuse needs the finished clusters: counted at finalize.
    auto tally = [&](bool fired, int& count, const char* deficit) {
      if (fired) tally_deficit(deficits, count, deficit, cluster, view.asn[i]);
    };
    tally(rules & deficiency::kNoSecurity, deficits.none_only, "None");
    tally(rules & deficiency::kDeprecatedPolicy, deficits.deprecated_only, "Deprecated Policies");
    tally(rules & deficiency::kWeakCertificate, deficits.weak_certificate, "Too Weak Certificate");
    tally(rules & deficiency::kAnonymousAccess, deficits.anonymous_access, "Anonymous Access");
    if (rules != 0) ++deficits.deficient_total;
  }
};

void merge_figures(ChunkPartial& into, ChunkPartial&& from) {
  // Cross-protocol split (final week, servers only)
  merge_count_map(into.proto_servers, from.proto_servers);
  merge_count_map(into.proto_deficient, from.proto_deficient);
  merge_count_map(into.proto_anonymous, from.proto_anonymous);
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
  // Fig. 5 / §5.3
  for (auto& [fp, cluster] : from.clusters) {
    ReuseCluster& c = into.clusters[fp];
    c.host_count += cluster.host_count;
    c.ases.merge(cluster.ases);
    if (c.subject_organization.empty()) {
      c.subject_organization = std::move(cluster.subject_organization);
    }
  }
  into.moduli.merge(from.moduli);
  // Fig. 6 / Table 2
  for (auto& [key, row] : from.auth_rows) {
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
  auto append = [](std::vector<double>& into_vec, std::vector<double>& from_vec) {
    into_vec.insert(into_vec.end(), from_vec.begin(), from_vec.end());
  };
  append(into.access.read_fractions, from.access.read_fractions);
  append(into.access.write_fractions, from.access.write_fractions);
  append(into.access.exec_fractions, from.access.exec_fractions);
  // Fig. 8
  for (const auto& [deficit, labels] : from.deficits.by_manufacturer) {
    merge_count_map(into.deficits.by_manufacturer[deficit], labels);
  }
  for (const auto& [deficit, ases] : from.deficits.by_as) {
    merge_count_map(into.deficits.by_as[deficit], ases);
  }
  into.deficits.none_only += from.deficits.none_only;
  into.deficits.deprecated_only += from.deficits.deprecated_only;
  into.deficits.weak_certificate += from.deficits.weak_certificate;
  into.deficits.cert_reuse += from.deficits.cert_reuse;
  into.deficits.anonymous_access += from.deficits.anonymous_access;
  into.deficits.deficient_total += from.deficits.deficient_total;
  into.deficits.servers += from.deficits.servers;
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

  // ---- the pass: figures + census + weekly tallies + host history -------
  // Early prefix merge: as soon as the contiguous prefix of chunks has
  // been aggregated, those partials fold into the running totals (in
  // chunk-index order, so the result is that of a sequential pass) and
  // die. On a 10M-host stream the per-host history summaries of every
  // chunk would otherwise coexist until the end; this way at most the
  // unmerged suffix does.
  ChunkPartial total;
  std::vector<WeeklyObservation> week_obs(weeks);
  std::vector<ScanQualityWeek> quality_weeks(weeks);
  std::vector<std::map<ProtocolId, std::uint64_t>> proto_week_hosts(weeks);
  std::map<std::pair<Ipv4, std::uint16_t>, std::vector<HostObs>> history;
  std::vector<ChunkPartial> partials(chunk_count);
  pool.parallel_for_merged(
      chunk_count,
      [&](std::size_t c) {
        const bool is_final = source.chunk_week(c) == final_week;
        source.visit_columns(c, [&](const ColumnView& view, const CertDictionary& dict) {
          std::vector<CertFacts> scratch;
          const std::vector<CertFacts>& facts = cert_table.of(dict, scratch);
          std::vector<std::uint32_t> ids;
          for (std::size_t r = 0; r < view.records; ++r) {
            partials[c].absorb(view, r, facts, ids, is_final, options.shared_primes);
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
        merge_count_map(proto_week_hosts[week], partial.proto_hosts);
        merge_count_map(obs.by_manufacturer, partial.by_manufacturer);
        total.corpus.merge(partial.corpus);
        for (HostObs& host_obs : partial.history) {
          host_obs.week = week;
          history[{host_obs.ip, host_obs.port}].push_back(std::move(host_obs));
        }
        merge_figures(total, std::move(partial));
        partial = ChunkPartial{};
      });
  partials.clear();

  // ---- finalize: Fig. 5 reuse clusters ----------------------------------
  analysis.reuse.distinct_certificates = static_cast<int>(total.clusters.size());
  std::set<Sha1Digest> reused, fleet;  // >= 3 hosts; of those, the distributor's
  for (auto& [fp, cluster] : total.clusters) {
    if (cluster.host_count >= 3) {
      ++analysis.reuse.clusters_ge3;
      analysis.reuse.hosts_in_ge3 += cluster.host_count;
      reused.insert(fp);
      if (cluster.subject_organization == "Bachmann electronic") fleet.insert(fp);
    }
    if (cluster.host_count >= 2) {
      cluster.fingerprint_hex = to_hex(fp);
      analysis.reuse.clusters.push_back(std::move(cluster));
    }
  }
  // Fingerprint breaks host-count ties, so the order is the same under
  // every standard library.
  std::sort(analysis.reuse.clusters.begin(), analysis.reuse.clusters.end(),
            [](const ReuseCluster& a, const ReuseCluster& b) {
              if (a.host_count != b.host_count) return a.host_count > b.host_count;
              return a.fingerprint_hex < b.fingerprint_hex;
            });

  // ---- finalize: the tallies that need the finished reuse sets ----------
  // Fig. 8 counts a final-week server once however many reused
  // certificates it carries; §5.5 counts, in every week, the servers that
  // carry a certificate of the final week's distributor fleet.
  const auto carries = [](const HostObs& obs, const std::set<Sha1Digest>& set) {
    return std::ranges::any_of(obs.certs,
                               [&](const auto& cert) { return set.contains(cert.first); });
  };
  for (const auto& [endpoint, observations] : history) {
    for (const HostObs& obs : observations) {
      week_obs[obs.week].reuse_devices += carries(obs, fleet);
      if (obs.week == final_week && carries(obs, reused)) {
        tally_deficit(total.deficits, total.deficits.cert_reuse, "Certificate Reuse",
                      obs.manufacturer, obs.asn);
      }
    }
  }

  // ---- finalize: §5.3 shared primes -------------------------------------
  if (options.shared_primes) {
    const std::vector<Bignum> moduli(total.moduli.begin(), total.moduli.end());
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
  analysis.deficits = std::move(total.deficits);

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
    pw.hosts = std::move(proto_week_hosts[w]);
    analysis.protocols.weeks.push_back(std::move(pw));
  }
  analysis.protocols.servers = std::move(total.proto_servers);
  analysis.protocols.deficient = std::move(total.proto_deficient);
  analysis.protocols.anonymous = std::move(total.proto_anonymous);

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
  lng.total_distinct_certificates = total.corpus.size();
  const std::int64_t y2017 = days_from_civil({2017, 1, 1});
  const std::int64_t y2019 = days_from_civil({2019, 1, 1});
  for (const auto& [fp, info] : total.corpus) {
    if (info.first != HashAlgorithm::sha1) continue;
    if (info.second >= y2017) ++lng.sha1_after_2017;
    if (info.second >= y2019) ++lng.sha1_after_2019;
  }
  for (const auto& [endpoint, observations] : history) {
    for (std::size_t i = 1; i < observations.size(); ++i) {
      const HostObs& before = observations[i - 1];
      const HostObs& after = observations[i];
      if (after.certs == before.certs || after.certs.empty() || before.certs.empty()) continue;
      RenewalEvent event;
      event.ip = endpoint.first;
      event.week = analysis.weeks[after.week].measurement_index;
      event.software_update = !after.software.empty() && !before.software.empty() &&
                              after.software != before.software;
      bool removed_sha1 = false, added_sha1 = false, removed_sha256 = false, added_sha256 = false;
      for (const auto& [fp, hash] : before.certs) {
        if (after.certs.contains(fp) || !hash) continue;
        removed_sha1 |= *hash == HashAlgorithm::sha1;
        removed_sha256 |= *hash == HashAlgorithm::sha256;
      }
      for (const auto& [fp, hash] : after.certs) {
        if (before.certs.contains(fp) || !hash) continue;
        added_sha1 |= *hash == HashAlgorithm::sha1;
        added_sha256 |= *hash == HashAlgorithm::sha256;
      }
      event.sha1_replaced = removed_sha1 && added_sha256 && !added_sha1;
      event.downgraded_to_sha1 = removed_sha256 && added_sha1 && !added_sha256;
      lng.renewals_with_software_update += event.software_update;
      lng.sha1_upgrades += event.sha1_replaced;
      lng.downgrades += event.downgraded_to_sha1;
      lng.renewals.push_back(event);
    }
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
