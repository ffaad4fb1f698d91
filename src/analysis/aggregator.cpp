// Chunk-parallel implementation of the shared analysis library.
//
// Each worker aggregates whole chunks into a ChunkPartial; partials are
// merged on the caller in chunk-index order, so every statistic —
// including order-sensitive ones like the Fig. 7 fraction vectors and the
// renewal-event list — is identical to a sequential pass over the same
// records (the tests pin this, and pin the result to recorded goldens).
// Both passes absorb v6 columns only: scalar figures come from the fixed
// columns, identity strings and cert ids from a lazy cursor over the var
// record, and per-certificate facts from a table over the chunk's
// dictionary.
#include <algorithm>
#include <chrono>
#include <cmath>
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

// Everything the figure passes derive from a certificate, computed once
// per dictionary entry instead of once per host occurrence. On a fleet
// where thousands of hosts share a handful of certificates this removes
// all repeated SHA-1 thumbprints and DER parses.
struct FigureCert : CertStrength {
  std::string fp_hex;
  bool self_signed = false;
  std::string org;
  std::int64_t not_before_days = 0;
  std::string modulus_hex;  // only filled when the §5.3 sweep runs
  Bignum modulus;
};

CertFactTable<FigureCert> figure_cert_table(const RecordSource& source, bool with_moduli) {
  return {source, [with_moduli](std::span<const std::uint8_t> der, std::uint64_t) {
            FigureCert entry;
            entry.fp_hex = to_hex(x509_thumbprint(der));
            try {
              const Certificate cert = x509_parse(der);
              entry.parsed = true;
              entry.hash = cert.signature_hash;
              entry.key_bits = cert.key_bits();
              entry.self_signed = cert.self_signed();
              entry.org = cert.subject.organization;
              entry.not_before_days = cert.not_before_days;
              if (with_moduli) {
                entry.modulus_hex = cert.public_key.n.to_hex();
                entry.modulus = cert.public_key.n;
              }
            } catch (const DecodeError&) {
            }
            return entry;
          }};
}

/// Runs absorb(view, record, facts, ids) over every record of one chunk.
template <typename Absorb>
void absorb_chunk(const RecordSource& source, const CertFactTable<FigureCert>& table,
                  std::size_t chunk, Absorb&& absorb) {
  source.visit_columns(chunk, [&](const ColumnView& view, const CertDictionary& dict) {
    std::vector<FigureCert> scratch;
    const std::vector<FigureCert>& facts = table.of(dict, scratch);
    std::vector<std::uint32_t> ids;
    for (std::size_t r = 0; r < view.records; ++r) absorb(view, r, facts, ids);
  });
}

// ------------------------------------------------- pass 1: cert census ----

/// Certificate census of the final measurement: reuse clusters over the
/// servers' distinct certificates (Fig. 5, Fig. 8 reuse sets, §5.5 fleet
/// tracking) and optionally the deduplicated RSA modulus corpus (§5.3).
/// The head id list *is* the distinct certificate list (the encoder
/// interns by content), so every per-DER computation is a table lookup.
struct CensusPartial {
  struct Cluster {
    int hosts = 0;
    std::set<std::uint32_t> ases;
    std::string org;
  };
  std::map<std::string, Cluster> clusters;
  std::map<std::string, Bignum> moduli;  // hex(n) -> n, deduplicated

  void absorb(const ColumnView& view, std::size_t i, const std::vector<FigureCert>& facts,
              std::vector<std::uint32_t>& ids, bool collect_moduli) {
    VarRecordCursor(view.var_record(i)).cert_ids(ids);
    if (collect_moduli) {
      for (const std::uint32_t id : ids) {
        const FigureCert& entry = fact_at(facts, id);
        if (entry.parsed) moduli.try_emplace(entry.modulus_hex, entry.modulus);
      }
    }
    if (view.application_type[i] == static_cast<std::uint8_t>(ApplicationType::DiscoveryServer)) {
      return;
    }
    for (const std::uint32_t id : ids) {
      const FigureCert& entry = fact_at(facts, id);
      Cluster& cluster = clusters[entry.fp_hex];
      ++cluster.hosts;
      cluster.ases.insert(view.asn[i]);
      if (cluster.org.empty()) cluster.org = entry.org;
    }
  }

  void merge(CensusPartial&& other) {
    for (auto& [fp, cluster] : other.clusters) {
      Cluster& into = clusters[fp];
      into.hosts += cluster.hosts;
      into.ases.merge(cluster.ases);
      if (into.org.empty()) into.org = std::move(cluster.org);
    }
    moduli.merge(other.moduli);
  }
};

/// Fingerprint sets derived from the census before pass 2 runs.
struct FinalWeekSets {
  std::set<std::string> reused_fps;       // certificates on >= 3 hosts (Fig. 8)
  std::set<std::string> big_cluster_fps;  // the distributor fleet (§5.5)
};

// ---------------------------------------------- pass 2: chunk partials ----

/// Everything one chunk of records contributes. A chunk belongs to exactly
/// one measurement; the final measurement's chunks additionally feed the
/// figure statistics.
struct ChunkPartial {
  // Weekly tallies (Fig. 2 / §5.5), servers unless noted.
  int servers = 0, discovery = 0, via_reference = 0, non_default_port = 0, deficient = 0;
  int reuse_devices = 0;
  std::map<std::string, int> by_manufacturer;

  // Cross-week certificate corpus and per-host history (record order).
  std::map<std::string, std::pair<HashAlgorithm, std::int64_t>> corpus;
  struct HostObs {
    Ipv4 ip = 0;
    std::uint16_t port = 0;
    std::set<std::string> fps;
    std::map<std::string, HashAlgorithm> hashes;
    std::string software;
  };
  std::vector<HostObs> history;

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
    if (quality.completeness > 3) {
      throw DecodeError("snapshot record: invalid completeness value " +
                        std::to_string(quality.completeness));
    }
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
  void absorb(const ColumnView& view, std::size_t i, const std::vector<FigureCert>& facts,
              std::vector<std::uint32_t>& ids, bool final_week, const FinalWeekSets& sets) {
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
    if (!is_discovery) {
      cursor.cert_ids(ids);
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
    const FigureCert* cert = primary_cert(ids, facts);
    const std::uint8_t rules = classify_deficiencies(policy_mask, cert, anonymous_offered);
    deficient += rules != 0;
    if (final_week) {
      proto_servers[protocol]++;
      if (rules != 0) proto_deficient[protocol]++;
      if (anonymous_offered) proto_anonymous[protocol]++;
    }

    // History / corpus / fleet membership (§5.5).
    HostObs obs;
    obs.ip = view.ip[i];
    obs.port = view.port[i];
    obs.software = std::move(software);
    bool in_big_cluster = false;
    for (const std::uint32_t id : ids) {
      const FigureCert& entry = fact_at(facts, id);
      obs.fps.insert(entry.fp_hex);
      if (entry.parsed) {
        obs.hashes[entry.fp_hex] = entry.hash;
        corpus.try_emplace(entry.fp_hex, entry.hash, entry.not_before_days);
      }
      in_big_cluster |= sets.big_cluster_fps.contains(entry.fp_hex);
    }
    reuse_devices += in_big_cluster;
    history.push_back(std::move(obs));

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

    // ----- Fig. 8: deficit breakdown ------------------------------------
    ++deficits.servers;
    auto tally = [&](bool fired, int& count, const char* deficit) {
      if (!fired) return;
      ++count;
      deficits.by_manufacturer[deficit][cluster]++;
      deficits.by_as[deficit][view.asn[i]]++;
    };
    tally(rules & deficiency::kNoSecurity, deficits.none_only, "None");
    tally(rules & deficiency::kDeprecatedPolicy, deficits.deprecated_only, "Deprecated Policies");
    tally(rules & deficiency::kWeakCertificate, deficits.weak_certificate, "Too Weak Certificate");
    bool reused = false;
    for (const std::uint32_t id : ids) {
      reused |= sets.reused_fps.contains(fact_at(facts, id).fp_hex);
    }
    tally(reused, deficits.cert_reuse, "Certificate Reuse");
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

void RecordSource::visit_columns(std::size_t chunk, const ColumnVisitor& fn) const {
  ColumnEncoder columns;
  visit_chunk(chunk, [&](const HostScanRecord& host) { columns.add(host); });
  fn(columns.view(static_cast<std::uint32_t>(chunk_week(chunk))), columns);
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
  if (!reader_.columnar()) return RecordSource::visit_columns(chunk, fn);
  const ColumnView view = reader_.column_view(chunk);
  try {
    fn(view, reader_);
  } catch (const DecodeError& e) {
    // Same shape as read_chunk's report: a malformed var record or cert id
    // met by a pass is a corrupt file, not a decoder bug.
    throw SnapshotError("corrupt chunk " + std::to_string(chunk) + " (v6, chunk at byte " +
                        std::to_string(reader_.chunks()[chunk].file_offset) + "): " + e.what());
  }
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
  std::vector<std::size_t> final_chunks;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    if (source.chunk_week(c) == final_week) final_chunks.push_back(c);
  }

  ThreadPool pool(options.threads);
  const CertFactTable<FigureCert> cert_table = figure_cert_table(source, options.shared_primes);

  // ---- pass 1: certificate census of the final measurement --------------
  // Early prefix merge: completed chunk partials are folded into the
  // census as workers advance (in chunk order, so the result is identical
  // to the old merge-at-the-end pass), and each merged partial is freed
  // immediately — the peak is the in-flight chunks, not every chunk.
  std::vector<CensusPartial> census_partials(final_chunks.size());
  CensusPartial census;
  pool.parallel_for_merged(
      final_chunks.size(),
      [&](std::size_t i) {
        absorb_chunk(source, cert_table, final_chunks[i],
                     [&](const ColumnView& view, std::size_t r,
                         const std::vector<FigureCert>& facts, std::vector<std::uint32_t>& ids) {
                       census_partials[i].absorb(view, r, facts, ids, options.shared_primes);
                     });
      },
      [&](std::size_t i) {
        census.merge(std::move(census_partials[i]));
        census_partials[i] = CensusPartial{};
      });
  census_partials.clear();

  FinalWeekSets sets;
  for (const auto& [fp, cluster] : census.clusters) {
    if (cluster.hosts >= 3) {
      sets.reused_fps.insert(fp);
      if (cluster.org == "Bachmann electronic") sets.big_cluster_fps.insert(fp);
    }
  }

  // ---- pass 2: figures + weekly tallies + host history ------------------
  // The ordered merge runs *inside* the parallel pass: as soon as the
  // contiguous prefix of chunks has been aggregated, those partials fold
  // into the running totals (in chunk-index order — bit-identical to the
  // old merge-after-everything loop) and die. On a 10M-host stream the
  // per-host history summaries of every chunk used to coexist until the
  // end; now at most the unmerged suffix does.
  ChunkPartial total;
  std::vector<WeeklyObservation> week_obs(weeks);
  std::vector<ScanQualityWeek> quality_weeks(weeks);
  std::vector<std::map<ProtocolId, std::uint64_t>> proto_week_hosts(weeks);
  struct HostHistory {
    std::vector<int> weeks;
    std::vector<std::set<std::string>> cert_sets;
    std::vector<std::map<std::string, HashAlgorithm>> hashes;
    std::vector<std::string> software;
  };
  std::map<std::pair<Ipv4, std::uint16_t>, HostHistory> history;
  std::vector<ChunkPartial> partials(chunk_count);
  pool.parallel_for_merged(
      chunk_count,
      [&](std::size_t c) {
        const bool is_final = source.chunk_week(c) == final_week;
        absorb_chunk(source, cert_table, c,
                     [&](const ColumnView& view, std::size_t r,
                         const std::vector<FigureCert>& facts, std::vector<std::uint32_t>& ids) {
                       partials[c].absorb(view, r, facts, ids, is_final, sets);
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
        obs.reuse_devices += partial.reuse_devices;
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
        for (auto& [fp, info] : partial.corpus) total.corpus.try_emplace(fp, info);
        const int measurement_index = analysis.weeks[week].measurement_index;
        for (auto& host_obs : partial.history) {
          HostHistory& h = history[{host_obs.ip, host_obs.port}];
          h.weeks.push_back(measurement_index);
          h.cert_sets.push_back(std::move(host_obs.fps));
          h.hashes.push_back(std::move(host_obs.hashes));
          h.software.push_back(std::move(host_obs.software));
        }
        merge_figures(total, std::move(partial));
        partial = ChunkPartial{};
      });
  partials.clear();

  // ---- finalize: Fig. 5 reuse clusters ----------------------------------
  analysis.reuse.distinct_certificates = static_cast<int>(census.clusters.size());
  for (auto& [fp, cluster] : census.clusters) {
    if (cluster.hosts >= 3) {
      ++analysis.reuse.clusters_ge3;
      analysis.reuse.hosts_in_ge3 += cluster.hosts;
    }
    if (cluster.hosts >= 2) {
      analysis.reuse.clusters.push_back(
          {fp, cluster.hosts, std::move(cluster.ases), std::move(cluster.org)});
    }
  }
  // Fingerprint breaks host-count ties, so the order is the same under
  // every standard library.
  std::sort(analysis.reuse.clusters.begin(), analysis.reuse.clusters.end(),
            [](const ReuseCluster& a, const ReuseCluster& b) {
              if (a.host_count != b.host_count) return a.host_count > b.host_count;
              return a.fingerprint_hex < b.fingerprint_hex;
            });

  // ---- finalize: §5.3 shared primes -------------------------------------
  if (options.shared_primes) {
    std::vector<Bignum> moduli;
    moduli.reserve(census.moduli.size());
    for (auto& [hex, n] : census.moduli) moduli.push_back(std::move(n));
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
  for (const auto& [endpoint, h] : history) {
    for (std::size_t i = 1; i < h.weeks.size(); ++i) {
      if (h.cert_sets[i] == h.cert_sets[i - 1] || h.cert_sets[i].empty() ||
          h.cert_sets[i - 1].empty()) {
        continue;
      }
      RenewalEvent event;
      event.ip = endpoint.first;
      event.week = h.weeks[i];
      event.software_update = !h.software[i].empty() && !h.software[i - 1].empty() &&
                              h.software[i] != h.software[i - 1];
      bool removed_sha1 = false, added_sha1 = false, removed_sha256 = false, added_sha256 = false;
      for (const auto& fp : h.cert_sets[i - 1]) {
        if (h.cert_sets[i].contains(fp)) continue;
        const auto it = h.hashes[i - 1].find(fp);
        if (it == h.hashes[i - 1].end()) continue;
        removed_sha1 |= it->second == HashAlgorithm::sha1;
        removed_sha256 |= it->second == HashAlgorithm::sha256;
      }
      for (const auto& fp : h.cert_sets[i]) {
        if (h.cert_sets[i - 1].contains(fp)) continue;
        const auto it = h.hashes[i].find(fp);
        if (it == h.hashes[i].end()) continue;
        added_sha1 |= it->second == HashAlgorithm::sha1;
        added_sha256 |= it->second == HashAlgorithm::sha256;
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
