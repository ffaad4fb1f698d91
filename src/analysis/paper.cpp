#include "analysis/paper.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>

#include "crypto/batch_gcd.hpp"
#include "crypto/hash.hpp"
#include "opcua/secpolicy.hpp"
#include "report/report.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace opcua_study {
namespace {

using SP = SecurityPolicy;
using MSM = MessageSecurityMode;

template <typename T>
const T* at_or_null(const std::vector<T>& items, std::size_t index) {
  return index < items.size() ? &items[index] : nullptr;
}

/// `get` of `*item`, or nothing when the analysis lacks the item.
template <typename T, typename Get>
std::optional<double> value_of(const T* item, Get get) {
  if (item == nullptr) return std::nullopt;
  return static_cast<double>(std::invoke(get, *item));
}

/// An exact count claim; a value the analysis lacks prints "-" and never
/// matches.
ComparisonRow claim(const std::string& metric, double paper, std::optional<double> measured) {
  ComparisonRow row = compare_num(metric, paper, measured.value_or(paper), 0);
  if (!measured) {
    row.measured = "-";
    row.matches = false;
  }
  return row;
}

/// A share claim within `tolerance` of `paper`; a share of nothing prints
/// "-" and never matches.
ComparisonRow share_claim(const std::string& metric, const std::string& paper_text, double paper,
                          double tolerance, std::optional<double> share) {
  if (!share) return {metric, paper_text, "-", false};
  return {metric, paper_text, fmt_pct(*share), std::abs(*share - paper) < tolerance};
}

int manufacturer_count(const WeeklyObservation& week, const char* name) {
  const auto it = week.by_manufacturer.find(name);
  return it == week.by_manufacturer.end() ? 0 : it->second;
}

std::string week_date(const WeeklyObservation& week) {
  return format_date(civil_from_days(week.date_days));
}

// Table 1: the security policies — ciphers, key lengths, deprecation —
// from the stack's policy registry, which also drives the secure-channel
// crypto and every conformance classification.
bool table1(std::FILE* out) {
  TextTable table;
  table.set_header({"Policy", "Sig. Hash", "Cert. Hash", "Key Len. [bit]", "A", "Status"});
  for (const auto policy : kAllPolicies) {
    const auto& info = policy_info(policy);
    std::string sig = "-", cert_hash = "-", keys = "-";
    if (policy != SP::None) {
      sig = info.asym_signature == AsymmetricSignature::pkcs1v15_sha1 ? "SHA1" : "SHA256";
      cert_hash = hash_name(info.min_cert_hash);
      if (info.max_cert_hash != info.min_cert_hash) {
        cert_hash += ", " + hash_name(info.max_cert_hash);
      }
      keys = "[" + std::to_string(info.min_key_bits) + "; " + std::to_string(info.max_key_bits) + "]";
    }
    table.add_row({std::string(info.name), sig, cert_hash, keys, std::string(info.short_name),
                   info.deprecated ? "deprecated (2017)" : (info.secure ? "recommended" : "none")});
  }
  std::fputs("Table 1: OPC UA security policies (paper's registry, reproduced)\n\n", out);
  std::fputs(table.str().c_str(), out);

  return print_comparison(
      out, "Table 1 vs paper",
      {
          claim("policies total", 6, std::size(kAllPolicies)),
          claim("deprecated policies (D1, D2)", 2,
                policy_info(SP::Basic128Rsa15).deprecated + policy_info(SP::Basic256).deprecated),
          claim("secure policies (S1-S3)", 3,
                policy_info(SP::Aes128Sha256RsaOaep).secure +
                    policy_info(SP::Basic256Sha256).secure +
                    policy_info(SP::Aes256Sha256RsaPss).secure),
          claim("D1 max key bits", 2048, policy_info(SP::Basic128Rsa15).max_key_bits),
          claim("S2 min key bits", 2048, policy_info(SP::Basic256Sha256).min_key_bits),
      });
}

// Fig. 2: hosts per weekly measurement — discovery servers, servers by
// manufacturer (ApplicationURI clustering), reference-following and
// non-default-port additions.
bool fig2(const LongitudinalStats& stats, std::FILE* out) {
  TextTable table;
  table.set_header({"measurement", "total", "discovery", "servers", "Bachmann", "Beckhoff",
                    "Wago", "other", "via refs", "non-4840"});
  for (const auto& week : stats.weeks) {
    const int bachmann = manufacturer_count(week, "Bachmann");
    const int beckhoff = manufacturer_count(week, "Beckhoff");
    const int wago = manufacturer_count(week, "Wago");
    table.add_row({week_date(week), fmt_int(week.servers + week.discovery),
                   fmt_int(week.discovery), fmt_int(week.servers), fmt_int(bachmann),
                   fmt_int(beckhoff), fmt_int(wago),
                   fmt_int(week.servers - bachmann - beckhoff - wago),
                   fmt_int(week.via_reference), fmt_int(week.non_default_port)});
  }
  std::fputs("Figure 2: OPC UA hosts per measurement (reproduced)\n\n", out);
  std::fputs(table.str().c_str(), out);

  std::fputs("\nhosts over time:\n", out);
  std::optional<double> min_total, max_total;
  for (const auto& week : stats.weeks) {
    const int total = week.servers + week.discovery;
    std::fprintf(out, "%s %s %4d\n", week_date(week).c_str(), render_bar(total, 2100).c_str(),
                 total);
    min_total = std::min<double>(min_total.value_or(total), total);
    max_total = std::max<double>(max_total.value_or(total), total);
  }

  const WeeklyObservation* first = at_or_null(stats.weeks, 0);
  const WeeklyObservation* last = stats.weeks.empty() ? nullptr : &stats.weeks.back();
  std::optional<double> discovery_share;
  if (last != nullptr && last->discovery + last->servers > 0) {
    discovery_share =
        static_cast<double>(last->discovery) / static_cast<double>(last->discovery + last->servers);
  }
  auto last_manufacturer = [last](const char* name) {
    return value_of(last, [name](const WeeklyObservation& w) { return manufacturer_count(w, name); });
  };
  return print_comparison(
      out, "Figure 2 vs paper",
      {
          claim("servers at last measurement", 1114, value_of(last, &WeeklyObservation::servers)),
          claim("minimum weekly total", 1761, min_total),
          claim("maximum weekly total", 2069, max_total),
          share_claim("discovery share (last)", "42%", 0.42, 0.01, discovery_share),
          claim("Bachmann devices (last)", 406, last_manufacturer("Bachmann")),
          claim("Beckhoff devices (last)", 112, last_manufacturer("Beckhoff")),
          claim("Wago devices (last)", 78, last_manufacturer("Wago")),
          claim("first measurement servers", 1040, value_of(first, &WeeklyObservation::servers)),
      });
}

// Fig. 3: security modes and policies — support / least-secure /
// most-secure host counts on the final measurement. `stats` is a copy,
// so operator[] reads a tally nobody contributed to as 0.
bool fig3(ModePolicyStats stats, std::FILE* out) {
  std::fputs("Figure 3 (left): security modes\n\n", out);
  TextTable modes;
  modes.set_header({"mode", "supported", "least secure", "most secure", ""});
  for (const auto mode : {MSM::None, MSM::Sign, MSM::SignAndEncrypt}) {
    modes.add_row({security_mode_name(mode), fmt_int(stats.mode_support[mode]),
                   fmt_int(stats.mode_least[mode]), fmt_int(stats.mode_most[mode]),
                   render_bar(stats.mode_support[mode], stats.servers, 30)});
  }
  std::fputs(modes.str().c_str(), out);

  std::fputs("\nFigure 3 (right): security policies\n\n", out);
  TextTable policies;
  policies.set_header({"policy", "supported", "least secure", "most secure", ""});
  for (const auto policy : kAllPolicies) {
    policies.add_row({std::string(policy_info(policy).short_name),
                      fmt_int(stats.policy_support[policy]), fmt_int(stats.policy_least[policy]),
                      fmt_int(stats.policy_most[policy]),
                      render_bar(stats.policy_support[policy], stats.servers, 30)});
  }
  std::fputs(policies.str().c_str(), out);

  return print_comparison(
      out, "Figure 3 vs paper",
      {
          claim("servers", 1114, stats.servers),
          claim("mode None supported", 1035, stats.mode_support[MSM::None]),
          claim("mode Sign supported", 588, stats.mode_support[MSM::Sign]),
          claim("mode SignAndEncrypt supported", 843, stats.mode_support[MSM::SignAndEncrypt]),
          claim("Sign as least secure", 28, stats.mode_least[MSM::Sign]),
          claim("SignAndEncrypt as least secure", 51, stats.mode_least[MSM::SignAndEncrypt]),
          claim("Sign as most secure", 1, stats.mode_most[MSM::Sign]),
          claim("only mode None (no security)", 270, stats.none_only),
          claim("secure mode available (844 = 75%)", 844, stats.secure_mode_capable),
          claim("policy None supported", 1035, stats.policy_support[SP::None]),
          claim("policy D1 supported", 715, stats.policy_support[SP::Basic128Rsa15]),
          claim("policy D2 supported", 762, stats.policy_support[SP::Basic256]),
          claim("policy S1 supported", 10, stats.policy_support[SP::Aes128Sha256RsaOaep]),
          claim("policy S2 supported", 564, stats.policy_support[SP::Basic256Sha256]),
          claim("policy S3 supported", 8, stats.policy_support[SP::Aes256Sha256RsaPss]),
          claim("deprecated policy supported (70%)", 786, stats.deprecated_supported),
          claim("deprecated as most secure", 280, stats.deprecated_max),
          claim("strong policy enforced (1.4%)", 16, stats.strong_enforcing),
          claim("strong policy available", 564, stats.strong_capable),
          claim("D1 as least secure", 13, stats.policy_least[SP::Basic128Rsa15]),
          claim("D2 as least secure", 50, stats.policy_least[SP::Basic256]),
          claim("S2 as most secure", 556, stats.policy_most[SP::Basic256Sha256]),
          claim("S3 as most secure", 8, stats.policy_most[SP::Aes256Sha256RsaPss]),
      });
}

// Fig. 4: certificates per announced policy by signature hash and key
// length, with the too-weak / too-strong conformance annotations. `stats`
// is a copy, as in fig3.
bool fig4(CertConformanceStats stats, std::FILE* out) {
  std::fputs("Figure 4: certificates implementing announced policies (reproduced)\n\n", out);
  TextTable table;
  table.set_header({"policy", "certs", "MD5/1024", "SHA1/1024", "SHA1/2048", "SHA256/2048",
                    "SHA256/4096", "too weak", "too strong"});
  for (const auto policy : kAllPolicies) {
    auto count = [&](HashAlgorithm h, std::size_t bits) {
      const auto& classes = stats.class_counts[policy];
      const auto it = classes.find({h, bits});
      return it == classes.end() ? 0 : it->second;
    };
    const bool none = policy == SP::None;
    table.add_row({std::string(policy_info(policy).short_name),
                   fmt_int(stats.announced_with_cert[policy]),
                   fmt_int(count(HashAlgorithm::md5, 1024)),
                   fmt_int(count(HashAlgorithm::sha1, 1024)),
                   fmt_int(count(HashAlgorithm::sha1, 2048)),
                   fmt_int(count(HashAlgorithm::sha256, 2048)),
                   fmt_int(count(HashAlgorithm::sha256, 4096)),
                   none ? "-" : fmt_int(stats.too_weak[policy]),
                   none ? "-" : fmt_int(stats.too_strong[policy])});
  }
  std::fputs(table.str().c_str(), out);

  const bool ok = print_comparison(
      out, "Figure 4 vs paper",
      {
          claim("S2 announcers with too-weak certs (\"429\" marker: 409)", 409,
                stats.too_weak[SP::Basic256Sha256]),
          claim("D1 announcers with too-strong certs (75)", 75,
                stats.too_strong[SP::Basic128Rsa15]),
          claim("D2 announcers with too-strong certs (5)", 5, stats.too_strong[SP::Basic256]),
          claim("S1 announcers with too-weak certs (7)", 7,
                stats.too_weak[SP::Aes128Sha256RsaOaep]),
          claim("hosts delivering certificates", 1074, stats.hosts_with_cert),
          claim("CA-signed certificates (paper: 2)", 2, stats.ca_signed),
          claim("weaker in practice than strongest policy (591 = 70% of 844)", 591,
                stats.weaker_than_max),
      });
  std::fputs("(paper's figure annotates exactly these four bars; MD5 segments on the D1/D2\n"
             " bars correspond to the unannotated MD5 legend entries)\n",
             out);
  return ok;
}

// Fig. 5: certificates reused across hosts, and the autonomous systems
// those hosts sit in.
bool fig5(const ReuseStats& stats, std::FILE* out) {
  std::fputs("Figure 5: certificates reused across hosts (reproduced)\n\n", out);
  TextTable table;
  table.set_header({"certificate", "hosts", "ASes", "subject organization", ""});
  for (std::size_t i = 0; i < stats.clusters.size() && i < 21; ++i) {
    const ReuseCluster& cluster = stats.clusters[i];
    table.add_row({cluster.fingerprint_hex.substr(0, 12), fmt_int(cluster.host_count),
                   fmt_int(static_cast<long>(cluster.ases.size())), cluster.subject_organization,
                   render_bar(cluster.host_count, 400, 30)});
  }
  std::fputs(table.str().c_str(), out);

  auto hosts = [&](std::size_t rank) {
    return value_of(at_or_null(stats.clusters, rank), &ReuseCluster::host_count);
  };
  auto ases = [&](std::size_t rank) {
    return value_of(at_or_null(stats.clusters, rank),
                    [](const ReuseCluster& cluster) { return cluster.ases.size(); });
  };
  const bool ok = print_comparison(
      out, "Figure 5 vs paper",
      {
          claim("certificates on >= 3 hosts", 9, stats.clusters_ge3),
          claim("largest cluster host count", 385, hosts(0)),
          claim("largest cluster AS spread", 24, ases(0)),
          claim("2nd same-manufacturer cluster (9 hosts)", 9, hosts(1)),
          claim("2nd cluster AS spread", 8, ases(1)),
          claim("3rd same-manufacturer cluster (6 hosts)", 6, hosts(2)),
          claim("3rd cluster AS spread", 5, ases(2)),
      });
  std::fprintf(out, "\ndistinct certificates in this measurement: %d\n",
               stats.distinct_certificates);
  return ok;
}

// §5.3 "Secrets Not Meant to be Shared": the batch-GCD shared-prime scan
// over all collected RSA moduli (the paper found no weak randomness),
// plus a positive control showing the scan would have caught some.
bool sec53(const StudyAnalysis& analysis, std::FILE* out) {
  const SharedPrimeStats& stats = analysis.shared_primes;
  std::fputs("Section 5.3: shared-prime scan over the collected certificate corpus\n\n", out);
  std::fprintf(out, "distinct RSA moduli checked : %zu\n", stats.distinct_moduli);
  std::fprintf(out, "moduli sharing a prime      : %zu\n", stats.moduli_with_shared_prime);
  std::fprintf(out, "batch-GCD wall time         : %.2f s (product+remainder tree)\n\n",
               analysis.shared_prime_seconds);

  // Positive control: every fourth modulus built on one shared prime.
  Rng rng(424242);
  std::vector<Bignum> weak;
  const Bignum shared_prime = Bignum::generate_prime(rng, 256, 8);
  for (int i = 0; i < 32; ++i) {
    const Bignum q = Bignum::generate_prime(rng, 256, 8);
    weak.push_back(i % 4 == 0 ? shared_prime * q : Bignum::generate_prime(rng, 256, 8) * q);
  }
  const std::size_t detected = batch_gcd(weak).affected();
  std::fprintf(out, "positive control: injected 8/32 moduli sharing one prime -> detected %zu\n\n",
               detected);

  return print_comparison(
      out, "Section 5.3 vs paper",
      {
          claim("moduli with shared primes (paper: none found)", 0, stats.moduli_with_shared_prime),
          claim("positive control detections", 8, detected),
      });
}

// Fig. 6: offered authentication methods, accessibility and
// classification of all reachable servers.
bool fig6(const AuthStats& stats, std::FILE* out) {
  std::fputs("Figure 6: offered authentication methods and accessibility (reproduced)\n\n",
             out);
  TextTable table;
  table.set_header({"tokens", "hosts", "accessible", "auth-rejected", "cert not accepted"});
  for (const auto& row : stats.rows) {
    std::string tokens;
    if (row.anonymous) tokens += "anon ";
    if (row.credentials) tokens += "cred ";
    if (row.certificate) tokens += "cert ";
    if (row.token) tokens += "token";
    table.add_row({tokens, fmt_int(row.total()),
                   fmt_int(row.production + row.test + row.unclassified),
                   fmt_int(row.auth_rejected), fmt_int(row.channel_rejected)});
  }
  std::fputs(table.str().c_str(), out);

  std::fputs("\naccessibility overview:\n", out);
  std::fprintf(out, "accessible        %s %d\n",
               render_bar(stats.accessible, stats.servers).c_str(), stats.accessible);
  std::fprintf(out, "auth rejected     %s %d\n",
               render_bar(stats.auth_rejected, stats.servers).c_str(), stats.auth_rejected);
  std::fprintf(out, "cert not accepted %s %d\n\n",
               render_bar(stats.channel_rejected, stats.servers).c_str(),
               stats.channel_rejected);

  return print_comparison(
      out, "Figure 6 vs paper",
      {
          claim("servers", 1114, stats.servers),
          claim("secure channel possible for anyone", 1034, stats.channel_capable),
          claim("certificate not accepted", 80, stats.channel_rejected),
          claim("anonymous access offered", 572, stats.anonymous_offered),
          claim("anonymous among channel-capable (50%)", 563, stats.anonymous_channel_capable),
          claim("anonymous despite forced security (71)", 71, stats.anonymous_secure_only),
          claim("publicly accessible", 493, stats.accessible),
      });
}

// Table 2: authentication-type combinations x accessibility x
// production/test classification.
bool table2(const AuthStats& stats, std::FILE* out) {
  std::fputs("Table 2: authentication types, accessibility and classification (reproduced)\n\n",
             out);
  TextTable table;
  table.set_header({"anon", "cred", "cert", "token", "production", "test", "unclassified",
                    "auth-reject", "sc-reject", "total"});
  auto dot = [](bool v) { return v ? std::string("x") : std::string(" "); };
  for (const auto& row : stats.rows) {
    table.add_row({dot(row.anonymous), dot(row.credentials), dot(row.certificate), dot(row.token),
                   fmt_int(row.production), fmt_int(row.test), fmt_int(row.unclassified),
                   fmt_int(row.auth_rejected), fmt_int(row.channel_rejected),
                   fmt_int(row.total())});
  }
  table.add_separator();
  table.add_row({"", "", "", "", fmt_int(stats.production), fmt_int(stats.test),
                 fmt_int(stats.unclassified), fmt_int(stats.auth_rejected),
                 fmt_int(stats.channel_rejected), fmt_int(stats.servers)});
  std::fputs(table.str().c_str(), out);

  auto row_of = [&](bool anon, bool cred, bool cert, bool token) -> const AuthRow* {
    const auto it = std::find_if(stats.rows.begin(), stats.rows.end(), [&](const AuthRow& row) {
      return row.key() == std::tie(anon, cred, cert, token);
    });
    return it == stats.rows.end() ? nullptr : &*it;
  };
  const AuthRow* anon_only = row_of(true, false, false, false);
  const AuthRow* cred_only = row_of(false, true, false, false);
  const AuthRow* anon_cred = row_of(true, true, false, false);
  const AuthRow* cct = row_of(false, true, true, true);

  const bool ok = print_comparison(
      out, "Table 2 vs paper",
      {
          claim("production systems (26%)", 295, stats.production),
          claim("test systems (3.8%)", 42, stats.test),
          claim("unclassified (14%)", 156, stats.unclassified),
          claim("auth-rejected total (48%)", 541, stats.auth_rejected),
          claim("secure-channel rejects (7.2%)", 80, stats.channel_rejected),
          claim("anon-only row total", 139, value_of(anon_only, &AuthRow::total)),
          claim("anon-only production", 116, value_of(anon_only, &AuthRow::production)),
          claim("cred-only auth-rejected (row-sum reconciled)", 467,
                value_of(cred_only, &AuthRow::auth_rejected)),
          claim("anon+cred row total", 365, value_of(anon_cred, &AuthRow::total)),
          claim("anon+cred unclassified", 134, value_of(anon_cred, &AuthRow::unclassified)),
          claim("cred+cert+token sc-rejects", 43, value_of(cct, &AuthRow::channel_rejected)),
      });
  std::fputs("(the paper's printed row 'credentials-only: 464' is inconsistent with its own\n"
             " column totals 541/1114; we reproduce the reconciled 467)\n",
             out);
  return ok;
}

// Fig. 7: the fraction of nodes anonymous users can read and write and of
// functions they can execute, across publicly accessible hosts (1-CDF).
// Hosts without methods add no exec fraction, so that curve can be
// shorter than the read curve, or empty.
bool fig7(const AccessRightsStats& stats, std::FILE* out) {
  std::fputs("Figure 7: anonymous access rights on accessible hosts (reproduced)\n\n", out);
  std::fputs("fraction of hosts (1-CDF) -> fraction of nodes accessible to them\n", out);
  TextTable table;
  table.set_header({"top hosts", "readable nodes", "writable nodes", "executable functions"});
  const auto read_curve = AccessRightsStats::survival_curve(stats.read_fractions);
  const auto write_curve = AccessRightsStats::survival_curve(stats.write_fractions);
  const auto exec_curve = AccessRightsStats::survival_curve(stats.exec_fractions);
  auto cell = [](const std::vector<std::pair<double, double>>& curve, std::size_t i) {
    return i < curve.size() ? fmt_pct(curve[i].second, 1) : std::string("-");
  };
  for (std::size_t i = 0; i < read_curve.size(); i += 2) {
    table.add_row({fmt_pct(read_curve[i].first, 0), cell(read_curve, i), cell(write_curve, i),
                   cell(exec_curve, i)});
  }
  std::fputs(table.str().c_str(), out);

  const double read97 = AccessRightsStats::hosts_above(stats.read_fractions, 0.97);
  const double write10 = AccessRightsStats::hosts_above(stats.write_fractions, 0.10);
  const double exec86 = AccessRightsStats::hosts_above(stats.exec_fractions, 0.86);
  std::fprintf(out, "\nhosts reading  > 97%% of nodes: %s %s\n", render_bar(read97, 1.0).c_str(),
               fmt_pct(read97).c_str());
  std::fprintf(out, "hosts writing  > 10%% of nodes: %s %s\n", render_bar(write10, 1.0).c_str(),
               fmt_pct(write10).c_str());
  std::fprintf(out, "hosts executing> 86%% of funcs: %s %s\n\n", render_bar(exec86, 1.0).c_str(),
               fmt_pct(exec86).c_str());

  return print_comparison(
      out, "Figure 7 vs paper",
      {
          claim("accessible hosts traversed", 493, stats.read_fractions.size()),
          share_claim("hosts able to read > 97% of nodes", "90%", 0.90, 0.025, read97),
          share_claim("hosts able to write > 10% of nodes", "33%", 0.33, 0.025, write10),
          share_claim("hosts able to execute > 86% of functions", "61%", 0.61, 0.025, exec86),
      });
}

// Fig. 8: configuration deficits by manufacturer (8a) and by autonomous
// system (8b), plus the paper's headline deficit roll-up.
void print_breakdown(std::FILE* out, const char* title,
                     const std::map<std::string, std::map<std::string, int>>& by_label) {
  std::fprintf(out, "%s\n", title);
  for (const auto& [deficit, labels] : by_label) {
    int total = 0;
    for (const auto& [label, count] : labels) total += count;
    std::fprintf(out, "  %-22s %4d total: ", deficit.c_str(), total);
    // Largest contributors first.
    std::vector<std::pair<int, std::string>> sorted;
    for (const auto& [label, count] : labels) sorted.emplace_back(count, label);
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i = 0; i < sorted.size() && i < 4; ++i) {
      std::fprintf(out, "%s=%d ", sorted[i].second.c_str(), sorted[i].first);
    }
    std::fputs("\n", out);
  }
}

bool fig8(const DeficitBreakdown& stats, std::FILE* out) {
  std::fputs("Figure 8: deficit classes (reproduced)\n\n", out);
  TextTable table;
  table.set_header({"deficit", "hosts", ""});
  for (const auto& [label, hosts] : std::initializer_list<std::pair<const char*, int>>{
           {"None (no security)", stats.none_only},
           {"Deprecated policies (max)", stats.deprecated_only},
           {"Too weak certificate", stats.weak_certificate},
           {"Certificate reuse", stats.cert_reuse},
           {"Anonymous access", stats.anonymous_access}}) {
    table.add_row({label, fmt_int(hosts), render_bar(hosts, 600, 30)});
  }
  std::fputs(table.str().c_str(), out);

  std::fputs("\n", out);
  print_breakdown(out, "Figure 8a: by manufacturer", stats.by_manufacturer);
  std::fputs("\n", out);
  std::map<std::string, std::map<std::string, int>> by_as_label;
  for (const auto& [deficit, ases] : stats.by_as) {
    for (const auto& [asn, count] : ases) by_as_label[deficit]["AS" + std::to_string(asn)] = count;
  }
  print_breakdown(out, "Figure 8b: by autonomous system", by_as_label);

  std::optional<double> deficient_share;
  if (stats.servers > 0) {
    deficient_share = static_cast<double>(stats.deficient_total) / stats.servers;
  }
  return print_comparison(
      out, "Figure 8 / headline vs paper",
      {
          claim("None-only hosts", 270, stats.none_only),
          claim("deprecated-max hosts", 280, stats.deprecated_only),
          claim("weak-certificate hosts", 591, stats.weak_certificate),
          // 418 = the manufacturer's three clusters (385+9+6, §5.3) plus six
          // 3-host clusters the paper's ">= 3 hosts" threshold also captures.
          claim("certificate-reuse hosts (>=3 clusters)", 418, stats.cert_reuse),
          claim("anonymous access offered", 572, stats.anonymous_access),
          claim("deficient total", 1025, stats.deficient_total),
          share_claim("deficient share", "92%", 0.92, 0.005, deficient_share),
      });
}

// §5.5 "A Lack of Longitudinal Improvements": weekly deficiency
// stability, certificate renewals on static IPs, the study's certificate
// corpus and its SHA-1 NotBefore dates, and the reused-certificate fleet.
bool sec55(const LongitudinalStats& stats, std::FILE* out) {
  std::fputs("Section 5.5: longitudinal analysis (reproduced)\n\n", out);
  TextTable table;
  table.set_header({"measurement", "servers", "deficient", "%", "reused-cert devices"});
  for (const auto& week : stats.weeks) {
    table.add_row({week_date(week), fmt_int(week.servers), fmt_int(week.deficient),
                   fmt_double(week.deficient_pct, 2), fmt_int(week.reuse_devices)});
  }
  std::fputs(table.str().c_str(), out);

  std::fprintf(out, "\ndeficiency: avg %.2f%%  std %.2f  min %.2f%%  max %.2f%%\n",
               stats.deficiency_avg, stats.deficiency_std, stats.deficiency_min,
               stats.deficiency_max);
  std::fprintf(out, "certificates collected over all measurements: %zu distinct\n",
               stats.total_distinct_certificates);
  std::fprintf(out, "SHA-1 certificates with NotBefore >= 2017: %zu, >= 2019: %zu\n",
               stats.sha1_after_2017, stats.sha1_after_2019);
  std::fprintf(out,
               "renewals on static IPs: %zu (software update in %d, SHA-1 replaced in %d, "
               "downgraded in %d)\n\n",
               stats.renewals.size(), stats.renewals_with_software_update, stats.sha1_upgrades,
               stats.downgrades);

  const std::size_t n = stats.weeks.size();
  const WeeklyObservation* last = stats.weeks.empty() ? nullptr : &stats.weeks.back();
  std::optional<double> growth;
  if (n >= 2) growth = last->reuse_devices - stats.weeks[n - 2].reuse_devices;
  return print_comparison(
      out, "Section 5.5 vs paper",
      {
          {"avg weekly deficiency", "92%", fmt_double(stats.deficiency_avg, 2) + "%",
           std::abs(stats.deficiency_avg - 92.0) < 0.5},
          {"weekly deficiency std", "0.8", fmt_double(stats.deficiency_std, 2),
           std::abs(stats.deficiency_std - 0.8) < 0.4},
          {"weekly deficiency min", "91%", fmt_double(stats.deficiency_min, 2) + "%",
           stats.deficiency_min >= 91.0 && stats.deficiency_min < 92.0},
          {"weekly deficiency max", "94%", fmt_double(stats.deficiency_max, 2) + "%",
           stats.deficiency_max <= 94.0 && stats.deficiency_max > 93.0},
          claim("distinct certificates over the study", 4296, stats.total_distinct_certificates),
          claim("SHA-1 certs created after 2017 deprecation", 2174, stats.sha1_after_2017),
          claim("SHA-1 certs created since 2019", 1923, stats.sha1_after_2019),
          claim("certificate renewals on static IPs", 84, stats.renewals.size()),
          claim("renewals with software update", 9, stats.renewals_with_software_update),
          claim("renewals replacing SHA-1", 7, stats.sha1_upgrades),
          claim("renewals downgrading to SHA-1", 1, stats.downgrades),
          claim("reused-cert devices first measurement", 263,
                value_of(at_or_null(stats.weeks, 0), &WeeklyObservation::reuse_devices)),
          claim("reused-cert devices last measurement", 400,
                value_of(last, &WeeklyObservation::reuse_devices)),
          claim("reuse growth in final week (+3)", 3, growth),
      });
}

}  // namespace

bool reproduce_paper(const StudyAnalysis& analysis, std::FILE* out) {
  // Every section prints even after a deviation, so one run shows them all.
  bool ok = table1(out);
  ok &= fig2(analysis.longitudinal, out);
  ok &= fig3(analysis.modes, out);
  ok &= fig4(analysis.certificates, out);
  ok &= fig5(analysis.reuse, out);
  ok &= sec53(analysis, out);
  ok &= fig6(analysis.auth, out);
  ok &= table2(analysis.auth, out);
  ok &= fig7(analysis.access_rights, out);
  ok &= fig8(analysis.deficits, out);
  ok &= sec55(analysis.longitudinal, out);
  return ok;
}

}  // namespace opcua_study
