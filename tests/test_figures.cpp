// Unit tests of the §5 analysis pieces: the deficiency classifier's rule
// bits, renewal detection across weeks on synthetic scan records, and the
// Fig. 7 survival-curve and threshold helpers.
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"
#include "crypto/keycache.hpp"
#include "util/date.hpp"

namespace opcua_study {
namespace {

Bytes make_cert(const std::string& cn, HashAlgorithm hash, std::uint64_t key_seed,
                std::int64_t not_before = days_from_civil({2018, 1, 1})) {
  static KeyFactory keys(123, "");
  const RsaKeyPair kp = keys.get("assess-" + std::to_string(key_seed), 512);
  CertificateSpec spec;
  spec.subject = {cn, "Assess Org", "DE"};
  spec.signature_hash = hash;
  spec.serial = Bignum{key_seed * 100 + static_cast<std::uint64_t>(hash_rank(hash))};
  spec.not_before_days = not_before;
  spec.not_after_days = not_before + 3650;
  spec.application_uri = "urn:assess:" + cn;
  return x509_create(spec, kp.pub, kp.priv);
}

HostScanRecord make_host(Ipv4 ip, SecurityPolicy max_policy, HashAlgorithm cert_hash,
                         bool anonymous, std::uint64_t key_seed) {
  HostScanRecord host;
  host.ip = ip;
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:assess:host" + std::to_string(ip);
  host.software_version = "1.0";
  EndpointObservation ep;
  ep.mode = max_policy == SecurityPolicy::None ? MessageSecurityMode::None
                                               : MessageSecurityMode::SignAndEncrypt;
  ep.policy = max_policy;
  ep.policy_uri = std::string(policy_info(max_policy).uri);
  ep.policy_known = true;
  ep.token_types = anonymous
                       ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                       : std::vector<UserTokenType>{UserTokenType::UserName};
  ep.certificate_der = make_cert("host" + std::to_string(ip), cert_hash, key_seed);
  host.endpoints.push_back(std::move(ep));
  host.anonymous_offered = anonymous;
  host.channel = ChannelOutcome::established;
  host.session = anonymous ? SessionOutcome::accessible : SessionOutcome::auth_rejected;
  return host;
}

std::uint8_t mask_of(std::initializer_list<SecurityPolicy> policies) {
  std::uint8_t mask = 0;
  for (const SecurityPolicy policy : policies) mask |= 1u << static_cast<int>(policy);
  return mask;
}

TEST(DeficiencyRules, EachDeficitTriggersIndependently) {
  using namespace deficiency;
  const CertStrength good{true, HashAlgorithm::sha256, 2048};
  const CertStrength sha1{true, HashAlgorithm::sha1, 2048};
  const CertStrength short_key{true, HashAlgorithm::sha256, 512};
  const std::uint8_t strong = mask_of({SecurityPolicy::None, SecurityPolicy::Basic128Rsa15,
                                       SecurityPolicy::Basic256Sha256});

  // Clean: the strongest announced policy is secure and the certificate
  // (if any parses) meets it.
  EXPECT_EQ(classify_deficiencies(strong, &good, false), 0);
  EXPECT_EQ(classify_deficiencies(strong, nullptr, false), 0);
  // Each rule alone. No certificate is too weak for None.
  EXPECT_EQ(classify_deficiencies(mask_of({SecurityPolicy::None}), &short_key, false), kNoSecurity);
  EXPECT_EQ(classify_deficiencies(0, nullptr, false), kNoSecurity);
  EXPECT_EQ(classify_deficiencies(mask_of({SecurityPolicy::Basic256}), nullptr, false),
            kDeprecatedPolicy);
  EXPECT_EQ(classify_deficiencies(strong, &sha1, false), kWeakCertificate);
  EXPECT_EQ(classify_deficiencies(strong, &short_key, false), kWeakCertificate);
  EXPECT_EQ(classify_deficiencies(strong, &good, true), kAnonymousAccess);
  // The bits combine.
  EXPECT_EQ(classify_deficiencies(mask_of({SecurityPolicy::Basic256}), &short_key, true),
            kDeprecatedPolicy | kWeakCertificate | kAnonymousAccess);
  EXPECT_EQ(strongest_policy_in(strong), SecurityPolicy::Basic256Sha256);
}

TEST(SurvivalCurve, MonotoneNonIncreasing) {
  std::vector<double> fracs = {0.1, 0.5, 0.9, 0.95, 1.0, 0.3, 0.8};
  const auto curve = AccessRightsStats::survival_curve(fracs);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].second, curve[i - 1].second);  // more hosts -> lower guaranteed fraction
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_TRUE(AccessRightsStats::survival_curve({}).empty());
}

TEST(HostsAbove, ThresholdSemantics) {
  const std::vector<double> fracs = {0.05, 0.5, 0.97, 0.98, 1.0};
  EXPECT_DOUBLE_EQ(AccessRightsStats::hosts_above(fracs, 0.97), 2.0 / 5.0);  // strictly above
  EXPECT_DOUBLE_EQ(AccessRightsStats::hosts_above(fracs, 0.0), 5.0 / 5.0);
  EXPECT_DOUBLE_EQ(AccessRightsStats::hosts_above({}, 0.5), 0.0);
}

std::vector<ScanSnapshot> synthetic_weeks() {
  // Three measurements with: one stable host, one SHA-1→SHA-256 upgrade at
  // week 1 (with software update), one SHA-256→SHA-1 downgrade at week 2,
  // and one dynamic-IP host whose certificate rotates weekly.
  std::vector<ScanSnapshot> weeks;
  for (int w = 0; w < 3; ++w) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = w;
    snapshot.date_days = measurement_days(w);

    snapshot.hosts.push_back(
        make_host(10, SecurityPolicy::Basic256Sha256, HashAlgorithm::sha256, false, 10));

    HostScanRecord upgrader = make_host(
        11, SecurityPolicy::Basic256Sha256, w >= 1 ? HashAlgorithm::sha256 : HashAlgorithm::sha1,
        false, 11);
    upgrader.software_version = w >= 1 ? "2.0" : "1.0";
    snapshot.hosts.push_back(std::move(upgrader));

    snapshot.hosts.push_back(make_host(
        12, SecurityPolicy::Basic256, w >= 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256,
        false, 12));

    HostScanRecord dynamic = make_host(100 + static_cast<Ipv4>(w),
                                       SecurityPolicy::Basic128Rsa15, HashAlgorithm::sha1, false,
                                       13);
    // Fresh certificate each week (new serial via NotBefore).
    dynamic.endpoints[0].certificate_der =
        make_cert("dynamic", HashAlgorithm::sha1, 13, snapshot.date_days);
    snapshot.hosts.push_back(std::move(dynamic));
    weeks.push_back(std::move(snapshot));
  }
  return weeks;
}

TEST(Longitudinal, RenewalDetectionOnStaticIps) {
  const LongitudinalStats stats = analyze_snapshots(synthetic_weeks()).longitudinal;
  // Upgrade + downgrade detected; dynamic-IP host never pairs across weeks.
  ASSERT_EQ(stats.renewals.size(), 2u);
  EXPECT_EQ(stats.sha1_upgrades, 1);
  EXPECT_EQ(stats.downgrades, 1);
  EXPECT_EQ(stats.renewals_with_software_update, 1);
  int week1 = 0, week2 = 0;
  for (const auto& event : stats.renewals) {
    week1 += event.week == 1;
    week2 += event.week == 2;
  }
  EXPECT_EQ(week1, 1);
  EXPECT_EQ(week2, 1);
}

TEST(Longitudinal, DistinctCertificateCorpus) {
  const LongitudinalStats stats = analyze_snapshots(synthetic_weeks()).longitudinal;
  // stable(1) + upgrader(2) + downgrader(2) + dynamic(3 distinct NotBefore).
  EXPECT_EQ(stats.total_distinct_certificates, 8u);
  EXPECT_EQ(stats.weeks.size(), 3u);
  EXPECT_EQ(stats.weeks[0].servers, 4);
}

TEST(Longitudinal, Sha1NotBeforeBuckets) {
  const LongitudinalStats stats = analyze_snapshots(synthetic_weeks()).longitudinal;
  // SHA-1 certs: upgrader week0 (2018), downgrader week2 (2018), dynamic ×3
  // (2020 scan dates). All are >= 2017; the three dynamic ones are >= 2019.
  EXPECT_EQ(stats.sha1_after_2017, 5u);
  EXPECT_EQ(stats.sha1_after_2019, 3u);
}

TEST(Longitudinal, EmptyInput) {
  const LongitudinalStats stats = analyze_snapshots({}).longitudinal;
  EXPECT_TRUE(stats.weeks.empty());
  EXPECT_EQ(stats.total_distinct_certificates, 0u);
  EXPECT_TRUE(stats.renewals.empty());
}

}  // namespace
}  // namespace opcua_study
