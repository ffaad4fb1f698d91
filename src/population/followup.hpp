// Follow-up-campaign generator: a deterministic evolution model that
// turns one recorded campaign into a plausible later one.
//
// The source paper scanned in 2020; the PAM 2022 follow-up ("Missed
// Opportunities", Dahlmanns et al.) asked what those operators did in the
// two years between: did they migrate to secure configurations, churn
// addresses, renew certificates — or change nothing? This model replays
// that history onto measured records. Every transition is drawn from an
// Rng stream derived from (seed, ip, port), so a host's fate is a pure
// function of the config and its identity: evolution is reproducible,
// order-independent, and safe to run from concurrent chunk workers.
//
// Transitions per base host (all probabilities independent):
//   retirement        host disappears entirely
//   IP churn          host moves to a new address (31-bit bijection — no
//                     two churned hosts ever collide, and the churn range
//                     is disjoint from the base/new-deployment ranges)
//   security upgrade  a None-only host gains a SignAndEncrypt endpoint
//                     with the recommended Basic256Sha256 policy
//   security downgrade  secure endpoints dropped, None kept/added
//   deprecated drop   Basic128Rsa15/Basic256 endpoints removed (or
//                     upgraded in place when nothing else would remain)
//   cert renewal      all presented certificates replaced by a freshly
//                     minted one; otherwise the old DER is kept verbatim
//                     (the §5.3 copying behaviour the matcher exploits)
//   anonymous drop/add  anonymous token removed from / added to endpoints
//
// On top of the survivors, visit_new_deployments() emits brand-new hosts
// (the population growth every follow-up study observed), with a posture
// mix skewed more secure than the 2020 base — but not clean.
#pragma once

#include <functional>
#include <optional>

#include "crypto/keycache.hpp"
#include "scanner/record.hpp"

namespace opcua_study {

struct FollowupConfig {
  std::uint64_t seed = 20220301;
  /// Stamped into the generated snapshot's campaign block (study layer).
  std::string campaign_label = "followup-2022";
  /// 0 = derive from the base campaign (final measurement + two years).
  std::int64_t epoch_days = 0;

  // Per-host transition probabilities.
  double retire = 0.12;
  double ip_churn = 0.25;
  double upgrade = 0.08;
  double downgrade = 0.02;
  double drop_deprecated = 0.05;
  double cert_renewal = 0.30;
  double drop_anonymous = 0.06;
  double add_anonymous = 0.02;
  /// New deployments per base host (applied to the base host count).
  double new_deployment_rate = 0.15;

  /// Certificates minted for renewals and new deployments come from a
  /// fixed fleet of (keys x serials) DERs generated once up front —
  /// renewal cost is O(fleet), not O(hosts), which is what keeps
  /// million-host follow-ups cheap. Renewed hosts drawing the same fleet
  /// cert simply extend the paper's certificate-reuse clusters. 2048-bit
  /// keys keep a minted certificate conformant with the secure policies:
  /// a renewal must not flip a clean host to "too weak certificate" by
  /// itself (benches/tests that only need fingerprints may drop to 512).
  std::size_t mint_keys = 16;
  std::size_t mint_fleet = 1024;
  std::size_t mint_key_bits = 2048;
  std::string key_cache_path = KeyFactory::default_cache_path();
};

class FollowupModel {
 public:
  explicit FollowupModel(FollowupConfig config);

  /// Evolve one base host. nullopt = retired. Pure function of
  /// (config, base) — thread-safe, order-independent.
  std::optional<HostScanRecord> evolve(const HostScanRecord& base) const;

  /// Brand-new deployments for a base population of `base_hosts` servers,
  /// handed to `fn` one record at a time (the streamed study path never
  /// materializes the arrivals); deterministic, disjoint address range from
  /// both base and churn.
  void visit_new_deployments(std::uint64_t base_hosts,
                             const std::function<void(HostScanRecord&&)>& fn) const;

  /// The churned address of `ip`: a 31-bit multiplicative bijection with
  /// the top bit forced on, so churned addresses never collide with each
  /// other nor with the (sub-2^31) base population.
  static Ipv4 churned_ip(Ipv4 ip);

  const FollowupConfig& config() const { return config_; }

 private:
  std::uint64_t new_deployment_count(std::uint64_t base_hosts) const;
  const Bytes& minted_cert(std::uint64_t slot) const;

  FollowupConfig config_;
  std::vector<Bytes> fleet_;  // pre-minted renewal/new-deployment certs
};

}  // namespace opcua_study
