#include "population/followup.hpp"

#include <algorithm>

#include "crypto/x509.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

constexpr Ipv4 kNewDeploymentBase = 0x60000000u;  // 96.0.0.0/8 region

void set_policy(EndpointObservation& ep, SecurityPolicy policy, MessageSecurityMode mode) {
  ep.mode = mode;
  ep.policy = policy;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy_known = true;
}

bool offers_token(const EndpointObservation& ep, UserTokenType token) {
  return std::find(ep.token_types.begin(), ep.token_types.end(), token) != ep.token_types.end();
}

}  // namespace

FollowupModel::FollowupModel(FollowupConfig config) : config_(std::move(config)) {
  // Mint the renewal/new-deployment certificate fleet up front: a small
  // key pool crossed with per-cert serials gives mint_fleet distinct
  // fingerprints for the price of mint_keys RSA generations. Each key is
  // fetched once; the signatures run on a pool, certificate i into slot
  // i, so the fleet is the same for any thread count.
  KeyFactory keys(config_.seed, config_.key_cache_path);
  const std::size_t key_count = std::max<std::size_t>(1, config_.mint_keys);
  const std::size_t fleet_size = std::max<std::size_t>(1, config_.mint_fleet);
  std::vector<std::pair<std::string, std::size_t>> wants;
  for (std::size_t k = 0; k < key_count; ++k) {
    wants.emplace_back("followup-mint-" + std::to_string(k), config_.mint_key_bits);
  }
  keys.prefetch(wants);
  std::vector<RsaKeyPair> pairs;
  pairs.reserve(key_count);
  for (const auto& [label, bits] : wants) pairs.push_back(keys.get(label, bits));
  fleet_.resize(fleet_size);
  const ThreadPool pool;
  pool.parallel_for(fleet_size, [&](std::size_t i) {
    const RsaKeyPair& kp = pairs[i % key_count];
    CertificateSpec spec;
    spec.subject = {"followup device " + std::to_string(i), "Followup Manufacturing", "DE"};
    // A sliver of the fleet still mints SHA-1 — the follow-up studies kept
    // finding freshly created deprecated certificates.
    spec.signature_hash = i % 6 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{0x22000000ull + i};
    spec.not_before_days = days_from_civil({2021, 6, 1}) + static_cast<std::int64_t>(i % 365);
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:followup:cert:" + std::to_string(i);
    fleet_[i] = x509_create(spec, kp.pub, kp.priv);
  });
}

const Bytes& FollowupModel::minted_cert(std::uint64_t slot) const {
  return fleet_[static_cast<std::size_t>(slot % fleet_.size())];
}

Ipv4 FollowupModel::churned_ip(Ipv4 ip) {
  // Odd-constant multiplication mod 2^31 is a bijection on [0, 2^31); the
  // forced top bit keeps every churned address outside the base population
  // and new-deployment ranges (both below 2^31).
  const std::uint32_t mixed = ((ip & 0x7fffffffu) * 0x9e3779b1u) & 0x7fffffffu;
  return 0x80000000u | mixed;
}

std::optional<HostScanRecord> FollowupModel::evolve(const HostScanRecord& base) const {
  Rng rng = Rng(config_.seed)
                .child("followup-host")
                .child(std::to_string(base.ip) + ":" + std::to_string(base.port));
  // Every draw happens unconditionally, in one fixed order: the stream a
  // host consumes never depends on its configuration, so transitions can
  // be added behind these without reshuffling existing fates.
  const bool retire = rng.chance(config_.retire);
  const bool churn = rng.chance(config_.ip_churn);
  const bool upgrade = rng.chance(config_.upgrade);
  const bool downgrade = rng.chance(config_.downgrade);
  const bool shed_deprecated = rng.chance(config_.drop_deprecated);
  const bool renew = rng.chance(config_.cert_renewal);
  const bool drop_anon = rng.chance(config_.drop_anonymous);
  const bool add_anon = rng.chance(config_.add_anonymous);
  const std::uint64_t mint_slot = rng.next();

  if (retire) return std::nullopt;

  HostScanRecord host = base;
  if (churn) host.ip = churned_ip(host.ip);

  // Discovery servers only churn or retire; their endpoint lists are
  // references to other hosts, not a security posture of their own.
  if (!host.is_discovery_server() && !host.endpoints.empty()) {
    if (downgrade) {
      // Secure endpoints dropped; if the host was secure-only, its
      // strongest endpoint degrades to None/None (the misconfiguration
      // regressions the follow-up study observed).
      std::vector<EndpointObservation> keep;
      for (const auto& ep : host.endpoints) {
        if (ep.mode == MessageSecurityMode::None) keep.push_back(ep);
      }
      if (keep.empty()) {
        EndpointObservation ep = host.endpoints.front();
        set_policy(ep, SecurityPolicy::None, MessageSecurityMode::None);
        keep.push_back(std::move(ep));
      }
      host.endpoints = std::move(keep);
    } else if (upgrade) {
      bool secure_capable = false;
      for (const auto mode : host.advertised_modes()) {
        secure_capable |= security_mode_rank(mode) >= security_mode_rank(MessageSecurityMode::Sign);
      }
      if (!secure_capable) {
        EndpointObservation ep = host.endpoints.front();
        set_policy(ep, SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt);
        if (ep.certificate_der.empty()) {
          for (const auto& other : host.endpoints) {
            if (!other.certificate_der.empty()) {
              ep.certificate_der = other.certificate_der;
              break;
            }
          }
        }
        if (ep.certificate_der.empty()) ep.certificate_der = minted_cert(mint_slot);
        host.endpoints.push_back(std::move(ep));
      }
    }

    if (shed_deprecated) {
      const auto deprecated = [](const EndpointObservation& ep) {
        return ep.policy_known && policy_info(ep.policy).deprecated;
      };
      const auto survivors = std::count_if(host.endpoints.begin(), host.endpoints.end(),
                                           [&](const auto& ep) { return !deprecated(ep); });
      if (survivors > 0) {
        std::erase_if(host.endpoints, deprecated);
      } else {
        // Nothing would remain: migrate the deprecated endpoints to the
        // recommended policy in place instead.
        for (auto& ep : host.endpoints) {
          set_policy(ep, SecurityPolicy::Basic256Sha256, ep.mode);
        }
      }
    }

    if (renew) {
      const Bytes& der = minted_cert(mint_slot);
      for (auto& ep : host.endpoints) {
        if (!ep.certificate_der.empty()) ep.certificate_der = der;
      }
    }

    if (drop_anon) {
      for (auto& ep : host.endpoints) {
        std::erase(ep.token_types, UserTokenType::Anonymous);
        if (ep.token_types.empty()) ep.token_types.push_back(UserTokenType::UserName);
      }
    } else if (add_anon) {
      for (auto& ep : host.endpoints) {
        if (!offers_token(ep, UserTokenType::Anonymous)) {
          ep.token_types.push_back(UserTokenType::Anonymous);
        }
      }
    }

    // Re-derive the measured-outcome fields the surgery may have
    // invalidated; everything else in the record is what a 2022 scanner
    // would have observed unchanged.
    bool anonymous = false;
    for (const auto& ep : host.endpoints) anonymous |= offers_token(ep, UserTokenType::Anonymous);
    host.anonymous_offered = anonymous;
    if (!anonymous && host.session == SessionOutcome::accessible) {
      host.session = SessionOutcome::auth_rejected;
      host.namespaces.clear();
      host.nodes.clear();
    }
  }
  return host;
}

std::uint64_t FollowupModel::new_deployment_count(std::uint64_t base_hosts) const {
  return static_cast<std::uint64_t>(static_cast<double>(base_hosts) *
                                    std::max(0.0, config_.new_deployment_rate));
}

void FollowupModel::visit_new_deployments(
    std::uint64_t base_hosts, const std::function<void(HostScanRecord&&)>& fn) const {
  const std::uint64_t count = new_deployment_count(base_hosts);
  for (std::uint64_t i = 0; i < count; ++i) {
    Rng rng = Rng(config_.seed).child("followup-new").child(std::to_string(i));
    HostScanRecord host;
    host.ip = kNewDeploymentBase + static_cast<Ipv4>(i);
    host.port = kOpcUaDefaultPort;
    host.asn = 64500 + static_cast<std::uint32_t>(rng.below(48));
    host.tcp_open = true;
    host.speaks_opcua = true;
    host.application_uri = "urn:followup:new:" + std::to_string(i);
    host.product_uri = "http://example.org/followup";
    host.application_name = "followup deployment " + std::to_string(i);
    host.software_version = "3." + std::to_string(rng.below(4)) + ".0";
    const Bytes& der = minted_cert(rng.next());

    auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert,
                            std::vector<UserTokenType> tokens) {
      EndpointObservation ep;
      ep.url = "opc.tcp://new" + std::to_string(i) + ":4840/";
      set_policy(ep, policy, mode);
      ep.token_types = std::move(tokens);
      if (with_cert) ep.certificate_der = der;
      host.endpoints.push_back(std::move(ep));
    };

    // Posture mix skewed more secure than the 2020 base — but far from
    // clean, matching what the follow-up scans actually found.
    const double posture = rng.real();
    if (posture < 0.45) {
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true,
                   {UserTokenType::UserName});
    } else if (posture < 0.70) {
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true,
                   {UserTokenType::Anonymous, UserTokenType::UserName});
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true,
                   {UserTokenType::UserName});
    } else if (posture < 0.90) {
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false,
                   {UserTokenType::Anonymous});
    } else {
      add_endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256, true,
                   {UserTokenType::Anonymous, UserTokenType::UserName});
    }

    host.channel = ChannelOutcome::established;
    const auto& last = host.endpoints.back();
    host.channel_policy = last.policy;
    host.channel_mode = last.mode;
    bool anonymous = false;
    for (const auto& ep : host.endpoints) anonymous |= offers_token(ep, UserTokenType::Anonymous);
    host.anonymous_offered = anonymous;
    host.session = anonymous ? SessionOutcome::accessible : SessionOutcome::not_attempted;
    if (host.session == SessionOutcome::accessible) {
      host.namespaces = {"http://opcfoundation.org/UA/"};
    }
    host.bytes_sent = 30000 + rng.below(5000);
    host.duration_seconds = 60.0 + static_cast<double>(rng.below(90));
    fn(std::move(host));
  }
}

}  // namespace opcua_study
