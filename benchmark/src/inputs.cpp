#include "inputs.hpp"

#include "crypto/keycache.hpp"
#include "crypto/x509.hpp"
#include "opcua/secpolicy.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace bench {

using namespace opcua_study;

std::vector<std::pair<std::string, std::size_t>> fleet_key_ids() {
  std::vector<std::pair<std::string, std::size_t>> ids;
  for (std::size_t i = 0; i < kFleetCerts; ++i) {
    ids.emplace_back("bench-fleet-" + std::to_string(i), kFleetKeyBits);
  }
  return ids;
}

std::vector<Bytes> make_cert_fleet(const std::string& key_path) {
  KeyFactory keys(kFleetKeySeed, key_path);
  std::vector<Bytes> fleet;
  const auto ids = fleet_key_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const RsaKeyPair kp = keys.get(ids[i].first, ids[i].second);
    CertificateSpec spec;
    spec.subject = {"bench device " + std::to_string(i), "Bench Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(7000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:bench:device:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return fleet;
}

void build_synthetic_corpus(const std::string& key_path, const FollowupConfig& config, int steps) {
  KeyFactory(kFleetKeySeed, key_path).prefetch(fleet_key_ids());
  ScanSnapshot snapshot;
  snapshot.date_days = days_from_civil({2020, 9, 11});
  snapshot.hosts = make_base_hosts(1, 8, make_cert_fleet(key_path));
  CampaignSet set;
  set.add_snapshots(std::vector<ScanSnapshot>{snapshot}, "corpus-base", snapshot.date_days);
  for (int m = 1; m <= steps; ++m) extend_series(set, config);
}

std::vector<HostScanRecord> make_base_hosts(std::uint64_t seed, std::size_t hosts,
                                            const std::vector<Bytes>& fleet) {
  const Rng root = Rng(seed).child("bench-base-hosts");
  std::vector<HostScanRecord> out;
  out.reserve(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    Rng rng = root.child(std::to_string(i));
    HostScanRecord host;
    host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
    host.port = rng.below(13) == 0 ? 4841 : kOpcUaDefaultPort;
    host.asn = 64500 + static_cast<std::uint32_t>(rng.below(48));
    host.tcp_open = true;
    host.speaks_opcua = true;
    host.product_uri = "http://example.org/bench";
    host.application_name = "bench host " + std::to_string(i);
    host.application_uri = "urn:generic:opcua:bench-" + std::to_string(i);
    host.software_version = "2." + std::to_string(rng.below(4)) + ".0";

    Bytes cert = fleet[rng.below(fleet.size())];
    if (rng.below(5) != 0) {
      // A per-host variant: flip trailing signature bytes. Still parses,
      // carries a unique thumbprint, costs no signing.
      for (std::size_t b = 0; b < 4; ++b) {
        cert[cert.size() - 1 - b] ^= static_cast<std::uint8_t>((i + 1) >> (8 * b));
      }
    }
    const bool anonymous = rng.below(3) == 0;
    auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
      EndpointObservation ep;
      ep.url = "opc.tcp://bench" + std::to_string(i) + ":4840/";
      ep.mode = mode;
      ep.policy_uri = std::string(policy_info(policy).uri);
      ep.policy = policy;
      ep.policy_known = true;
      ep.token_types = anonymous ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                 : std::vector<UserTokenType>{UserTokenType::UserName};
      if (with_cert) ep.certificate_der = cert;
      host.endpoints.push_back(std::move(ep));
    };
    switch (rng.below(4)) {
      case 0: add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false); break;
      case 1:
        add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
        add_endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256, true);
        break;
      case 2:
        add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
        break;
      default:
        add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
        add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
        break;
    }
    host.channel = ChannelOutcome::established;
    host.anonymous_offered = anonymous;
    host.session = SessionOutcome::not_attempted;
    host.bytes_sent = 40000 + rng.below(1000);
    host.duration_seconds = 90.0;
    out.push_back(std::move(host));
  }
  return out;
}

std::string member_name(int index) {
  std::string name = "m";  // (not "m" + ...: GCC 12 warns -Wrestrict on that)
  name += std::to_string(index);
  return name;
}

std::vector<PlannedOp> make_query_list(std::uint64_t seed, std::size_t count) {
  using Kind = svc::QueryRequest::Kind;
  Rng rng = Rng(seed).child("bench-query-list");
  const std::size_t append_at[2] = {count / 3, 2 * count / 3};
  std::vector<PlannedOp> ops;
  ops.reserve(count);
  int appended = 0;  // appends planned before the current position
  for (std::size_t i = 0; i < count; ++i) {
    PlannedOp op;
    if (appended < 2 && i == append_at[appended]) {
      op.type = PlannedOp::Type::append;
      op.min_epoch = appended;
      ops.push_back(op);
      ++appended;
      continue;
    }
    const int members = kServiceInitialMembers + appended;
    auto pick_member = [&] {
      const int m = static_cast<int>(rng.below(static_cast<std::uint64_t>(members)));
      op.min_epoch = std::max(op.min_epoch, m - kServiceInitialMembers + 1);
      return member_name(m);
    };
    svc::QueryRequest& q = op.request;
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      q.kind = Kind::posture;
      q.campaign = pick_member();
      switch (rng.below(12)) {
        case 0: q.asn = 64500 + static_cast<std::uint32_t>(rng.below(48)); break;
        case 1: q.protocol = "opcua"; break;
        case 2: q.mode_bucket = static_cast<int>(rng.below(3)); break;
        case 3: q.policy_bucket = static_cast<int>(rng.below(3)); break;
        case 4: q.anonymous_only = true; break;
        case 5: q.deficient_only = true; break;
        default: break;  // unfiltered
      }
      const std::size_t limits[3] = {8, 16, 32};
      q.as_limit = limits[rng.below(3)];
    } else if (roll == 6) {
      q.kind = Kind::study;
      q.campaign = pick_member();
    } else if (roll == 7) {
      q.kind = Kind::diff;
      const int step = static_cast<int>(rng.below(static_cast<std::uint64_t>(members - 1)));
      q.base = member_name(step);
      q.followup = member_name(step + 1);
      op.min_epoch = std::max(0, step + 1 - kServiceInitialMembers + 1);
    } else if (roll == 8) {
      q.kind = Kind::series;
      q.series = kServiceSeries;
    } else {
      q.kind = Kind::catalog;
    }
    op.sampled = rng.below(16) == 0;
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace bench
