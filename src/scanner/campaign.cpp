#include "scanner/campaign.hpp"

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {

/// Telemetry for a record the campaign keeps (i.e. one that lands in the
/// snapshot). Counting here — after the speaks-protocol filter — makes the
/// grab_outcome totals reconcile *exactly* with the snapshot's per-host
/// ProbeOutcome grades, dummy-banner noise excluded.
void note_kept_record(const HostScanRecord& record) {
  const unsigned protocol = static_cast<unsigned>(record.protocol);
  obs::add(obs::Metric::grab_outcome, 1,
           protocol * 4 + static_cast<unsigned>(record.completeness));
  obs::add(obs::Metric::grab_retries, record.retries, protocol);
  obs::add(obs::Metric::grab_fault_events, record.fault_events, protocol);
  obs::add(obs::Metric::grab_bytes_sent, record.bytes_sent, protocol);
}

}  // namespace

Campaign::Campaign(CampaignConfig config, Network& network)
    : config_(std::move(config)), network_(network) {}

bool Campaign::excluded(Ipv4 ip) const {
  return std::any_of(config_.exclusions.begin(), config_.exclusions.end(),
                     [ip](const Cidr& c) { return c.contains(ip); });
}

std::vector<ProtocolTarget> Campaign::targets() const {
  if (!config_.protocols.empty()) return config_.protocols;
  return {ProtocolTarget{ProtocolId::opcua, kOpcUaDefaultPort}};
}

std::vector<Campaign::OpenHost> Campaign::sweep(ScanSnapshot& snapshot, int measurement_index) {
  std::vector<OpenHost> open_hosts;
  const std::vector<ProtocolTarget> profiles = targets();
  if (config_.oracle_sweep) {
    const auto endpoints = network_.bound_endpoints();
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
      const ProtocolTarget& profile = profiles[pi];
      // Randomized order, like zmap's permutation. Profile 0 keeps the
      // historic seed ^ week stream, so a single-protocol campaign sweeps
      // in exactly the pre-registry order; later profiles get their own
      // streams via the high word.
      Rng order(config_.seed ^ static_cast<std::uint64_t>(measurement_index) ^
                (static_cast<std::uint64_t>(pi) << 32));
      std::vector<Ipv4> candidates;
      for (const auto& [ip, port] : endpoints) {
        if (port == profile.port) candidates.push_back(ip);
      }
      std::sort(candidates.begin(), candidates.end());
      order.shuffle(candidates);
      for (Ipv4 ip : candidates) {
        if (excluded(ip)) continue;
        ++snapshot.probes_sent;
        if (network_.syn_probe(ip, profile.port)) {
          open_hosts.push_back(OpenHost{ip, profile.port, profile.protocol});
        }
      }
    }
  } else {
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
      const ProtocolTarget& profile = profiles[pi];
      AddressSweep sweep(config_.universe, config_.seed +
                                               static_cast<std::uint64_t>(measurement_index) +
                                               (static_cast<std::uint64_t>(pi) << 32));
      while (auto ip = sweep.next()) {
        if (excluded(*ip)) continue;
        ++snapshot.probes_sent;
        if (network_.syn_probe(*ip, profile.port)) {
          open_hosts.push_back(OpenHost{*ip, profile.port, profile.protocol});
        }
      }
    }
  }
  return open_hosts;
}

ScanSnapshot Campaign::run(int measurement_index) {
  ScanSnapshot snapshot;
  snapshot.measurement_index = measurement_index;
  snapshot.date_days = measurement_days(measurement_index);
  network_.clock().reset(snapshot.date_days);
  const obs::TraceScope trace_scope(measurement_index, obs::TraceRecord::kNoScope);
  obs::trace(obs::TraceEvent::campaign_begin, network_.clock().now_us(), 0, 0,
             static_cast<std::uint64_t>(measurement_index));

  // Phase 1: port sweep (one pass per protocol target, in mix order).
  const std::vector<OpenHost> open_hosts = sweep(snapshot, measurement_index);
  snapshot.tcp_open_count = open_hosts.size();
  obs::trace(obs::TraceEvent::sweep_complete, network_.clock().now_us(), 0, 0,
             snapshot.probes_sent, open_hosts.size());

  // Phase 2: interleaved application-layer grab of every open host. The
  // scheduler keeps max_in_flight hosts active; ids continue across waves
  // exactly like the old per-campaign grab counter. Mixed-protocol grabs
  // share the scheduler (and the event heap), so heterogeneous hosts
  // interleave — deterministically, because launch order is sweep order.
  ScanScheduler scheduler(config_.grabber, network_,
                          config_.seed * 1000003 + static_cast<std::uint64_t>(measurement_index),
                          config_.max_in_flight);
  for (const OpenHost& host : open_hosts) scheduler.enqueue(host.ip, host.port, host.protocol);
  std::vector<HostScanRecord> records = scheduler.drain();

  std::set<std::pair<Ipv4, std::uint16_t>> scanned;
  std::vector<std::pair<Ipv4, std::uint16_t>> referenced;
  for (const OpenHost& host : open_hosts) scanned.insert({host.ip, host.port});
  for (auto& record : records) {
    for (const auto& target : record.referenced_targets) referenced.push_back(target);
    if (record.speaks_opcua) {
      note_kept_record(record);
      snapshot.hosts.push_back(std::move(record));
    }
  }

  // Phase 3: feed references to other host/port combinations back into the
  // scheduler (the paper enabled this as of 2020-05-04 = measurement 3).
  if (measurement_index >= 3) {
    std::sort(referenced.begin(), referenced.end());
    referenced.erase(std::unique(referenced.begin(), referenced.end()), referenced.end());
    std::vector<std::pair<Ipv4, std::uint16_t>> wave;
    for (const auto& target : referenced) {
      if (excluded(target.first) || scanned.contains(target)) continue;
      scanned.insert(target);
      wave.push_back(target);
    }
    obs::trace(obs::TraceEvent::wave_enqueued, network_.clock().now_us(), 0, 0, wave.size());
    for (const auto& [ip, port] : wave) scheduler.enqueue(ip, port);
    for (auto& record : scheduler.drain()) {
      record.found_via_reference = true;
      if (record.tcp_open) ++snapshot.tcp_open_count;
      if (record.speaks_opcua) {
        note_kept_record(record);
        snapshot.hosts.push_back(std::move(record));
      }
    }
  }
  obs::trace(obs::TraceEvent::campaign_end, network_.clock().now_us(), 0, 0,
             snapshot.hosts.size());
  return snapshot;
}

}  // namespace opcua_study
