// Generated inputs of the synthetic workloads (followup_batch,
// service_mixed): the snapshot base and the service's query list. Both
// are pure functions of the seed; the library only ever sees the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "population/followup.hpp"
#include "scanner/record.hpp"
#include "svc/service.hpp"

namespace bench {

/// Key-factory seed and size of the signed certificate fleet behind the
/// synthetic hosts. The fleet is the same for every workload seed, so its
/// keys sit in a corpus built once per checkout.
inline constexpr std::uint64_t kFleetKeySeed = 20200911;
inline constexpr std::size_t kFleetCerts = 24;
inline constexpr std::size_t kFleetKeyBits = 2048;

/// The fleet's (label, bits) pairs, for prefetching them into a corpus.
std::vector<std::pair<std::string, std::size_t>> fleet_key_ids();

/// Sign the fleet's certificates with keys from the corpus at `key_path`.
std::vector<opcua_study::Bytes> make_cert_fleet(const std::string& key_path);

/// Draw every key a synthetic workload's timed run loads into the corpus
/// at `key_path`: the fleet keys, and the mint keys of `steps`
/// extend_series steps under `config` (each step draws its own). A tiny
/// in-memory series grown the same number of steps draws exactly those.
void build_synthetic_corpus(const std::string& key_path, const opcua_study::FollowupConfig& config,
                            int steps);

/// Synthetic base campaign: `hosts` records in the study's posture
/// archetype mix (None-only, None + deprecated Sign, secure-only, None +
/// secure; a third offer anonymous access). One in five certificate-
/// bearing hosts presents a shared fleet certificate, the rest a per-host
/// variant of one, so the cert dictionary grows with the host count.
std::vector<opcua_study::HostScanRecord> make_base_hosts(std::uint64_t seed, std::size_t hosts,
                                                         const std::vector<opcua_study::Bytes>& fleet);

/// One entry of the service's scripted client load: a query, or (at one
/// third and two thirds of the list) the append of the next campaign.
struct PlannedOp {
  enum class Type : std::uint8_t { query, append };
  Type type = Type::query;
  opcua_study::svc::QueryRequest request;  // query only
  /// Appends that must have returned before this entry may run: 1 once
  /// it names m3 (or may see the series with it), 2 once it names m4.
  int min_epoch = 0;
  /// Part of the seeded sample whose response is checked against inline
  /// execute() after the run.
  bool sampled = false;
};

/// Campaign names of the service history: m0..m4; m0-m2 are registered
/// in setup, m3 and m4 are appended during the run.
inline constexpr int kServiceMembers = 5;
inline constexpr int kServiceInitialMembers = 3;
std::string member_name(int index);
inline const char* kServiceSeries = "history";

/// The fixed, seeded query list: 60% posture (about half unfiltered, the
/// rest with one seeded cohort filter), 10% each study, diff, series and
/// catalog, with the two appends at count/3 and 2*count/3.
std::vector<PlannedOp> make_query_list(std::uint64_t seed, std::size_t count);

}  // namespace bench
