// A weekly measurement: sweep → interleaved grab wave → follow references.
#pragma once

#include "scanner/grabber.hpp"
#include "scanner/lfsr.hpp"
#include "scanner/record.hpp"
#include "scanner/scheduler.hpp"

namespace opcua_study {

struct CampaignConfig {
  /// Universe for the LFSR sweep (tests use /16 slices; the full study
  /// uses the oracle sweep, see DESIGN.md).
  Cidr universe = {0, 0};
  /// true: enumerate bound sockets from the simulator instead of walking
  /// the whole universe — outcome-equivalent to the LFSR sweep and O(hosts).
  bool oracle_sweep = true;
  /// Protocol mix of the campaign. Empty = one OPC UA sweep of port 4840.
  /// Non-empty: one sweep pass per target, in list order, each on its own
  /// port; grabs from every pass share one scheduler and interleave on
  /// the event heap. Ports must be pairwise distinct.
  std::vector<ProtocolTarget> protocols;
  /// Opt-out prefixes (the paper excludes 5.79 M addresses, §A.2).
  std::vector<Cidr> exclusions;
  GrabberConfig grabber;
  /// Hosts concurrently in flight in the grab engine. 1 degenerates to the
  /// old lock-step scanner; records are identical either way (DESIGN.md).
  std::size_t max_in_flight = 256;
  std::uint64_t seed = 1;
};

class Campaign {
 public:
  Campaign(CampaignConfig config, Network& network);

  /// Run one measurement; `measurement_index` selects the week (0..7) and
  /// controls reference-following per the paper's calendar.
  ScanSnapshot run(int measurement_index);

  bool excluded(Ipv4 ip) const;

 private:
  /// The effective protocol mix: config.protocols, or {opcua, 4840} when
  /// the list is empty.
  std::vector<ProtocolTarget> targets() const;

  struct OpenHost {
    Ipv4 ip = 0;
    std::uint16_t port = 0;
    ProtocolId protocol = ProtocolId::opcua;
  };
  std::vector<OpenHost> sweep(ScanSnapshot& snapshot, int measurement_index);

  CampaignConfig config_;
  Network& network_;
};

}  // namespace opcua_study
