// The benchmark's workloads.  Each factory builds a fresh scenario from
// the run's seed; equal seeds give equal inputs.
#pragma once

#include "bench.hpp"
#include "vwire/chaos/campaign.hpp"

namespace perfbench {

/// Fig 7's heaviest configuration: paced TCP bulk transfer between two
/// nodes on a 100 Mbps switched LAN, 25 filters, 25 counter actions per
/// matched packet, the paper's RLL.
ScenarioFactory tcp_bulk(std::uint64_t seed);
RepShape tcp_bulk_shape();

/// Fig 8 configuration (iii): open-loop minimum-size UDP echo probes, 25
/// filters, 25 actions per matched packet, the paper's RLL.
ScenarioFactory udp_small(std::uint64_t seed);
RepShape udp_small_shape();

/// An 8-member Rether ring on the shared bus: per-node best-effort UDP
/// echo traffic plus one real-time reservation, no faults.
ScenarioFactory rether_ring(std::uint64_t seed);
RepShape rether_ring_shape();

/// The fixture scenario of chaos trial `index` with the trial's generated
/// FSL faults, driven like the other workloads so its layers can be
/// traced.  Crash and link faults are not applied.
ScenarioFactory chaos_replica(const vwire::chaos::Campaign& campaign,
                              std::uint64_t index);
RepShape chaos_replica_shape();

}  // namespace perfbench
