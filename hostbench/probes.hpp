// Layer probes: unit costs of the simulator's hot layers, measured through
// their public functions at a shape read from a workload's own RunStats.
// Each probe keeps a checksum of the work it drove and DSM_CHECKs it, so
// an optimiser cannot delete the measured loop and a broken layer aborts
// instead of reporting a fast number.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace hostbench {

/// What a probe is sized by.  Every field comes from the traced pass of the
/// workload (see shape_from_stats in hostbench.cpp).
struct ProbeShape {
  int nodes = 16;
  /// Engine yield quantum of the simulated runs.
  dsm::SimTime quantum = 0;
  /// Mean number of pending events (Little's law over the traced pass).
  std::size_t queue_depth = 1;
  /// Mean delay between posting an event and running it (virtual ns).
  dsm::SimTime event_delay = 1;
  /// Mean message payload in bytes.
  std::size_t payload = 0;
  /// Coherence granularity and mean encoded diff size in bytes.
  std::size_t grain = 4096;
  std::size_t diff_bytes = 0;
};

/// Host ns per Engine::yield round trip with `nodes` fibers.
double probe_switch_ns(const ProbeShape& s);
/// Host ns per Engine::post plus dispatch, hold model at `queue_depth`.
double probe_event_ns(const ProbeShape& s);
/// Host ns per Network::send plus delivery at `payload`, minus the engine
/// events and yields the probe itself incurred (priced at the given costs).
double probe_send_ns(const ProbeShape& s, double event_ns, double switch_ns);
/// Host ns per make_diff_from_bitmap plus apply_diff at `grain` and
/// `diff_bytes`.
double probe_diff_ns(const ProbeShape& s);

}  // namespace hostbench
