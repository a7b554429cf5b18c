// Background cross-traffic generator.
//
// Injects phantom packets straight into an access link to occupy its queue
// and serialization time, reproducing contention from other users of the
// same AP/backhaul (the coffee-shop hotspot of Fig 6, and milder
// time-of-day load on the home network). The process is a modulated Poisson
// source: exponential ON/OFF phases; during ON phases packets arrive at a
// rate targeting `on_utilization` of the link's base rate. Its packets are
// marked Packet::cross_traffic, which ends them at the wire (net/link.h).
// The generator keeps exactly one event pending at a time.
#pragma once

#include <cstdint>

#include "net/link.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/timer.h"

namespace mpr::netem {

class BackgroundTraffic {
 public:
  struct Config {
    double on_utilization{0.6};   // fraction of link rate consumed while ON
    double on_fraction{0.5};      // long-run fraction of time in ON phase
    sim::Duration mean_on{sim::Duration::seconds(2)};
  };

  /// Wire size of every phantom packet, and the addresses it carries (no
  /// host owns them; the packets end at the wire).
  static constexpr std::uint32_t kPacketBytes = 1460;
  static constexpr net::IpAddr kPhantomSrc{0xFFFF0001};
  static constexpr net::IpAddr kPhantomDst{0xFFFF0002};

  /// Starts generating immediately. `link` must outlive this object.
  BackgroundTraffic(sim::Simulation& sim, net::Link& link, Config config, sim::Rng rng);

  /// Stops injecting and cancels the pending event: a stopped generator
  /// costs no further events.
  void stop();
  [[nodiscard]] std::uint64_t packets_injected() const { return injected_; }

 private:
  void schedule_next();
  [[nodiscard]] sim::Duration mean_off() const {
    const double f = config_.on_fraction;
    if (f >= 1.0) return sim::Duration::zero();
    return config_.mean_on * ((1.0 - f) / f);
  }

  sim::Simulation& sim_;
  net::Link& link_;
  Config config_;
  sim::Rng rng_;
  bool on_{false};
  sim::TimePoint phase_end_{};
  sim::Timer pending_{sim_};
  std::uint64_t injected_{0};
};

}  // namespace mpr::netem
