#include "netem/background.h"

#include <algorithm>

namespace mpr::netem {

BackgroundTraffic::BackgroundTraffic(sim::Simulation& sim, net::Link& link, Config config,
                                     sim::Rng rng)
    : sim_{sim}, link_{link}, config_{config}, rng_{std::move(rng)} {
  if (config_.on_utilization > 0.0 && config_.on_fraction > 0.0) schedule_next();
}

void BackgroundTraffic::stop() { pending_.cancel(); }

void BackgroundTraffic::schedule_next() {
  const sim::TimePoint now = sim_.now();
  // Advance ON/OFF phases past `now`.
  while (now >= phase_end_) {
    on_ = !on_;
    const sim::Duration mean = on_ ? config_.mean_on : mean_off();
    const double len_s = std::max(rng_.exponential(std::max(mean.to_seconds(), 1e-3)), 1e-4);
    phase_end_ = phase_end_ + sim::Duration::from_seconds(len_s);
  }

  if (!on_) {
    // Sleep through the OFF phase.
    pending_.arm_at(phase_end_, [this] { schedule_next(); });
    return;
  }

  const double rate_bps = link_.config().rate_bps * config_.on_utilization;
  const double mean_gap_s = static_cast<double>(kPacketBytes) * 8.0 / rate_bps;
  const double gap_s = rng_.exponential(mean_gap_s);
  pending_.arm_after(sim::Duration::from_seconds(gap_s), [this] {
    if (on_ && sim_.now() < phase_end_) {
      net::PacketPtr p = sim_.service<net::PacketPool>().acquire();
      p->src = kPhantomSrc;
      p->dst = kPhantomDst;
      p->payload_bytes = kPacketBytes - 40;
      p->cross_traffic = true;
      ++injected_;
      link_.send(std::move(p));
    }
    schedule_next();
  });
}

}  // namespace mpr::netem
