#include "netem/access.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mpr::netem {

AccessNetwork::AccessNetwork(sim::Simulation& sim, net::Network& network,
                             net::IpAddr client_addr, const AccessProfile& requested)
    : sim_{sim}, profile_{requested} {
  AccessProfile& profile = profile_;
  const std::string base = profile.name + "." + net::to_string(client_addr);

  if (profile.rate_run_sigma > 0.0) {
    // Draw this run's radio condition (location/day variation, see header).
    sim::Rng run_rng = sim.rng(base + ".run");
    const double factor = run_rng.lognormal_median(1.0, profile.rate_run_sigma);
    profile.down_rate_bps *= factor;
    profile.up_rate_bps *= std::sqrt(factor);  // uplink varies less
  }

  net::Link::Config up_cfg{
      .name = base + ".up",
      .rate_bps = profile.up_rate_bps,
      .prop_delay = profile.owd,
      .queue_capacity_bytes = profile.queue_up_bytes,
  };
  net::Link::Config down_cfg{
      .name = base + ".down",
      .rate_bps = profile.down_rate_bps,
      .prop_delay = profile.owd,
      .queue_capacity_bytes = profile.queue_down_bytes,
  };

  auto deliver = [&network](net::PacketPtr p) { network.deliver_local(std::move(p)); };
  up_ = std::make_unique<net::Link>(sim, up_cfg, deliver);
  down_ = std::make_unique<net::Link>(sim, down_cfg, deliver);

  if (profile.codel_downlink) {
    down_->set_queue_discipline(std::make_unique<net::CodelQueue>(profile.queue_down_bytes));
  }

  install_loss_models();

  // Time-varying rate.
  if (profile.rate_sigma > 0.0) {
    down_rate_ = std::make_unique<RateProcess>(
        sim,
        RateProcess::Config{.base_bps = profile.down_rate_bps,
                            .sigma = profile.rate_sigma,
                            .resample_interval = profile.rate_resample,
                            .max_factor = profile.rate_max_factor},
        sim.rng(base + ".rate.down"));
    down_->set_rate_fn([rp = down_rate_.get()] { return rp->rate_bps(); });
    up_rate_ = std::make_unique<RateProcess>(
        sim,
        RateProcess::Config{.base_bps = profile.up_rate_bps,
                            .sigma = profile.rate_sigma * 0.5,
                            .resample_interval = profile.rate_resample,
                            .max_factor = profile.rate_max_factor},
        sim.rng(base + ".rate.up"));
    up_->set_rate_fn([rp = up_rate_.get()] { return rp->rate_bps(); });
  }

  // Link-layer ARQ delay.
  if (profile.arq.retx_prob > 0.0) {
    arq_down_ = std::make_unique<ArqDelayModel>(profile.arq, sim.rng(base + ".arq.down"));
    down_->set_extra_delay_fn([m = arq_down_.get()] { return m->extra_delay(); });
    arq_up_ = std::make_unique<ArqDelayModel>(profile.arq, sim.rng(base + ".arq.up"));
    up_->set_extra_delay_fn([m = arq_up_.get()] { return m->extra_delay(); });
  }

  // RRC gate, shared by both directions.
  if (profile.has_rrc) {
    rrc_ = std::make_unique<RrcStateMachine>(profile.rrc);
    auto gate = [r = rrc_.get()](sim::TimePoint now) { return r->on_traffic(now); };
    up_->set_gate_fn(gate);
    down_->set_gate_fn(gate);
  }

  // Background cross-traffic.
  if (profile.background.on_utilization > 0.0) {
    background_ = std::make_unique<BackgroundTraffic>(sim, *down_, profile.background,
                                                      sim.rng(base + ".bg.down"));
  }
  if (profile.bg_up_utilization > 0.0) {
    BackgroundTraffic::Config up_bg = profile.background;
    up_bg.on_utilization = profile.bg_up_utilization;
    background_up_ =
        std::make_unique<BackgroundTraffic>(sim, *up_, up_bg, sim.rng(base + ".bg.up"));
  }

  network.set_access(client_addr, up_.get(), down_.get());
}

void AccessNetwork::stop_background() {
  for (BackgroundTraffic* bg : {background_.get(), background_up_.get()}) {
    if (bg != nullptr) bg->stop();
  }
}

void AccessNetwork::set_rate_scale(double factor) {
  fault_rate_scale_ = std::max(factor, 1e-3);
  // Install composing rate fns (they stay installed once faults are in use;
  // with scale back at 1.0 they reduce to the original behaviour).
  down_->set_rate_fn([this] {
    const double base = down_rate_ ? down_rate_->rate_bps() : profile_.down_rate_bps;
    return base * fault_rate_scale_;
  });
  up_->set_rate_fn([this] {
    const double base = up_rate_ ? up_rate_->rate_bps() : profile_.up_rate_bps;
    return base * fault_rate_scale_;
  });
}

void AccessNetwork::set_fault_extra_delay(sim::Duration d) {
  fault_extra_delay_ = d;
  down_->set_extra_delay_fn([this] {
    const sim::Duration arq = arq_down_ ? arq_down_->extra_delay() : sim::Duration{};
    return arq + fault_extra_delay_;
  });
  up_->set_extra_delay_fn([this] {
    const sim::Duration arq = arq_up_ ? arq_up_->extra_delay() : sim::Duration{};
    return arq + fault_extra_delay_;
  });
}

void AccessNetwork::set_loss_override(const net::GilbertElliottLoss::Params& params) {
  loss_override_ = params;
  if (!down_state_) install_loss_models();
}

void AccessNetwork::clear_loss_override() {
  loss_override_.reset();
  if (!down_state_) install_loss_models();
}

void AccessNetwork::install_loss_models() {
  const std::string base = profile_.name + ".loss";
  if (loss_override_) {
    down_->set_loss_model(std::make_unique<net::GilbertElliottLoss>(
        *loss_override_, sim_.rng(base + ".down.fault")));
  } else if (profile_.ge_down) {
    down_->set_loss_model(std::make_unique<net::GilbertElliottLoss>(
        *profile_.ge_down, sim_.rng(base + ".down")));
  } else if (profile_.loss_down > 0.0) {
    down_->set_loss_model(
        std::make_unique<net::BernoulliLoss>(profile_.loss_down, sim_.rng(base + ".down")));
  } else {
    down_->set_loss_model(std::make_unique<net::NoLoss>());
  }
  if (profile_.loss_up > 0.0) {
    up_->set_loss_model(
        std::make_unique<net::BernoulliLoss>(profile_.loss_up, sim_.rng(base + ".up")));
  } else {
    up_->set_loss_model(std::make_unique<net::NoLoss>());
  }
}

void AccessNetwork::set_down(bool down) {
  if (down == down_state_) return;
  down_state_ = down;
  if (down) {
    up_->set_loss_model(std::make_unique<net::AlwaysDrop>());
    down_->set_loss_model(std::make_unique<net::AlwaysDrop>());
  } else {
    install_loss_models();
  }
}

AccessProfile wifi_home() {
  AccessProfile p;
  p.name = "wifi_home";
  p.down_rate_bps = 22e6;
  p.up_rate_bps = 5e6;
  p.rate_sigma = 0.15;
  p.rate_max_factor = 1.3;
  p.rate_resample = sim::Duration::millis(100);
  p.owd = sim::Duration::millis(9);
  p.queue_down_bytes = 96 * 1024;
  p.queue_up_bytes = 48 * 1024;
  // Bursty WiFi loss, long-run average ~1.5% (bursts keep the number of
  // congestion events low relative to the packet loss rate, as on real APs).
  p.ge_down = net::GilbertElliottLoss::Params{
      .p_good_to_bad = 0.003, .p_bad_to_good = 0.25, .loss_good = 0.004, .loss_bad = 0.4};
  p.loss_up = 0.003;
  p.power = RadioPowerProfile::wifi();
  // Neighbours on the same AP/backhaul: bursts congest the AP queue, adding
  // genuinely congestive loss and the 30-55 ms RTTs of Tables 2/3.
  p.background = BackgroundTraffic::Config{
      .on_utilization = 0.55, .on_fraction = 0.3, .mean_on = sim::Duration::from_seconds(1)};
  return p;
}

AccessProfile wifi_hotspot() {
  AccessProfile p = wifi_home();
  p.name = "wifi_hotspot";
  p.down_rate_bps = 15e6;
  p.up_rate_bps = 4e6;
  p.rate_sigma = 0.35;
  p.owd = sim::Duration::millis(8);
  // Lossier radio environment (many stations, contention): ~3-5%.
  p.ge_down = net::GilbertElliottLoss::Params{
      .p_good_to_bad = 0.015, .p_bad_to_good = 0.2, .loss_good = 0.018, .loss_bad = 0.3};
  p.loss_up = 0.008;
  // 15-20 customers sharing the AP.
  p.background =
      BackgroundTraffic::Config{.on_utilization = 0.75, .on_fraction = 0.6,
                                .mean_on = sim::Duration::seconds(3)};
  p.bg_up_utilization = 0.2;
  return p;
}

AccessProfile att_lte() {
  AccessProfile p;
  p.name = "att_lte";
  p.down_rate_bps = 16e6;
  p.up_rate_bps = 8e6;
  p.rate_sigma = 1.0;
  p.rate_run_sigma = 0.25;
  p.rate_resample = sim::Duration::millis(1100);
  p.owd = sim::Duration::millis(28);
  p.queue_down_bytes = 640 * 1024;  // deep RAN buffer, essentially no loss
  p.queue_up_bytes = 256 * 1024;
  p.loss_down = 0.00005;
  p.arq = ArqDelayModel::Config{
      .retx_prob = 0.06, .round_delay = sim::Duration::millis(10), .max_rounds = 3};
  // Other users sharing the cell: standing queueing delay independent of
  // this flow's window (the RAN bufferbloat of §5.1).
  p.background = BackgroundTraffic::Config{
      .on_utilization = 0.3, .on_fraction = 0.35, .mean_on = sim::Duration::from_seconds(2)};
  p.has_rrc = true;
  p.rrc = RrcStateMachine::Config{.promotion_delay = sim::Duration::millis(300),
                                  .idle_timeout = sim::Duration::seconds(10)};
  p.power = RadioPowerProfile::lte();
  return p;
}

AccessProfile verizon_lte() {
  AccessProfile p;
  p.name = "verizon_lte";
  p.down_rate_bps = 5.5e6;
  p.up_rate_bps = 3e6;
  p.rate_sigma = 1.0;   // much higher rate variability than AT&T...
  p.rate_run_sigma = 0.7;  // ...and a wide spread across locations/days
  p.rate_resample = sim::Duration::millis(1500);
  p.owd = sim::Duration::millis(15);  // smaller base RTT than AT&T (Fig 12)
  p.queue_down_bytes = 896 * 1024;  // ~0.7s at nominal rate; seconds during dips
  p.queue_up_bytes = 128 * 1024;
  p.loss_down = 0.0001;
  p.arq = ArqDelayModel::Config{
      .retx_prob = 0.08, .round_delay = sim::Duration::millis(15), .max_rounds = 4};
  p.background = BackgroundTraffic::Config{
      .on_utilization = 0.3, .on_fraction = 0.4, .mean_on = sim::Duration::from_seconds(3)};
  p.has_rrc = true;
  p.rrc = RrcStateMachine::Config{.promotion_delay = sim::Duration::millis(350),
                                  .idle_timeout = sim::Duration::seconds(10)};
  p.power = RadioPowerProfile::lte();
  return p;
}

AccessProfile sprint_evdo() {
  AccessProfile p;
  p.name = "sprint_evdo";
  p.down_rate_bps = 1.3e6;
  p.up_rate_bps = 0.4e6;
  p.rate_sigma = 1.2;
  p.rate_run_sigma = 0.45;
  p.rate_resample = sim::Duration::millis(2000);
  p.owd = sim::Duration::millis(24);  // min RTT ~50ms (Fig 12) ...
  p.queue_down_bytes = 384 * 1024;  // ... but queueing dominates: seconds of buffer
  p.queue_up_bytes = 64 * 1024;
  // Residual loss the link-layer ARQ cannot hide (weak signal, RLP give-up),
  // bursty; with the path's long RTT these bursts often cost an RTO.
  p.ge_down = net::GilbertElliottLoss::Params{
      .p_good_to_bad = 0.006, .p_bad_to_good = 0.3, .loss_good = 0.002, .loss_bad = 0.25};
  p.loss_down = 0.0;
  p.arq = ArqDelayModel::Config{
      .retx_prob = 0.22, .round_delay = sim::Duration::millis(80), .max_rounds = 5};
  p.background = BackgroundTraffic::Config{
      .on_utilization = 0.4, .on_fraction = 0.5, .mean_on = sim::Duration::from_seconds(3)};
  p.has_rrc = true;
  p.rrc = RrcStateMachine::Config{.promotion_delay = sim::Duration::millis(1500),
                                  .idle_timeout = sim::Duration::seconds(5)};
  p.power = RadioPowerProfile::evdo_3g();
  return p;
}

}  // namespace mpr::netem
