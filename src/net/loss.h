// Packet loss models applied by links on the wire (after queueing).
//
// Wireless losses are congestion-independent, which is exactly why TCP over
// WiFi underperforms (it misreads them as congestion) — the central WiFi
// characteristic in the paper. Two models:
//   * BernoulliLoss      — i.i.d. loss with fixed probability.
//   * GilbertElliottLoss — two-state bursty loss (good/bad channel).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/rng.h"

namespace mpr::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if the packet should be dropped on the wire.
  [[nodiscard]] virtual bool should_drop() = 0;
};

/// No loss. Useful default.
class NoLoss final : public LossModel {
 public:
  [[nodiscard]] bool should_drop() override { return false; }
};

/// Drops everything: a failed link/radio (out of range, interface down).
class AlwaysDrop final : public LossModel {
 public:
  [[nodiscard]] bool should_drop() override { return true; }
};

class BernoulliLoss final : public LossModel {
 public:
  BernoulliLoss(double probability, sim::Rng rng)
      : gate_{probability}, rng_{std::move(rng)} {}

  [[nodiscard]] bool should_drop() override { return gate_.sample(rng_); }

 private:
  sim::BernoulliGate gate_;
  sim::Rng rng_;
};

/// Classic Gilbert-Elliott channel: the chain moves between a good state with
/// loss probability `loss_good` and a bad state with `loss_bad`; transition
/// probabilities are evaluated per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good_to_bad{0.005};
    double p_bad_to_good{0.3};
    double loss_good{0.002};
    double loss_bad{0.25};
  };

  GilbertElliottLoss(Params params, sim::Rng rng)
      : params_{params},
        good_to_bad_{params.p_good_to_bad},
        bad_to_good_{params.p_bad_to_good},
        loss_good_{params.loss_good},
        loss_bad_{params.loss_bad},
        rng_{std::move(rng)} {}

  [[nodiscard]] bool should_drop() override {
    if (bad_) {
      if (bad_to_good_.sample(rng_)) bad_ = false;
    } else {
      if (good_to_bad_.sample(rng_)) bad_ = true;
    }
    return (bad_ ? loss_bad_ : loss_good_).sample(rng_);
  }

  /// Long-run average loss probability (for calibration/tests).
  [[nodiscard]] double steady_state_loss() const {
    const double pi_bad =
        params_.p_good_to_bad / (params_.p_good_to_bad + params_.p_bad_to_good);
    return pi_bad * params_.loss_bad + (1.0 - pi_bad) * params_.loss_good;
  }

 private:
  Params params_;
  // The four probabilities re-tested on every packet, with their
  // degenerate-p classification done once (sim::BernoulliGate).
  sim::BernoulliGate good_to_bad_;
  sim::BernoulliGate bad_to_good_;
  sim::BernoulliGate loss_good_;
  sim::BernoulliGate loss_bad_;
  sim::Rng rng_;
  bool bad_{false};
};

}  // namespace mpr::net
