// Radio energy accounting (the paper's §6 future work: "the relationship
// between the desired MPTCP performance gain and the additional energy
// cost" of driving a second interface).
//
// Device-centric model in the style of Huang et al. (MobiSys'12): a radio
// burns `active` power during its own packets' airtime, stays in a
// high-power `tail` state for `tail_time` after the last activity
// (RRC/PSM inactivity timers), and `idle` power otherwise.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.h"

namespace mpr::netem {

struct RadioPowerProfile {
  double idle_mw{10.0};
  double active_mw{400.0};
  double tail_mw{120.0};
  sim::Duration tail_time{sim::Duration::millis(200)};

  /// Presets per technology (Huang et al., MobiSys'12 measurements).
  [[nodiscard]] static RadioPowerProfile wifi() {
    return RadioPowerProfile{.idle_mw = 10, .active_mw = 400, .tail_mw = 120,
                             .tail_time = sim::Duration::millis(200)};
  }
  [[nodiscard]] static RadioPowerProfile lte() {
    return RadioPowerProfile{.idle_mw = 11, .active_mw = 1300, .tail_mw = 1060,
                             .tail_time = sim::Duration::from_seconds(11.6)};
  }
  [[nodiscard]] static RadioPowerProfile evdo_3g() {
    return RadioPowerProfile{.idle_mw = 10, .active_mw = 800, .tail_mw = 600,
                             .tail_time = sim::Duration::from_seconds(8.0)};
  }
};

/// Streaming energy integrator. Feed packet activity in time order (the
/// network observer guarantees this); read the total with energy_joules().
class EnergyMeter {
 public:
  explicit EnergyMeter(RadioPowerProfile profile) : profile_{profile} {}

  /// Records one packet worth of radio activity starting at `t` lasting
  /// `airtime` (serialization time at the access rate).
  void note_activity(sim::TimePoint t, sim::Duration airtime) {
    if (!started_) {
      started_ = true;
      active_until_ = t;
    }
    if (t > active_until_) {
      // Gap since the previous activity: tail then idle.
      const sim::Duration gap = t - active_until_;
      const sim::Duration tail = std::min(gap, profile_.tail_time);
      tail_acc_ += tail;
      idle_acc_ += gap - tail;
      active_until_ = t;
    }
    // Activity periods can overlap (queued back-to-back packets).
    const sim::TimePoint end = std::max(active_until_, t) + airtime;
    active_acc_ += end - active_until_;
    active_until_ = end;
  }

  /// Total energy from the first activity until `end` (which must be >= the
  /// last activity), including the final tail.
  [[nodiscard]] double energy_joules(sim::TimePoint end) const {
    if (!started_) return 0.0;
    sim::Duration active = active_acc_;
    sim::Duration tail = tail_acc_;
    sim::Duration idle = idle_acc_;
    if (end > active_until_) {
      const sim::Duration gap = end - active_until_;
      const sim::Duration t = std::min(gap, profile_.tail_time);
      tail += t;
      idle += gap - t;
    }
    return (profile_.active_mw * active.to_seconds() + profile_.tail_mw * tail.to_seconds() +
            profile_.idle_mw * idle.to_seconds()) *
           1e-3;
  }

  /// Total energy through the end of the final tail (the radio's full cost
  /// of the recorded activity, however long the simulation ran after it).
  [[nodiscard]] double energy_joules_total() const {
    if (!started_) return 0.0;
    return energy_joules(active_until_ + profile_.tail_time);
  }

  [[nodiscard]] sim::Duration active_time() const { return active_acc_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const RadioPowerProfile& profile() const { return profile_; }

 private:
  RadioPowerProfile profile_;
  bool started_{false};
  sim::TimePoint active_until_{};
  sim::Duration active_acc_{};
  sim::Duration tail_acc_{};
  sim::Duration idle_acc_{};
};

}  // namespace mpr::netem
