// Scripted fault injection: a deterministic scenario timeline applied to
// named access networks at fixed simulation times.
//
// The paper's most interesting MPTCP behaviour happens when a path
// misbehaves — bursty WiFi loss, the loaded coffee-shop hotspot, the §6
// walk-out-of-range story. A FaultSchedule scripts those episodes:
//
//   * outage / restore      — blackout (every packet dropped) and recovery
//   * rate                  — step the link's service rate (× factor)
//   * delay                 — add fixed extra one-way delay
//   * burstloss / lossclear — Gilbert-Elliott episode overriding the
//                             profile's wire-loss model
//   * ifdown / ifup         — interface removal/return: blackout plus
//                             REMOVE_ADDR / re-join at the MPTCP client
//   * mbox <sub>            — middlebox interference on the link
//                             (netem::Middlebox): strip_syn | strip_join |
//                             strip_all | nat_seq <off> | split <n> |
//                             coalesce <hold_ms> | corrupt <n> | off
//   * sched <name> [w...]   — switch the MPTCP dispatch strategy at runtime
//                             (minrtt | rr | roundrobin | weighted |
//                             redundant; weighted takes per-subflow shares).
//                             Connection-level, so the link column is the
//                             pseudo-link "conn".
//
// Schedules are plain data (value type) and are replayed per run on that
// run's simulation clock, so the PR 1 determinism guarantee holds: the same
// seed and schedule produce bit-identical results at any MPR_JOBS.
//
// Scenario text format (`FaultSchedule::parse`, `mpr_run --scenario`):
// one event per line, `#` starts a comment:
//
//   # time_s  link  action     [args]
//   2.0       wifi  outage
//   12.0      wifi  restore
//   3.0       cell  rate       0.25                 # × nominal rate
//   4.0       cell  delay      120                  # +ms one-way, both dirs
//   6.0       wifi  burstloss  0.01 0.3 0.02 0.4    # p_g2b p_b2g loss_g loss_b
//   9.0       wifi  lossclear
//   20.0      wifi  ifdown
//   30.0      wifi  ifup
//   0.0       wifi  mbox strip_syn
//   0.0       cell  mbox corrupt 4
//   5.0       conn  sched weighted 2 1
//   15.0      conn  sched redundant
#pragma once

#include <initializer_list>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "netem/access.h"
#include "sim/time.h"

namespace mpr::netem {

struct FaultEvent {
  enum class Kind {
    kOutage,     // blackout: swap in AlwaysDrop on both directions
    kRestore,    // undo kOutage: reinstall the configured loss behaviour
    kRateScale,  // multiply both directions' service rate by `a`
    kDelayAdd,   // set extra one-way delay to `a` ms on both directions
    kBurstLoss,  // Gilbert-Elliott downlink episode: a,b,c,d = params
    kLossClear,  // end a kBurstLoss episode
    kIfaceDown,  // interface removal: outage + REMOVE_ADDR at the client
    kIfaceUp,    // interface return: restore + re-join at the client
    kMiddlebox,  // configure the link's netem::Middlebox (`arg` = subcommand)
    kScheduler,  // switch the MPTCP dispatch strategy (`arg` = name,
                 // `weights` = per-subflow shares; link is "conn")
  };

  sim::Duration at;  // relative to the start of the run
  std::string link;  // schedule-level link name ("wifi", "cell", ...)
  Kind kind{Kind::kOutage};
  double a{0}, b{0}, c{0}, d{0};
  std::string arg{};  // kMiddlebox subcommand (strip_syn, ...) / kScheduler name
  std::vector<double> weights{};  // kScheduler: weighted-strategy shares
};

/// An ordered scenario timeline. Value type: copy it into a RunConfig and
/// every repetition replays the same script on its own simulation.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule& add(FaultEvent ev);

  // Convenience builders (times in seconds from installation).
  FaultSchedule& outage(double at_s, std::string link);
  FaultSchedule& restore(double at_s, std::string link);
  FaultSchedule& rate_scale(double at_s, std::string link, double factor);
  FaultSchedule& delay_add(double at_s, std::string link, double extra_ms);
  FaultSchedule& burst_loss(double at_s, std::string link,
                            net::GilbertElliottLoss::Params params);
  FaultSchedule& loss_clear(double at_s, std::string link);
  FaultSchedule& iface_down(double at_s, std::string link);
  FaultSchedule& iface_up(double at_s, std::string link);
  /// `spec` is an mbox subcommand (strip_syn | strip_join | strip_all |
  /// nat_seq | split | coalesce | corrupt | off); `a` its numeric argument.
  FaultSchedule& middlebox(double at_s, std::string link, std::string spec, double a = 0);
  /// Connection-level strategy switch (pseudo-link "conn"): `name` is a
  /// scheduler name (minrtt | rr | roundrobin | weighted | redundant),
  /// `weights` the weighted strategy's per-subflow shares.
  FaultSchedule& scheduler_change(double at_s, std::string name,
                                  std::vector<double> weights = {});

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Parses the scenario text format (see file header). On failure returns
  /// an empty schedule and, if `error` is non-null, a "line N: ..."
  /// description.
  [[nodiscard]] static FaultSchedule parse(std::istream& in, std::string* error = nullptr);
  [[nodiscard]] static FaultSchedule parse_file(const std::string& path,
                                               std::string* error = nullptr);

  /// Link names this schedule references that are not in `known` (after the
  /// usual aliasing, e.g. "cellular" -> "cell"). A harness should treat a
  /// non-empty result as a scenario error, not a silent typo.
  [[nodiscard]] std::vector<std::string> unknown_links(
      std::initializer_list<std::string_view> known) const;

 private:
  std::vector<FaultEvent> events_;
};

/// Applies the netem half of `ev` to `access`: everything but the stack's
/// reaction to ifdown / ifup, which experiment::Session adds. A `sched`
/// event has no netem half.
void apply(AccessNetwork& access, const FaultEvent& ev);

}  // namespace mpr::netem
