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
//   * ifdown / ifup         — interface removal/return: blackout plus a
//                             notification the harness turns into
//                             REMOVE_ADDR / re-join at the MPTCP client
//   * mbox <sub>            — middlebox interference on the link
//                             (netem::Middlebox): strip_syn | strip_join |
//                             strip_all | nat_seq <off> | split <n> |
//                             coalesce <hold_ms> | corrupt <n> | off
//   * sched <name> [w...]   — switch the MPTCP dispatch strategy at runtime
//                             (minrtt | rr | roundrobin | weighted |
//                             redundant; weighted takes per-subflow shares).
//                             Connection-level, so the link column is the
//                             pseudo-link "conn"; the harness wires
//                             on_scheduler_change to the MPTCP stack.
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

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <istream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "netem/access.h"
#include "sim/simulation.h"

namespace mpr::netem {

struct FaultEvent {
  enum class Kind {
    kOutage,     // blackout: swap in AlwaysDrop on both directions
    kRestore,    // undo kOutage: reinstall the configured loss behaviour
    kRateScale,  // multiply both directions' service rate by `a`
    kDelayAdd,   // set extra one-way delay to `a` ms on both directions
    kBurstLoss,  // Gilbert-Elliott downlink episode: a,b,c,d = params
    kLossClear,  // end a kBurstLoss episode
    kIfaceDown,  // interface removal: outage + on_iface_down notification
    kIfaceUp,    // interface return: restore + on_iface_up notification
    kMiddlebox,  // configure the link's netem::Middlebox (`arg` = subcommand)
    kScheduler,  // switch the MPTCP dispatch strategy (`arg` = name,
                 // `weights` = per-subflow shares; link is "conn")
  };

  sim::Duration at;  // relative to FaultInjector::install()
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

/// Binds a schedule to the access networks of one testbed and replays it on
/// that testbed's simulation clock. Non-owning: the simulation and every
/// bound AccessNetwork must outlive the injector's scheduled events.
class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulation& sim) : sim_{sim} {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers `access` under the schedule-level link name.
  void bind(std::string name, AccessNetwork* access);

  /// The stack's reaction to interface events (REMOVE_ADDR / re-join at the
  /// MPTCP client) lives above netem; the harness wires these. The netem
  /// part (blackout/restore) is applied by the injector either way.
  std::function<void(const std::string& link)> on_iface_down;
  std::function<void(const std::string& link)> on_iface_up;
  /// Connection-level scheduler switch (`sched` events). String-based so
  /// netem stays independent of core: the harness resolves `name` with
  /// core::scheduler_from_string and applies it to its MPTCP connections.
  std::function<void(const std::string& name, const std::vector<double>& weights)>
      on_scheduler_change;

  /// Schedules every event of `schedule` at `now + event.at`.
  void install(const FaultSchedule& schedule);

  [[nodiscard]] std::uint64_t applied_events() const { return applied_; }
  /// Events that named a link no bind() call registered (scenario typo).
  [[nodiscard]] std::uint64_t unmatched_events() const { return unmatched_; }

 private:
  void apply(const FaultEvent& ev);

  sim::Simulation& sim_;
  // Ordered: keeps any future link-set iteration (diagnostics, teardown)
  // deterministic by name (mpr-lint unordered-iter).
  std::map<std::string, AccessNetwork*, std::less<>> links_;
  /// Installed events, referenced by index from the scheduled actions — a
  /// FaultEvent is too large for the event queue's inline action storage.
  std::vector<FaultEvent> installed_;
  std::uint64_t applied_{0};
  std::uint64_t unmatched_{0};
};

}  // namespace mpr::netem
