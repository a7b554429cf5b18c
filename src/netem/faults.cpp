#include "netem/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace mpr::netem {

namespace {

// Schedule-level link aliases: scenario files may say "cellular" for the
// name the harness knows as "cell". Takes the string by reference (GCC 12
// mis-diagnoses the by-value + move form as maybe-uninitialized when
// inlined).
void normalize_link(std::string& link) {
  if (link == "cellular") link = "cell";
}

}  // namespace

FaultSchedule& FaultSchedule::add(FaultEvent ev) {
  normalize_link(ev.link);
  events_.push_back(std::move(ev));
  return *this;
}

FaultSchedule& FaultSchedule::outage(double at_s, std::string link) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kOutage});
}

FaultSchedule& FaultSchedule::restore(double at_s, std::string link) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kRestore});
}

FaultSchedule& FaultSchedule::rate_scale(double at_s, std::string link, double factor) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kRateScale,
              .a = factor});
}

FaultSchedule& FaultSchedule::delay_add(double at_s, std::string link, double extra_ms) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kDelayAdd,
              .a = extra_ms});
}

FaultSchedule& FaultSchedule::burst_loss(double at_s, std::string link,
                                         net::GilbertElliottLoss::Params params) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kBurstLoss,
              .a = params.p_good_to_bad,
              .b = params.p_bad_to_good,
              .c = params.loss_good,
              .d = params.loss_bad});
}

FaultSchedule& FaultSchedule::loss_clear(double at_s, std::string link) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kLossClear});
}

FaultSchedule& FaultSchedule::iface_down(double at_s, std::string link) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kIfaceDown});
}

FaultSchedule& FaultSchedule::iface_up(double at_s, std::string link) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kIfaceUp});
}

FaultSchedule& FaultSchedule::middlebox(double at_s, std::string link, std::string spec,
                                        double a) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = std::move(link),
              .kind = FaultEvent::Kind::kMiddlebox,
              .a = a,
              .arg = std::move(spec)});
}

FaultSchedule& FaultSchedule::scheduler_change(double at_s, std::string name,
                                               std::vector<double> weights) {
  return add({.at = sim::Duration::from_seconds(at_s),
              .link = "conn",
              .kind = FaultEvent::Kind::kScheduler,
              .arg = std::move(name),
              .weights = std::move(weights)});
}

std::vector<std::string> FaultSchedule::unknown_links(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> out;
  for (const FaultEvent& ev : events_) {
    // Connection-level events use the pseudo-link "conn", never bound to an
    // access network.
    if (ev.kind == FaultEvent::Kind::kScheduler) continue;
    const bool bound = std::any_of(known.begin(), known.end(),
                                   [&](std::string_view k) { return ev.link == k; });
    if (!bound && std::find(out.begin(), out.end(), ev.link) == out.end()) {
      out.push_back(ev.link);
    }
  }
  return out;
}

FaultSchedule FaultSchedule::parse(std::istream& in, std::string* error) {
  auto fail = [&](int line_no, const std::string& what) {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + what;
    return FaultSchedule{};
  };

  FaultSchedule out;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream tok{line};
    std::string first;
    if (!(tok >> first)) continue;  // blank / comment-only line
    double at_s = 0;
    std::istringstream num{first};
    if (!(num >> at_s) || !num.eof()) return fail(line_no, "bad event time '" + first + "'");
    std::string link, action;
    if (!(tok >> link >> action)) return fail(line_no, "expected '<time_s> <link> <action>'");
    if (at_s < 0) return fail(line_no, "negative event time");
    if (at_s > sim::kMaxInputSeconds) return fail(line_no, "event time beyond 1e9 s");

    // "mbox" and "sched" take a textual subcommand before their numeric
    // arguments.
    std::string sub;
    if ((action == "mbox" || action == "sched") && !(tok >> sub)) {
      return fail(line_no, action == "mbox"
                               ? "mbox needs a subcommand (strip_syn, nat_seq, split, ...)"
                               : "sched needs a strategy (minrtt, rr, weighted, redundant)");
    }

    // Each argument must be one whole number: streaming doubles straight
    // off the line would drop an overflowing last one (1e309) silently.
    std::vector<double> args;
    for (std::string word; tok >> word;) {
      double v = 0;
      std::istringstream arg{word};
      if (!(arg >> v) || !arg.eof()) return fail(line_no, "non-numeric argument '" + word + "'");
      args.push_back(v);
    }

    auto need = [&](std::size_t n) { return args.size() == n; };
    // Millisecond arguments become sim::Duration when the event applies.
    auto ms_ok = [](double ms) { return ms >= 0 && ms <= sim::kMaxInputSeconds * 1e3; };
    // Middlebox counts and offsets are integers; apply() would truncate
    // a fraction.
    auto whole = [](double v) { return std::floor(v) == v; };
    if (action == "outage" || action == "blackout") {
      if (!need(0)) return fail(line_no, "outage takes no arguments");
      out.outage(at_s, link);
    } else if (action == "restore") {
      if (!need(0)) return fail(line_no, "restore takes no arguments");
      out.restore(at_s, link);
    } else if (action == "rate") {
      if (!need(1) || args[0] <= 0) return fail(line_no, "rate needs one factor > 0");
      out.rate_scale(at_s, link, args[0]);
    } else if (action == "delay") {
      if (!need(1) || !ms_ok(args[0])) return fail(line_no, "delay needs extra ms in [0, 1e12]");
      out.delay_add(at_s, link, args[0]);
    } else if (action == "burstloss") {
      if (!need(4)) return fail(line_no, "burstloss needs p_g2b p_b2g loss_g loss_b");
      for (double p : args) {
        if (p < 0 || p > 1) return fail(line_no, "burstloss parameters must be in [0,1]");
      }
      out.burst_loss(at_s, link,
                     {.p_good_to_bad = args[0],
                      .p_bad_to_good = args[1],
                      .loss_good = args[2],
                      .loss_bad = args[3]});
    } else if (action == "lossclear") {
      if (!need(0)) return fail(line_no, "lossclear takes no arguments");
      out.loss_clear(at_s, link);
    } else if (action == "ifdown") {
      if (!need(0)) return fail(line_no, "ifdown takes no arguments");
      out.iface_down(at_s, link);
    } else if (action == "ifup") {
      if (!need(0)) return fail(line_no, "ifup takes no arguments");
      out.iface_up(at_s, link);
    } else if (action == "mbox") {
      if (sub == "strip_syn" || sub == "strip_join" || sub == "strip_all" || sub == "off") {
        if (!need(0)) return fail(line_no, "mbox " + sub + " takes no arguments");
        out.middlebox(at_s, link, sub);
      } else if (sub == "nat_seq") {
        // The offset is read as a double: from 2^53 on, the text no longer
        // names one integer (9007199254740993 reads as 2^53).
        if (!need(1) || !whole(args[0]) || args[0] < 0 || args[0] >= 0x1p53) {
          return fail(line_no, "mbox nat_seq needs a whole offset in [0, 2^53)");
        }
        out.middlebox(at_s, link, sub, args[0]);
      } else if (sub == "split" || sub == "corrupt") {
        if (!need(1) || !whole(args[0]) || args[0] < 1 ||
            args[0] > std::numeric_limits<std::uint32_t>::max()) {
          return fail(line_no, "mbox " + sub + " needs a whole every-n count in [1, 2^32)");
        }
        out.middlebox(at_s, link, sub, args[0]);
      } else if (sub == "coalesce") {
        if (!need(1) || !ms_ok(args[0])) {
          return fail(line_no, "mbox coalesce needs hold ms in [0, 1e12]");
        }
        out.middlebox(at_s, link, sub, args[0]);
      } else {
        return fail(line_no, "unknown mbox subcommand '" + sub + "'");
      }
    } else if (action == "sched") {
      if (link != "conn") {
        return fail(line_no, "sched is connection-level: use the pseudo-link 'conn'");
      }
      // The strategy name set is duplicated here (netem cannot see
      // core::scheduler_from_string); the harness revalidates on apply.
      if (sub != "minrtt" && sub != "rr" && sub != "roundrobin" && sub != "weighted" &&
          sub != "redundant") {
        return fail(line_no, "unknown scheduler '" + sub + "'");
      }
      if (sub != "weighted" && !need(0)) {
        return fail(line_no, "sched " + sub + " takes no weights");
      }
      for (double w : args) {
        if (w <= 0) return fail(line_no, "sched weights must be > 0");
      }
      out.scheduler_change(at_s, sub, args);
    } else {
      return fail(line_no, "unknown action '" + action + "'");
    }
  }
  if (error != nullptr) error->clear();
  return out;
}

FaultSchedule FaultSchedule::parse_file(const std::string& path, std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return FaultSchedule{};
  }
  return parse(in, error);
}

void apply(AccessNetwork& access, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kOutage:
    case FaultEvent::Kind::kIfaceDown:
      access.set_down(true);
      break;
    case FaultEvent::Kind::kRestore:
    case FaultEvent::Kind::kIfaceUp:
      access.set_down(false);
      break;
    case FaultEvent::Kind::kRateScale:
      access.set_rate_scale(ev.a);
      break;
    case FaultEvent::Kind::kDelayAdd:
      access.set_fault_extra_delay(sim::Duration::from_millis(ev.a));
      break;
    case FaultEvent::Kind::kBurstLoss:
      access.set_loss_override({.p_good_to_bad = ev.a,
                                .p_bad_to_good = ev.b,
                                .loss_good = ev.c,
                                .loss_bad = ev.d});
      break;
    case FaultEvent::Kind::kLossClear:
      access.clear_loss_override();
      break;
    case FaultEvent::Kind::kMiddlebox: {
      Middlebox& m = access.middlebox();
      if (ev.arg == "strip_syn") {
        m.set_strip(Middlebox::Strip::kSyn);
      } else if (ev.arg == "strip_join") {
        m.set_strip(Middlebox::Strip::kJoin);
      } else if (ev.arg == "strip_all") {
        m.set_strip(Middlebox::Strip::kAll);
      } else if (ev.arg == "nat_seq") {
        m.set_nat_seq(static_cast<std::uint64_t>(ev.a));
      } else if (ev.arg == "split") {
        m.set_split_every(static_cast<std::uint32_t>(ev.a));
      } else if (ev.arg == "coalesce") {
        m.set_coalesce_hold(sim::Duration::from_millis(ev.a));
      } else if (ev.arg == "corrupt") {
        m.set_corrupt_every(static_cast<std::uint32_t>(ev.a));
      } else if (ev.arg == "off") {
        m.reset_behaviour();
      }
      break;
    }
    case FaultEvent::Kind::kScheduler:
      break;  // connection-level
  }
}

}  // namespace mpr::netem
