// The single-run flags of mpr_run and mpr_trace, parsed by one function so
// both tools configure the same run, and the JSON line both print for it.
// The flags are listed in the header of tools/mpr_run.cpp.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "experiment/carriers.h"
#include "experiment/run.h"

namespace mpr::tools {

struct RunFlags {
  experiment::TestbedConfig testbed;
  experiment::RunConfig run;
};

/// Parses `--sched` (name, optionally `weighted:w1,w2,...`) into the config.
/// Returns false on an unknown name or malformed weight list; each weight
/// is one whole finite number > 0 (parse_number).
inline bool parse_sched(const std::string& spec, experiment::RunConfig& rc) {
  std::string name = spec;
  std::string weight_list;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    weight_list = spec.substr(colon + 1);
  }
  const auto kind = core::scheduler_from_string(name);
  if (!kind) return false;
  rc.scheduler = *kind;
  rc.scheduler_weights.clear();
  if (weight_list.empty()) return true;
  if (*kind != core::SchedulerKind::kWeighted) return false;
  std::size_t pos = 0;
  while (pos <= weight_list.size()) {
    const std::size_t comma = weight_list.find(',', pos);
    const std::string tok =
        weight_list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto w = parse_number(tok);
    if (!w || *w <= 0) return false;
    rc.scheduler_weights.push_back(*w);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !rc.scheduler_weights.empty();
}

/// The testbed and run the single-run flags describe. A bad value prints
/// "<tool>: --<flag> <value>: ..." to stderr and yields std::nullopt, so the
/// tool can exit 1 instead of guessing.
inline std::optional<RunFlags> parse_run_flags(const Flags& flags, const char* tool) {
  using namespace experiment;
  const auto carrier =
      flags.get_choice(tool, "carrier", "att", carrier_from_string, "att | verizon | sprint");
  const auto mode =
      flags.get_choice(tool, "mode", "mp2", mode_from_string, "sp-wifi | sp-cell | mp2 | mp4");
  const auto cc = flags.get_choice(tool, "cc", "coupled", core::cc_from_string,
                                   "coupled | olia | reno | vegas");
  const auto seed = flags.get_count(tool, "seed", 1, 0);
  if (!carrier || !mode || !cc || !seed) return std::nullopt;

  RunFlags out;
  TestbedConfig& tb = out.testbed;
  tb.seed = *seed;
  tb.wifi = flags.get_bool("hotspot") ? netem::wifi_hotspot() : netem::wifi_home();
  tb.cellular = carrier_profile(*carrier);
  tb.cellular.codel_downlink = flags.get_bool("codel");

  RunConfig& rc = out.run;
  rc.mode = *mode;
  rc.cc = *cc;
  if (const std::string sched = flags.get("sched", "minrtt"); !parse_sched(sched, rc)) {
    std::fprintf(stderr,
                 "%s: --sched %s: expected minrtt | rr | roundrobin | "
                 "weighted[:w1,w2,...] | redundant\n",
                 tool, sched.c_str());
    return std::nullopt;
  }
  const auto size = flags.get_size(tool, "size", 4 << 20);
  const auto max_events = flags.get_count(tool, "max-events", 0, 0);
  // 0 leaves the cap off, as in a campaign spec.
  const auto max_sim_time = flags.get_seconds(tool, "max-sim-time", 0, sim::kMaxInputSeconds);
  if (!size || !max_events || !max_sim_time) return std::nullopt;
  rc.file_bytes = *size;
  rc.max_events = *max_events;
  rc.max_sim_time = sim::Duration::from_seconds(*max_sim_time);
  rc.simultaneous_syns = flags.get_bool("simsyn");
  if (flags.get_bool("backup")) rc.backup_local_addrs = {kClientCellAddr};

  rc.dss_checksum = flags.get_bool("checksum");
  rc.checksum_teardown = flags.get_bool("teardown");
  rc.allow_tcp_fallback = !flags.get_bool("no-fallback");

  if (const std::string scenario = flags.get("scenario", ""); !scenario.empty()) {
    std::string error;
    rc.faults = netem::FaultSchedule::parse_file(scenario, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s: --scenario %s: %s\n", tool, scenario.c_str(), error.c_str());
      return std::nullopt;
    }
    // The testbed binds exactly two links; a typo'd link name would make the
    // schedule a silent no-op, so fail loudly instead.
    const std::vector<std::string> unbound = rc.faults.unknown_links({"wifi", "cell"});
    if (!unbound.empty()) {
      for (const std::string& l : unbound) {
        std::fprintf(stderr, "%s: --scenario %s: unknown link '%s' (bound: wifi, cell)\n", tool,
                     scenario.c_str(), l.c_str());
      }
      return std::nullopt;
    }
  }
  return out;
}

/// One run as the JSON line `mpr_run --json` prints.
inline void print_run_json(std::FILE* out, const experiment::RunResult& r) {
  std::fprintf(
      out,
      "{\"completed\":%s,\"outcome\":\"%s\",\"download_time_s\":%.6f,"
      "\"cellular_fraction\":%.4f,"
      "\"wifi\":{\"bytes\":%llu,\"loss\":%.5f,\"rtt_samples\":%zu},"
      "\"cellular\":{\"bytes\":%llu,\"loss\":%.5f,\"rtt_samples\":%zu},"
      "\"energy_j\":{\"wifi\":%.3f,\"cellular\":%.3f},"
      "\"reinjections\":%llu,\"redundant_chunks\":%llu,\"penalizations\":%llu}\n",
      r.completed ? "true" : "false", to_string(r.outcome).c_str(), r.download_time_s,
      r.cellular_fraction(),
      static_cast<unsigned long long>(r.wifi.bytes_received), r.wifi.loss_rate(),
      r.wifi.rtt_ms.size(), static_cast<unsigned long long>(r.cellular.bytes_received),
      r.cellular.loss_rate(), r.cellular.rtt_ms.size(), r.wifi_energy_j, r.cellular_energy_j,
      static_cast<unsigned long long>(r.reinjections),
      static_cast<unsigned long long>(r.redundant_chunks),
      static_cast<unsigned long long>(r.penalizations));
}

}  // namespace mpr::tools
