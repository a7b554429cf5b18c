// mpr_trace — run one download with packet capture and dump the trace, as
// tcpdump-style text or as a .pcap file openable in Wireshark.
//
//   mpr_trace --mode mp2 --size 512k                 # text to stdout
//   mpr_trace --size 1m --pcap out.pcap              # deliveries as pcap
//   mpr_trace --pcap out.pcap --capture send         # sender-side capture
//
// Takes mpr_run's single-run flags (--mode, --carrier, --cc, --sched,
// --size, --seed, --hotspot, --scenario, ...; see tools/mpr_run.cpp) and
// traces the run `mpr_run` reports for them: its `mpr_run --json` line goes
// to stderr. Only --reps, --jobs and --json are mpr_run's alone. Any flag
// not named here or there, or a positional argument, exits 1.
#include <cstdio>
#include <optional>
#include <string>

#include "analysis/pcap.h"
#include "cli_flags.h"
#include "experiment/run.h"
#include "run_flags.h"

using namespace mpr;

int main(int argc, char** argv) {
  const tools::Flags flags{"mpr_trace", argc, argv};
  std::optional<tools::RunFlags> parsed = tools::parse_run_flags(flags, "mpr_trace");
  if (!parsed) return 1;
  const bool pcap = flags.has("pcap");
  const std::string pcap_path = flags.get("pcap");
  const auto capture = flags.get_choice(
      "mpr_trace", "capture", "deliver",
      [](const std::string& v) -> std::optional<net::TraceEvent::Kind> {
        if (v == "send") return net::TraceEvent::Kind::kSend;
        if (v == "deliver") return net::TraceEvent::Kind::kDeliver;
        return std::nullopt;
      },
      "send or deliver");
  if (!capture) return 1;
  // The text dump prints every record kind, so --capture picks only what
  // goes into the pcap file.
  if (flags.has("capture") && !pcap) {
    std::fprintf(stderr, "mpr_trace: --capture needs --pcap\n");
    return 1;
  }
  if (!flags.all_read("mpr_trace")) return 1;
  parsed->testbed.capture_trace = true;

  experiment::Session session{parsed->testbed, parsed->run};
  tools::print_run_json(stderr, session.run());
  const analysis::PacketTrace& trace = *session.testbed().trace();
  std::fprintf(stderr, "%zu trace records\n", trace.size());

  if (pcap) {
    analysis::PcapWriteOptions opts;
    opts.kind = *capture;
    if (!analysis::write_pcap(trace, pcap_path, opts)) {
      std::fprintf(stderr, "failed to write %s\n", pcap_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", pcap_path.c_str());
    return 0;
  }

  // tcpdump-style text dump.
  for (const analysis::TraceRecord& r : trace.records()) {
    const char* kind = r.kind == net::TraceEvent::Kind::kSend      ? "snd"
                       : r.kind == net::TraceEvent::Kind::kDeliver ? "rcv"
                                                                   : "drp";
    std::string fl;
    if ((r.flags & net::kFlagSyn) != 0) fl += 'S';
    if ((r.flags & net::kFlagFin) != 0) fl += 'F';
    if ((r.flags & net::kFlagAck) != 0) fl += '.';
    std::printf("%12.6f %s %s:%u > %s:%u [%s] seq %llu ack %llu len %u%s%s\n",
                r.time.to_seconds(), kind, net::to_string(r.flow.src.addr).c_str(),
                r.flow.src.port, net::to_string(r.flow.dst.addr).c_str(), r.flow.dst.port,
                fl.c_str(), static_cast<unsigned long long>(r.seq),
                static_cast<unsigned long long>(r.ack), r.payload,
                r.dss ? " dss" : "", r.is_retransmit ? " rexmit" : "");
  }
  return 0;
}
