#include "experiment/run.h"

#include <memory>

#include "app/http.h"
#include "check/audit.h"
#include "netem/energy.h"

namespace mpr::experiment {

std::string to_string(PathMode m) {
  switch (m) {
    case PathMode::kSingleWifi: return "SP-WiFi";
    case PathMode::kSingleCellular: return "SP-Cell";
    case PathMode::kMptcp2: return "MP-2";
    case PathMode::kMptcp4: return "MP-4";
  }
  return "?";
}

std::optional<PathMode> mode_from_string(const std::string& s) {
  if (s == "sp-wifi") return PathMode::kSingleWifi;
  if (s == "sp-cell") return PathMode::kSingleCellular;
  if (s == "mp2") return PathMode::kMptcp2;
  if (s == "mp4") return PathMode::kMptcp4;
  return std::nullopt;
}

std::string to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kCompleted: return "completed";
    case RunOutcome::kTimeout: return "timeout";
    case RunOutcome::kConnectionFailed: return "failed";
    case RunOutcome::kWatchdogAbort: return "watchdog";
  }
  return "?";
}

namespace {

/// Maps the client-side address of a subflow to the result bucket.
PathStats& bucket(RunResult& r, net::IpAddr client_side_addr) {
  return client_side_addr == kClientWifiAddr ? r.wifi : r.cellular;
}

void collect_mptcp(RunResult& result, core::MptcpConnection& client_conn,
                   core::MptcpConnection* server_conn) {
  for (core::MptcpSubflow* sf : client_conn.subflows()) {
    PathStats& ps = bucket(result, sf->local().addr);
    ps.bytes_received += sf->metrics().bytes_received;
    ++ps.subflows;
  }
  if (server_conn != nullptr) {
    for (core::MptcpSubflow* sf : server_conn->subflows()) {
      PathStats& ps = bucket(result, sf->remote().addr);
      ps.data_packets_sent += sf->metrics().data_packets_sent;
      ps.rexmit_packets += sf->metrics().rexmit_packets;
      for (const sim::Duration d : sf->metrics().rtt_samples) {
        ps.rtt_ms.push_back(d.to_millis());
      }
    }
    result.penalizations = server_conn->penalizations() + client_conn.penalizations();
    result.reinjections = server_conn->reinjected_chunks() + client_conn.reinjected_chunks();
    result.redundant_chunks =
        server_conn->redundant_chunks() + client_conn.redundant_chunks();
  }
  for (const core::OfoSample& s : client_conn.rx().ofo_samples()) {
    result.ofo_ms.push_back(s.delay.to_millis());
  }
}

}  // namespace

RunResult run_download(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg) {
  Testbed tb{testbed_cfg};
  sim::Simulation& sim = tb.sim();
  if (tb.trace() != nullptr) {
    // ~1 send + 1 deliver per data packet plus ACK traffic and handshakes.
    tb.trace()->reserve_records(run_cfg.file_bytes / 1400 * 3 + 4096);
  }

  tcp::TcpConfig tcfg;
  tcfg.initial_ssthresh = run_cfg.ssthresh;
  tcfg.receive_buffer = run_cfg.receive_buffer;
  tcfg.frto_enabled = run_cfg.frto;

  const bool multipath =
      run_cfg.mode == PathMode::kMptcp2 || run_cfg.mode == PathMode::kMptcp4;
  const bool use_wifi = run_cfg.mode != PathMode::kSingleCellular;
  const bool use_cell = run_cfg.mode != PathMode::kSingleWifi;
  // A single-path run sends nothing on its other interface, so the
  // cross-traffic there could change no result: stop it before it costs
  // an event.
  if (!use_wifi) tb.wifi_access().stop_background();
  if (!use_cell) tb.cell_access().stop_background();

  const net::SocketAddr server_sock{kServerAddr1, kHttpPort};
  const auto object_size = [&run_cfg](std::uint64_t) { return run_cfg.file_bytes; };

  RunResult result;
  bool done = false;
  app::FetchResult fetch;

  // Device radio energy accounting: airtime of the client's own packets at
  // the (possibly run-scaled) access rates.
  netem::EnergyMeter wifi_meter{tb.wifi_access().profile().power};
  netem::EnergyMeter cell_meter{tb.cell_access().profile().power};
  const auto airtime = [](double rate_bps, std::uint32_t wire_bytes) {
    return sim::Duration::from_seconds(static_cast<double>(wire_bytes) * 8.0 / rate_bps);
  };
  tb.network().add_observer([&](const net::TraceEvent& ev) {
    if (ev.kind == net::TraceEvent::Kind::kSend) {
      if (ev.packet.src == kClientWifiAddr) {
        wifi_meter.note_activity(
            ev.time, airtime(tb.wifi_access().profile().up_rate_bps, ev.packet.wire_bytes()));
      } else if (ev.packet.src == kClientCellAddr) {
        cell_meter.note_activity(
            ev.time, airtime(tb.cell_access().profile().up_rate_bps, ev.packet.wire_bytes()));
      }
    } else if (ev.kind == net::TraceEvent::Kind::kDeliver) {
      if (ev.packet.dst == kClientWifiAddr) {
        wifi_meter.note_activity(
            ev.time,
            airtime(tb.wifi_access().profile().down_rate_bps, ev.packet.wire_bytes()));
      } else if (ev.packet.dst == kClientCellAddr) {
        cell_meter.note_activity(
            ev.time,
            airtime(tb.cell_access().profile().down_rate_bps, ev.packet.wire_bytes()));
      }
    }
  });

  // Servers/clients are held in unique_ptrs so both stacks share one code path.
  std::unique_ptr<app::MptcpHttpServer> mp_server;
  std::unique_ptr<app::MptcpHttpClient> mp_client;
  std::unique_ptr<app::TcpHttpServer> sp_server;
  std::unique_ptr<app::TcpHttpClient> sp_client;
  std::unique_ptr<app::StreamingSession> streaming;
  sim::TimePoint stream_start{};

  if (multipath) {
    core::MptcpConfig mcfg;
    mcfg.subflow = tcfg;
    mcfg.cc = run_cfg.cc;
    mcfg.scheduler = run_cfg.scheduler;
    mcfg.scheduler_weights = run_cfg.scheduler_weights;
    mcfg.simultaneous_syns = run_cfg.simultaneous_syns;
    mcfg.penalization = run_cfg.penalization;
    mcfg.receive_buffer = run_cfg.receive_buffer;
    mcfg.dss_checksum = run_cfg.dss_checksum;
    mcfg.checksum_teardown = run_cfg.checksum_teardown;
    mcfg.allow_tcp_fallback = run_cfg.tcp_fallback;
    if (run_cfg.cellular_backup) mcfg.backup_local_addrs.push_back(kClientCellAddr);

    std::vector<net::IpAddr> advertise;
    if (run_cfg.mode == PathMode::kMptcp4) advertise.push_back(kServerAddr2);
    mp_server = std::make_unique<app::MptcpHttpServer>(tb.server(), kHttpPort, mcfg, advertise,
                                                       object_size);
    // WiFi first: it is the default path over which MPTCP initiates (§4).
    mp_client = std::make_unique<app::MptcpHttpClient>(
        tb.client(), mcfg, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
        server_sock);
  } else {
    sp_server =
        std::make_unique<app::TcpHttpServer>(tb.server(), kHttpPort, tcfg, object_size);
    sp_client = std::make_unique<app::TcpHttpClient>(
        tb.client(), tcfg, use_wifi ? kClientWifiAddr : kClientCellAddr, server_sock);
  }

  // Scripted faults: netem-level effects on both access networks, plus the
  // client stack's reaction to interface down/up.
  netem::FaultInjector injector{sim};
  injector.bind("wifi", &tb.wifi_access());
  injector.bind("cell", &tb.cell_access());
  if (multipath) {
    const auto iface_addr = [](const std::string& link) {
      return link == "wifi" ? kClientWifiAddr : kClientCellAddr;
    };
    injector.on_iface_down = [&mp_client, iface_addr](const std::string& link) {
      mp_client->connection().remove_local_addr(iface_addr(link));
    };
    injector.on_iface_up = [&mp_client, iface_addr](const std::string& link) {
      mp_client->connection().add_local_addr(iface_addr(link));
    };
    // `sched` scenario events: netem hands us a name + weights; resolve it
    // here (the harness owns the core dependency) and switch both ends so
    // sender-side dispatch changes regardless of transfer direction.
    injector.on_scheduler_change = [&mp_client, &mp_server](
                                       const std::string& name,
                                       const std::vector<double>& weights) {
      const auto kind = core::scheduler_from_string(name);
      if (!kind) return;  // parse() validated; unknown names are a no-op here
      mp_client->connection().set_scheduler(*kind, weights);
      for (core::MptcpConnection* c : mp_server->connections()) {
        c->set_scheduler(*kind, weights);
      }
    };
  }
  injector.install(run_cfg.faults);

  const auto start_measurement = [&] {
    if (multipath && run_cfg.streaming.has_value()) {
      // Streaming workload: the session drives its own fetch cadence; the
      // run ends when the last block lands (FetchResult stays empty).
      stream_start = sim.now();
      streaming = std::make_unique<app::StreamingSession>(sim, *mp_client,
                                                          *run_cfg.streaming);
      streaming->on_finished = [&done] { done = true; };
      streaming->start();
      return;
    }
    const auto on_done = [&](const app::FetchResult& r) {
      fetch = r;
      done = true;
    };
    if (multipath) {
      mp_client->get(run_cfg.file_bytes, on_done);
    } else {
      sp_client->get(run_cfg.file_bytes, on_done);
    }
  };

  // Ping warm-up (§3.2): two pings per active interface, measurement starts
  // when every interface has been warmed.
  std::vector<std::unique_ptr<app::PingAgent>> pingers;
  if (run_cfg.ping_warmup) {
    int pending = 0;
    if (use_wifi) ++pending;
    if (use_cell) ++pending;
    auto remaining = std::make_shared<int>(pending);
    const auto warm_done = [&start_measurement, remaining] {
      if (--*remaining == 0) start_measurement();
    };
    if (use_wifi) {
      pingers.push_back(
          std::make_unique<app::PingAgent>(tb.client(), kClientWifiAddr, kServerAddr1));
      pingers.back()->ping(2, warm_done);
    }
    if (use_cell) {
      pingers.push_back(
          std::make_unique<app::PingAgent>(tb.client(), kClientCellAddr, kServerAddr1));
      pingers.back()->ping(2, warm_done);
    }
  } else {
    start_measurement();
  }

  // Main event loop with an optional watchdog: the time/event caps abort a
  // runaway run deterministically. With both caps disabled the predicate is
  // just !done, so the event sequence is exactly the historical one
  // (bit-identical replays).
  const bool cap_time = run_cfg.max_sim_time > sim::Duration{};
  const sim::TimePoint hard_stop = sim.now() + run_cfg.max_sim_time;
  bool watchdog = false;
  sim.run_while(
      [&] {
        if (done) return false;
        watchdog = (cap_time && sim.now() >= hard_stop) ||
                   (run_cfg.max_events != 0 && sim.events().executed() >= run_cfg.max_events);
        return !watchdog;
      },
      sim.now() + run_cfg.timeout);

  result.completed = done;
  result.sim_stats.events_executed = sim.events().executed();
  if (const net::PacketPool* pool = sim.find_service<net::PacketPool>()) {
    const net::PacketPool::Stats ps = pool->stats();
    result.sim_stats.pool_allocated_packets = ps.allocs;
    result.sim_stats.pool_reused_packets = ps.reuses;
    result.sim_stats.pool_high_water = ps.high_water;
    result.sim_stats.pool_bytes = ps.bytes;
  }
#if MPR_AUDIT
  if (const check::Auditor* auditor = sim.find_service<check::Auditor>()) {
    result.sim_stats.audit_checks = auditor->checks();
  }
#endif
  result.wifi_energy_j = wifi_meter.energy_joules_total();
  result.cellular_energy_j = cell_meter.energy_joules_total();
  if (streaming != nullptr) {
    // Streaming runs: wall time is session start -> last block delivered,
    // and the playback-buffer telemetry rides along in sim_stats.
    result.download_time_s =
        done ? (sim.now() - stream_start).to_seconds() : run_cfg.timeout.to_seconds();
    const app::StreamingResult& sr = streaming->result();
    result.sim_stats.streaming_underruns = sr.underruns;
    result.sim_stats.streaming_underrun_s = sr.underrun_time.to_seconds();
    result.sim_stats.streaming_missed_frames = sr.deadline_missed_frames;
  } else {
    result.download_time_s =
        done ? (fetch.complete_time - fetch.first_syn_time).to_seconds() : run_cfg.timeout.to_seconds();
  }

  // Middlebox interference telemetry (only present when a scenario enabled
  // one on a link).
  for (const netem::AccessNetwork* a : {&tb.wifi_access(), &tb.cell_access()}) {
    if (const netem::Middlebox* m = a->middlebox_if()) {
      const netem::Middlebox::Stats& ms = m->stats();
      result.sim_stats.middlebox_options_stripped += ms.options_stripped;
      result.sim_stats.middlebox_packets_mangled +=
          ms.seq_rewrites + ms.segments_split + ms.segments_coalesced + ms.payloads_corrupted;
    }
  }

  if (multipath) {
    core::MptcpConnection* server_conn = nullptr;
    if (!mp_server->connections().empty()) server_conn = mp_server->connections().front();
    collect_mptcp(result, mp_client->connection(), server_conn);
    result.failed = mp_client->connection().failed();
    result.delivered_bytes = mp_client->connection().rx().delivered_bytes();
    result.duplicate_packets = mp_client->connection().rx().duplicate_packets();

    // RFC 6824 fallback telemetry from both ends.
    const auto add_fallback = [&result](const core::MptcpConnection& c) {
      const core::MptcpConnection::FallbackCounters& fc = c.fallback_counters();
      result.sim_stats.fallback_plain_tcp += fc.plain_tcp ? 1 : 0;
      result.sim_stats.fallback_infinite_mapping += fc.infinite_mapping ? 1 : 0;
      result.sim_stats.checksum_failures += fc.checksum_failures;
      result.sim_stats.mp_fail_events += fc.mp_fail_sent;
      result.sim_stats.join_refusals += fc.join_refusals;
    };
    add_fallback(mp_client->connection());
    if (server_conn != nullptr) add_fallback(*server_conn);
    core::MptcpServer& srv = mp_server->server();
    result.sim_stats.fallback_plain_tcp += srv.tcp_fallback_accepts();
    result.sim_stats.join_refusals += srv.rejected_joins();

    // A stripped MP_CAPABLE SYN leaves the server with a plain-TCP
    // endpoint instead of an MPTCP connection: collect the server-side
    // path stats from there so loss/RTT reporting survives fallback.
    if (server_conn == nullptr) {
      for (tcp::TcpEndpoint* ep : srv.tcp_fallback_connections()) {
        PathStats& ps = bucket(result, ep->remote().addr);
        ps.data_packets_sent += ep->metrics().data_packets_sent;
        ps.rexmit_packets += ep->metrics().rexmit_packets;
        for (const sim::Duration d : ep->metrics().rtt_samples) {
          ps.rtt_ms.push_back(d.to_millis());
        }
      }
    }
  } else {
    PathStats& ps = bucket(result, use_wifi ? kClientWifiAddr : kClientCellAddr);
    ps.subflows = 1;
    ps.bytes_received = sp_client->endpoint().metrics().bytes_received;
    result.delivered_bytes = sp_client->endpoint().metrics().bytes_received;
    if (!sp_server->connections().empty()) {
      const tcp::FlowMetrics& m = sp_server->connections().front()->metrics();
      ps.data_packets_sent = m.data_packets_sent;
      ps.rexmit_packets = m.rexmit_packets;
      for (const sim::Duration d : m.rtt_samples) ps.rtt_ms.push_back(d.to_millis());
    }
  }

  if (watchdog) {
    result.outcome = RunOutcome::kWatchdogAbort;
  } else if (done) {
    result.outcome = RunOutcome::kCompleted;
  } else if (result.failed) {
    result.outcome = RunOutcome::kConnectionFailed;
  } else {
    result.outcome = RunOutcome::kTimeout;
  }
  return result;
}

}  // namespace mpr::experiment
