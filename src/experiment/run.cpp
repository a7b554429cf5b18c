#include "experiment/run.h"

#include "check/audit.h"

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

/// Adds what a server-side sender reports for its path: packets sent,
/// retransmissions and the RTT samples in ms.
void add_sender_stats(PathStats& ps, const tcp::FlowMetrics& m) {
  ps.data_packets_sent += m.data_packets_sent;
  ps.rexmit_packets += m.rexmit_packets;
  for (const sim::Duration d : m.rtt_samples) ps.rtt_ms.push_back(d.to_millis());
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
      add_sender_stats(bucket(result, sf->remote().addr), sf->metrics());
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

Session::Session(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg)
    : cfg_{run_cfg},
      tb_{testbed_cfg},
      wifi_meter_{tb_.wifi_access().profile().power},
      cell_meter_{tb_.cell_access().profile().power} {
  if (tb_.trace() != nullptr) {
    // ~1 send + 1 deliver per data packet plus ACK traffic and handshakes.
    tb_.trace()->reserve_records(cfg_.file_bytes / 1400 * 3 + 4096);
  }

  const bool multipath = cfg_.mode == PathMode::kMptcp2 || cfg_.mode == PathMode::kMptcp4;
  const bool use_wifi = cfg_.mode != PathMode::kSingleCellular;
  const bool use_cell = cfg_.mode != PathMode::kSingleWifi;
  // A single-path run sends nothing on its other interface, so the
  // cross-traffic there could change no result: stop it before it costs
  // an event.
  if (!use_wifi) tb_.wifi_access().stop_background();
  if (!use_cell) tb_.cell_access().stop_background();

  // Device radio energy accounting: airtime of the client's own packets at
  // the (possibly run-scaled) access rates.
  const auto airtime = [](double rate_bps, std::uint32_t wire_bytes) {
    return sim::Duration::from_seconds(static_cast<double>(wire_bytes) * 8.0 / rate_bps);
  };
  tb_.network().add_observer([this, airtime](const net::TraceEvent& ev) {
    if (ev.kind == net::TraceEvent::Kind::kSend) {
      if (ev.packet.src == kClientWifiAddr) {
        wifi_meter_.note_activity(
            ev.time, airtime(tb_.wifi_access().profile().up_rate_bps, ev.packet.wire_bytes()));
      } else if (ev.packet.src == kClientCellAddr) {
        cell_meter_.note_activity(
            ev.time, airtime(tb_.cell_access().profile().up_rate_bps, ev.packet.wire_bytes()));
      }
    } else if (ev.kind == net::TraceEvent::Kind::kDeliver) {
      if (ev.packet.dst == kClientWifiAddr) {
        wifi_meter_.note_activity(
            ev.time,
            airtime(tb_.wifi_access().profile().down_rate_bps, ev.packet.wire_bytes()));
      } else if (ev.packet.dst == kClientCellAddr) {
        cell_meter_.note_activity(
            ev.time,
            airtime(tb_.cell_access().profile().down_rate_bps, ev.packet.wire_bytes()));
      }
    }
  });

  const net::SocketAddr server_sock{kServerAddr1, kHttpPort};
  const std::uint64_t file_bytes = cfg_.file_bytes;
  const auto object_size = [file_bytes](std::uint64_t) { return file_bytes; };
  if (multipath) {
    std::vector<net::IpAddr> advertise;
    if (cfg_.mode == PathMode::kMptcp4) advertise.push_back(kServerAddr2);
    mp_server_ = std::make_unique<app::MptcpHttpServer>(tb_.server(), kHttpPort, cfg_, advertise,
                                                        object_size);
    // WiFi first: it is the default path over which MPTCP initiates (§4).
    mp_client_ = std::make_unique<app::MptcpHttpClient>(
        tb_.client(), cfg_, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
        server_sock);
  } else {
    sp_server_ = std::make_unique<app::TcpHttpServer>(tb_.server(), kHttpPort, cfg_.subflow,
                                                      object_size);
    sp_client_ = std::make_unique<app::TcpHttpClient>(
        tb_.client(), cfg_.subflow, use_wifi ? kClientWifiAddr : kClientCellAddr, server_sock);
  }

  // Scripted faults, each captured by its index into cfg_ (a FaultEvent is
  // too large for the event queue's inline action storage). A middlebox
  // present "from the start" must intercept the very first SYN, which the
  // endpoints send synchronously, before the event queue runs: it is
  // applied now.
  const sim::TimePoint origin = tb_.sim().now();
  const std::vector<netem::FaultEvent>& faults = cfg_.faults.events();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults[i].kind == netem::FaultEvent::Kind::kMiddlebox && faults[i].at <= sim::Duration{}) {
      apply_fault(faults[i]);
    } else {
      tb_.sim().at(origin + faults[i].at, [this, i] { apply_fault(cfg_.faults.events()[i]); });
    }
  }

  // Ping warm-up (§3.2): two pings per active interface, measurement starts
  // when every interface has been warmed.
  if (!cfg_.ping_warmup) {
    start_measurement();
    return;
  }
  warmups_pending_ = (use_wifi ? 1 : 0) + (use_cell ? 1 : 0);
  const auto warm = [this](net::IpAddr addr) {
    pingers_.push_back(std::make_unique<app::PingAgent>(tb_.client(), addr, kServerAddr1));
    pingers_.back()->ping(2, [this] {
      if (--warmups_pending_ == 0) start_measurement();
    });
  };
  if (use_wifi) warm(kClientWifiAddr);
  if (use_cell) warm(kClientCellAddr);
}

void Session::start_measurement() {
  const auto on_done = [this](const app::FetchResult& r) {
    fetch_ = r;
    done_ = true;
  };
  if (mp_client_ != nullptr) {
    mp_client_->get(cfg_.file_bytes, on_done);
  } else {
    sp_client_->get(cfg_.file_bytes, on_done);
  }
}

void Session::apply_fault(const netem::FaultEvent& ev) {
  if (ev.kind == netem::FaultEvent::Kind::kScheduler) {
    if (mp_client_ == nullptr) return;
    const auto kind = core::scheduler_from_string(ev.arg);
    if (!kind) return;  // parse() validated; unknown names are a no-op here
    // Both ends, so sender-side dispatch changes whatever the direction.
    mp_client_->connection().set_scheduler(*kind, ev.weights);
    for (core::MptcpConnection* c : mp_server_->connections()) c->set_scheduler(*kind, ev.weights);
    return;
  }
  const bool wifi = ev.link == "wifi";
  if (!wifi && ev.link != "cell") return;
  netem::apply(wifi ? tb_.wifi_access() : tb_.cell_access(), ev);
  if (mp_client_ == nullptr) return;
  const net::IpAddr addr = wifi ? kClientWifiAddr : kClientCellAddr;
  if (ev.kind == netem::FaultEvent::Kind::kIfaceDown) {
    mp_client_->connection().remove_local_addr(addr);
  } else if (ev.kind == netem::FaultEvent::Kind::kIfaceUp) {
    mp_client_->connection().add_local_addr(addr);
  }
}

RunResult Session::run() {
  sim::Simulation& sim = tb_.sim();
  // Main event loop with an optional watchdog: the time/event caps abort a
  // runaway run deterministically. The run stops at the earlier of the
  // timeout and the max_sim_time cap, before the first event past it, so a
  // cut run reports only what happened inside the cap. It also stops once
  // the MPTCP connection has failed: nothing after that can change the
  // outcome, and the cross-traffic would otherwise run on to the timeout.
  // With both caps disabled the predicate is just !done && !failed, so the
  // event sequence is exactly the historical one (bit-identical replays).
  const sim::TimePoint timeout_at = sim.now() + cfg_.timeout;
  const sim::TimePoint cap_at = sim.now() + cfg_.max_sim_time;
  const bool cap_time = cfg_.max_sim_time > sim::Duration{} && cap_at < timeout_at;
  const core::MptcpConnection* conn = client_connection();
  const auto failed = [conn] { return conn != nullptr && conn->failed(); };
  bool watchdog = false;
  sim.run_while(
      [&] {
        if (done_ || failed()) return false;
        watchdog = cfg_.max_events != 0 && sim.events().executed() >= cfg_.max_events;
        return !watchdog;
      },
      cap_time ? cap_at : timeout_at);
  // Stopped short of completion, with events still pending and the
  // connection alive: the cap cut it.
  if (cap_time && !done_ && !failed() && !sim.events().empty()) watchdog = true;

  RunResult result;
  collect(result);
  if (watchdog) {
    result.outcome = RunOutcome::kWatchdogAbort;
  } else if (done_) {
    result.outcome = RunOutcome::kCompleted;
  } else if (result.failed) {
    result.outcome = RunOutcome::kConnectionFailed;
  } else {
    result.outcome = RunOutcome::kTimeout;
  }
  return result;
}

void Session::collect(RunResult& result) {
  sim::Simulation& sim = tb_.sim();
  result.completed = done_;
  result.sim_stats.events_executed = sim.events().executed();
  if (const net::PacketPool* pool = sim.find_service<net::PacketPool>()) {
    const net::PacketPool::Stats ps = pool->stats();
    result.sim_stats.pool_allocated_packets = ps.allocs;
    result.sim_stats.pool_reused_packets = ps.reuses;
    result.sim_stats.pool_high_water = ps.high_water;
  }
#if MPR_AUDIT
  if (const check::Auditor* auditor = sim.find_service<check::Auditor>()) {
    result.sim_stats.audit_checks = auditor->checks();
  }
#endif
  result.wifi_energy_j = wifi_meter_.energy_joules_total();
  result.cellular_energy_j = cell_meter_.energy_joules_total();
  result.download_time_s = done_ ? (fetch_.complete_time - fetch_.first_syn_time).to_seconds()
                                 : cfg_.timeout.to_seconds();

  // Middlebox interference telemetry (only present when a scenario enabled
  // one on a link).
  for (const netem::AccessNetwork* a : {&tb_.wifi_access(), &tb_.cell_access()}) {
    if (const netem::Middlebox* m = a->middlebox_if()) {
      const netem::Middlebox::Stats& ms = m->stats();
      result.sim_stats.middlebox_options_stripped += ms.options_stripped;
      result.sim_stats.middlebox_packets_mangled +=
          ms.seq_rewrites + ms.segments_split + ms.segments_coalesced + ms.payloads_corrupted;
    }
  }

  if (mp_client_ != nullptr) {
    core::MptcpConnection& client_conn = mp_client_->connection();
    core::MptcpConnection* server_conn = nullptr;
    if (!mp_server_->connections().empty()) server_conn = mp_server_->connections().front();
    collect_mptcp(result, client_conn, server_conn);
    result.failed = client_conn.failed();
    result.delivered_bytes = client_conn.rx().delivered_bytes();
    result.duplicate_packets = client_conn.rx().duplicate_packets();

    // RFC 6824 fallback telemetry from both ends.
    const auto add_fallback = [&result](const core::MptcpConnection& c) {
      const core::MptcpConnection::FallbackCounters& fc = c.fallback_counters();
      result.sim_stats.fallback_plain_tcp += c.plain_fallback() ? 1 : 0;
      result.sim_stats.fallback_infinite_mapping += c.infinite_mapping() ? 1 : 0;
      result.sim_stats.checksum_failures += fc.checksum_failures;
      result.sim_stats.mp_fail_events += fc.mp_fail_sent;
      result.sim_stats.join_refusals += fc.join_refusals;
    };
    add_fallback(client_conn);
    if (server_conn != nullptr) add_fallback(*server_conn);
    core::MptcpServer& srv = mp_server_->server();
    result.sim_stats.fallback_plain_tcp += srv.tcp_fallback_accepts();
    result.sim_stats.join_refusals += srv.rejected_joins();

    // A stripped MP_CAPABLE SYN leaves the server with a plain-TCP
    // endpoint instead of an MPTCP connection: collect the server-side
    // path stats from there so loss/RTT reporting survives fallback.
    if (server_conn == nullptr) {
      for (tcp::TcpEndpoint* ep : srv.tcp_fallback_connections()) {
        add_sender_stats(bucket(result, ep->remote().addr), ep->metrics());
      }
    }
  } else {
    PathStats& ps = bucket(result, cfg_.mode == PathMode::kSingleCellular ? kClientCellAddr
                                                                           : kClientWifiAddr);
    ps.subflows = 1;
    ps.bytes_received = sp_client_->endpoint().metrics().bytes_received;
    result.delivered_bytes = sp_client_->endpoint().metrics().bytes_received;
    if (!sp_server_->connections().empty()) {
      add_sender_stats(ps, sp_server_->connections().front()->metrics());
    }
  }
}

RunResult run_download(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg) {
  return Session{testbed_cfg, run_cfg}.run();
}

}  // namespace mpr::experiment
