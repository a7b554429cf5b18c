// Liveness check shared by the randomized fault sweeps: a join subflow the
// client holds ESTABLISHED must become established at the server too.
#pragma once

#include <algorithm>
#include <cstddef>

#include "analysis/trace.h"
#include "core/connection.h"
#include "experiment/run.h"

namespace mpr::testing_util {

/// Half-open subflows of a run with capture_trace on: the client holds the
/// subflow ESTABLISHED and a retransmitted SYN-ACK reached it after that
/// (its third ACK was lost), yet the server's side still sits in
/// SYN_RECEIVED, gave up (CLOSED) or never existed. Such a subflow carries
/// nothing for the rest of the run. A join whose SYN-ACK was not resent, or
/// whose resends were all lost, is not judged.
inline std::size_t half_open_subflows(experiment::Session& session) {
  const analysis::PacketTrace& trace = *session.testbed().trace();
  std::size_t n = 0;
  for (const core::MptcpSubflow* c : session.client_connection()->subflows()) {
    if (c->state() != tcp::TcpState::kEstablished) continue;
    const bool synack_resent =
        std::any_of(trace.records().begin(), trace.records().end(),
                    [c](const analysis::TraceRecord& r) {
                      return r.kind == net::TraceEvent::Kind::kDeliver &&
                             (r.flags & net::kFlagSyn) != 0 && r.flow.src == c->remote() &&
                             r.flow.dst == c->local() &&
                             r.time > c->metrics().established_time;
                    });
    if (!synack_resent) continue;
    bool server_up = false;
    for (const core::MptcpConnection* conn : session.mptcp_server()->connections()) {
      for (const core::MptcpSubflow* s : conn->subflows()) {
        if (s->local() == c->remote() && s->remote() == c->local()) {
          server_up = s->state() != tcp::TcpState::kSynReceived &&
                      s->state() != tcp::TcpState::kClosed;
        }
      }
    }
    if (!server_up) ++n;
  }
  return n;
}

}  // namespace mpr::testing_util
