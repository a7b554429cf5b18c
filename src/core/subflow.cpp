#include "core/subflow.h"

#include <algorithm>
#include <limits>

#include "core/connection.h"

namespace mpr::core {

MptcpSubflow::MptcpSubflow(net::Host& host, net::SocketAddr local, net::SocketAddr remote,
                           tcp::TcpConfig config, tcp::CongestionControl* cc,
                           MptcpConnection& conn, std::uint8_t id, HandshakeKind kind,
                           bool backup)
    : TcpEndpoint{host, local, remote, config, cc},
      conn_{conn},
      id_{id},
      kind_{kind},
      backup_{backup} {}

std::optional<tcp::TcpEndpoint::Chunk> MptcpSubflow::next_chunk(std::uint32_t max_len) {
  auto chunk = conn_.next_chunk_for(*this, max_len);
  if (chunk) scheduled_bytes_ += chunk->len;
  return chunk;
}

void MptcpSubflow::decorate_outgoing(net::Packet& p) {
  // RFC 6824 §3.7: after fallback the connection is plain TCP end-to-end —
  // no MPTCP option ever leaves this endpoint again.
  if (conn_.plain_fallback()) return;
  if (p.tcp.has(net::kFlagSyn)) {
    if (kind_ == HandshakeKind::kCapable) {
      net::MpCapableOption cap;
      cap.sender_key = conn_.local_key();
      if (p.tcp.has(net::kFlagAck)) cap.receiver_key = conn_.remote_key();
      p.tcp.set_mp_capable(cap);
    } else {
      p.tcp.set_mp_join(net::MpJoinOption{conn_.token(), id_, backup_});
    }
    return;  // no DSS on SYNs
  }
  net::DssOption& dss = p.tcp.ensure_dss();
  dss.data_ack = conn_.data_rcv_nxt();
  dss.has_data_ack = true;
  if (conn_.config().dss_checksum && dss.length > 0) {
    dss.has_checksum = true;
    dss.checksum = net::dss_checksum(dss.dsn, dss.length);
  }
  if (prio_dirty_) p.tcp.set_mp_prio(net::MpPrioOption{backup_});
  conn_.decorate_extra(*this, p);
}

void MptcpSubflow::process_options(const net::Packet& p) {
  conn_.note_peer_window(p.tcp.wnd);
  if (conn_.plain_fallback()) return;
  const net::DssOption* dss = p.tcp.dss();
  if (dss != nullptr) conn_.note_dss_seen();
  if (p.tcp.has(net::kFlagSyn)) {
    if ((kind_ == HandshakeKind::kCapable && p.tcp.mp_capable() != nullptr) ||
        (kind_ == HandshakeKind::kJoin && p.tcp.mp_join() != nullptr)) {
      peer_confirmed_ = true;
    }
    if (kind_ == HandshakeKind::kJoin && state() == tcp::TcpState::kEstablished &&
        p.tcp.has(net::kFlagAck) && p.tcp.mp_join() != nullptr) {
      // The server retransmitted its SYN-ACK: our third ACK was lost. A
      // download sends no data on a join subflow, so nothing else would
      // carry that ACK and the server's side would stay in SYN_RECEIVED.
      // Only this case is answered, not every unacceptable segment as in
      // RFC 9293 (see DESIGN.md §6).
      send_ack_now();
    }
  } else if (!p.tcp.has(net::kFlagRst) && dss == nullptr) {
    // An established peer speaking without any DSS: it fell back (or a
    // strict proxy strips every option). Mirror the decision if eligible.
    conn_.on_plain_packet(*this);
    if (conn_.plain_fallback()) return;
  }
  // The rare (cold-block) options are all gated on one presence-mask test,
  // so a plain data/ACK packet skips the cold cache lines entirely.
  if (p.tcp.has_any_option()) {
    if (const net::MpCapableOption* cap = p.tcp.mp_capable();
        cap != nullptr && p.tcp.has(net::kFlagSyn) && p.tcp.has(net::kFlagAck)) {
      conn_.set_remote_key(cap->sender_key);
    }
    if (const net::MpFailOption* fail = p.tcp.mp_fail()) {
      conn_.on_remote_mp_fail(*this, fail->dsn, fail->subflow_closed);
    }
    if (const net::AddAddrOption* add = p.tcp.add_addr()) {
      conn_.on_remote_add_addr(add->addr);
    }
    if (const net::RemoveAddrOption* rem = p.tcp.remove_addr()) {
      conn_.on_remote_remove_addr(rem->addr, rem->generation);
    }
    if (const net::MpPrioOption* prio = p.tcp.mp_prio();
        prio != nullptr && prio->backup != backup_) {
      backup_ = prio->backup;
      conn_.on_priority_change();
    }
  }
  if (dss != nullptr && dss->has_data_ack) conn_.on_data_ack(dss->data_ack);
  if (dss != nullptr && dss->data_fin && p.payload_bytes == 0) {
    conn_.on_data_fin_signal(dss->dsn);
  }
}

void MptcpSubflow::handle_established() {
  if (kind_ == HandshakeKind::kJoin && (!peer_confirmed_ || conn_.plain_fallback())) {
    // MP_JOIN never came back (stripped) or the connection already fell back
    // to plain TCP: this subflow cannot be part of it — refuse cleanly.
    send_reset();
    abort();
    conn_.on_join_refused(*this);
    return;
  }
  if (kind_ == HandshakeKind::kCapable && !peer_confirmed_ && !conn_.plain_fallback()) {
    conn_.on_capable_fallback(*this);
    if (conn_.failed()) return;
  }
  conn_.on_subflow_established(*this);
}

void MptcpSubflow::handle_data(std::uint64_t offset, std::uint32_t len,
                               const std::optional<net::DssOption>& dss) {
  if (conn_.plain_fallback()) {
    // Plain TCP: the subflow stream offset *is* the data-level sequence.
    conn_.on_subflow_data(*this, offset, len, false);
    return;
  }
  if (dss && dss->length > 0) {
    if (conn_.infinite_mapping()) {
      // After fallback the mapping stream is linear; checksums are moot
      // (RFC 6824 §3.7). Track the continuation for mapping-less tails.
      conn_.on_subflow_data(*this, dss->dsn, len, dss->data_fin);
      pending_map_ = PendingMap{dss->dsn + len, offset + len,
                                std::numeric_limits<std::uint32_t>::max()};
      return;
    }
    if (dss->has_checksum && dss->checksum != net::dss_checksum(dss->dsn, dss->length)) {
      // TCP already acked these bytes, so they can never be retransmitted
      // on this subflow — the connection must recover at the data level.
      pending_map_.reset();
      conn_.on_checksum_failure(*this);
      return;
    }
    const std::uint32_t mapped = std::min(len, dss->length);
    conn_.on_subflow_data(*this, dss->dsn, mapped, dss->data_fin);
    if (len > dss->length) {
      // Coalesced by a middlebox: bytes beyond what the mapping covers.
      conn_.on_unmapped_payload(*this, offset + dss->length, len - dss->length);
    } else if (len < dss->length) {
      // Split by a middlebox: the mapping's tail arrives in later segments.
      pending_map_ = PendingMap{dss->dsn + len, offset + len, dss->length - len};
    } else {
      pending_map_.reset();
    }
    return;
  }
  // Payload without a mapping: place it via the pending continuation if it
  // lines up, otherwise let the connection decide (fallback or teardown).
  if (pending_map_ && offset == pending_map_->offset && len <= pending_map_->len) {
    conn_.on_subflow_data(*this, pending_map_->dsn, len, false);
    pending_map_->dsn += len;
    pending_map_->offset += len;
    pending_map_->len -= len;
    if (pending_map_->len == 0) pending_map_.reset();
    return;
  }
  conn_.on_unmapped_payload(*this, offset, len);
}

void MptcpSubflow::handle_rto() { conn_.on_subflow_rto(*this); }

void MptcpSubflow::handle_connect_failed() { conn_.on_subflow_connect_failed(*this); }

void MptcpSubflow::handle_reset(bool during_handshake) {
  conn_.on_subflow_reset(*this, during_handshake);
}

void MptcpSubflow::handle_forward_ack() {
  if (conn_.plain_fallback()) conn_.on_fallback_ack(stream_acked_bytes());
}

std::uint64_t MptcpSubflow::advertised_window() const { return conn_.conn_window(); }

void MptcpSubflow::set_backup_flag(bool backup) {
  if (backup_ == backup) return;
  backup_ = backup;
  prio_dirty_ = true;
  if (state() == tcp::TcpState::kEstablished) send_ack_now();
}

}  // namespace mpr::core
