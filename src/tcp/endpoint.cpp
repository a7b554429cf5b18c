#include "tcp/endpoint.h"

#include <algorithm>
#include <cassert>

#include "check/audit.h"
#include "tcp/metrics_cache.h"

namespace mpr::tcp {

namespace {
constexpr sim::Duration kRtoGranularity = sim::Duration::millis(1);
}

void TcpEndpoint::set_state(TcpState next) {
#if MPR_AUDIT
  // abort()/RST/handshake exhaustion may close from any state, hence the
  // kClosed wildcard; every other edge must be on the allow-list.
  static const check::TransitionAudit kTcpTransitions{
      "tcp.state_transition",
      {"Closed", "SynSent", "SynReceived", "Established", "FinWait",
       "CloseWait", "LastAck", "Done"},
      {
          {static_cast<int>(TcpState::kClosed), static_cast<int>(TcpState::kSynSent)},
          {static_cast<int>(TcpState::kClosed), static_cast<int>(TcpState::kSynReceived)},
          {static_cast<int>(TcpState::kSynSent), static_cast<int>(TcpState::kEstablished)},
          {static_cast<int>(TcpState::kSynReceived), static_cast<int>(TcpState::kEstablished)},
          {static_cast<int>(TcpState::kEstablished), static_cast<int>(TcpState::kFinWait)},
          {static_cast<int>(TcpState::kEstablished), static_cast<int>(TcpState::kCloseWait)},
          {static_cast<int>(TcpState::kCloseWait), static_cast<int>(TcpState::kLastAck)},
          {static_cast<int>(TcpState::kLastAck), static_cast<int>(TcpState::kDone)},
          {static_cast<int>(TcpState::kFinWait), static_cast<int>(TcpState::kDone)},
      },
      /*wildcard_to=*/static_cast<int>(TcpState::kClosed)};
  kTcpTransitions.on_transition(static_cast<int>(state_), static_cast<int>(next),
                                /*conn=*/0, /*subflow=*/static_cast<int>(local_.port),
                                sim().now().ns());
#endif
  state_ = next;
}

TcpEndpoint::TcpEndpoint(net::Host& host, net::SocketAddr local, net::SocketAddr remote,
                         TcpConfig config, CongestionControl* cc)
    : host_{host},
      local_{local},
      remote_{remote},
      config_{config} {
  if (cc == nullptr) {
    owned_cc_ = std::make_unique<NewRenoCc>();
    cc_ = owned_cc_.get();
  } else {
    cc_ = cc;
  }
  cc_->register_flow(*this);
  cwnd_ = static_cast<double>(kInitialCwndSegments) * kMss;
  ssthresh_ = config_.initial_ssthresh;
  if (config_.metrics_cache != nullptr) {
    // Linux tcp_metrics: inherit the cached post-loss ssthresh (§3.1 —
    // the paper disables this; see TcpConfig::metrics_cache).
    if (const auto cached = config_.metrics_cache->lookup_ssthresh(remote_.addr)) {
      ssthresh_ = std::max<std::uint64_t>(*cached, 2 * kMss);
    }
  }
  host_.register_flow(net::FlowKey{local_, remote_},
                      [this](net::PacketPtr p) { on_packet(std::move(p)); });
}

TcpEndpoint::~TcpEndpoint() {
  host_.unregister_flow(net::FlowKey{local_, remote_});
  cc_->unregister_flow(*this);
}

// --------------------------------------------------------------------------
// Application interface.

void TcpEndpoint::connect() {
  assert(state_ == TcpState::kClosed);
  set_state(TcpState::kSynSent);
  metrics_.first_syn_time = sim().now();
  snd_una_ = 0;
  snd_nxt_ = 1;  // SYN occupies seq 0
  send_syn(/*with_ack=*/false);
  arm_rto();
}

void TcpEndpoint::accept_syn(const net::Packet& syn) {
  assert(state_ == TcpState::kClosed);
  assert(syn.tcp.has(net::kFlagSyn));
  set_state(TcpState::kSynReceived);
  metrics_.first_syn_time = sim().now();
  rcv_nxt_ = syn.tcp.seq + 1;
  peer_rwnd_ = syn.tcp.wnd;
  process_options(syn);
  snd_una_ = 0;
  snd_nxt_ = 1;
  send_syn(/*with_ack=*/true);
  arm_rto();
}

void TcpEndpoint::write(std::uint64_t bytes) {
  app_pending_ += bytes;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) pump();
}

void TcpEndpoint::shutdown_write() {
  fin_requested_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) pump();
}

void TcpEndpoint::abort() {
  rto_timer_.cancel();
  delack_timer_.cancel();
  set_state(TcpState::kClosed);
}

// --------------------------------------------------------------------------
// Sending.

std::uint64_t TcpEndpoint::bytes_in_flight() const {
  const std::uint64_t outstanding = snd_nxt_ - snd_una_;
  const std::uint64_t discounted = sacked_bytes_ + lost_bytes_;
  return outstanding > discounted ? outstanding - discounted : 0;
}

std::uint64_t TcpEndpoint::send_window() const {
  return std::min(static_cast<std::uint64_t>(cwnd_), peer_rwnd_);
}

void TcpEndpoint::pump() {
  if (pumping_) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  pumping_ = true;
  while (true) {
    const std::uint64_t wnd = send_window();
    std::uint64_t flight = bytes_in_flight();

    // Retransmissions of lost-marked segments take priority.
    if (lost_bytes_ > 0 && flight < wnd) {
      bool found = false;
      for (std::size_t i = 0; i < unacked_.size(); ++i) {
        if (unacked_.at(i).val.lost) {
          retransmit(unacked_.at(i).seq);
          found = true;
          break;
        }
      }
      if (found) continue;
    }

    if (flight >= wnd) break;
    const std::uint64_t room = wnd - flight;
    if (room < kMss && flight > 0) break;  // avoid silly-window segments

    const auto chunk =
        next_chunk(static_cast<std::uint32_t>(std::min<std::uint64_t>(room, kMss)));
    if (!chunk || chunk->len == 0) {
      maybe_send_fin();
      break;
    }
    send_segment_new(*chunk);
  }
  pumping_ = false;
}

std::optional<TcpEndpoint::Chunk> TcpEndpoint::next_chunk(std::uint32_t max_len) {
  if (app_pending_ == 0) return std::nullopt;
  const std::uint32_t len =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(max_len, app_pending_));
  app_pending_ -= len;
  Chunk chunk;
  chunk.len = len;
  return chunk;
}

net::PacketPtr TcpEndpoint::make_packet(std::uint8_t flags, std::uint64_t seq,
                                        std::uint32_t payload) {
  net::PacketPtr pkt = host_.pool().acquire();
  net::Packet& p = *pkt;
  p.src = local_.addr;
  p.dst = remote_.addr;
  p.tcp.src_port = local_.port;
  p.tcp.dst_port = remote_.port;
  p.tcp.seq = seq;
  p.tcp.flags = flags;
  if ((flags & net::kFlagAck) != 0) p.tcp.ack = rcv_nxt_;
  p.tcp.wnd = advertised_window();
  p.payload_bytes = payload;
  p.first_sent_time = sim().now();
  if (!ooo_.empty() || pending_dsack_) fill_sack_blocks(p);
  return pkt;
}

void TcpEndpoint::send_syn(bool with_ack) {
  const std::uint8_t flags =
      with_ack ? (net::kFlagSyn | net::kFlagAck) : net::kFlagSyn;
  net::PacketPtr p = make_packet(flags, 0, 0);
  syn_sent_time_ = sim().now();
  decorate_outgoing(*p);
  host_.send(std::move(p));
}

void TcpEndpoint::send_segment_new(Chunk chunk) {
  SegInfo seg;
  seg.len = chunk.len;
  seg.dsn = chunk.dsn;
  seg.data_fin = chunk.data_fin;
  seg.sent_time = sim().now();
  const std::uint64_t seq = snd_nxt_;
  unacked_.push_back(seq, seg);
  snd_nxt_ += chunk.len;

  net::PacketPtr p = make_packet(net::kFlagAck, seq, chunk.len);
  if (chunk.dsn) {
    p->tcp.set_dss(net::DssOption{.dsn = *chunk.dsn, .length = chunk.len,
                                  .data_fin = chunk.data_fin});
  }
  decorate_outgoing(*p);
  ++metrics_.data_packets_sent;
  metrics_.bytes_sent += chunk.len;
  segs_since_ack_ = 0;  // data carries a piggybacked ACK
  delack_timer_.cancel();
  host_.send(std::move(p));
  if (!rto_timer_.armed()) arm_rto();
}

void TcpEndpoint::retransmit(std::uint64_t seq) {
  SegInfo* found = unacked_.find(seq);
  if (found == nullptr) return;
  SegInfo& seg = *found;
  if (seg.sacked) return;
  if (seg.lost) {
    seg.lost = false;
    lost_bytes_ -= seg.len;
  }
  ++seg.rexmits;
  seg.rexmitted_this_recovery = true;
  seg.sent_time = sim().now();

  std::uint8_t flags = net::kFlagAck;
  std::uint32_t payload = seg.len;
  if (seg.fin) {
    flags |= net::kFlagFin;
    payload = 0;
  }
  net::PacketPtr p = make_packet(flags, seq, payload);
  if (seg.dsn) {
    p->tcp.set_dss(net::DssOption{.dsn = *seg.dsn, .length = payload, .data_fin = seg.data_fin});
  }
  p->is_retransmit = true;
  decorate_outgoing(*p);
  if (!seg.fin) {
    ++metrics_.rexmit_packets;
    ++metrics_.data_packets_sent;
    metrics_.bytes_sent += payload;
  }
  host_.send(std::move(p));
  if (!rto_timer_.armed()) arm_rto();
}

void TcpEndpoint::maybe_send_fin() {
  if (!fin_requested_ || fin_sent_ || app_pending_ > 0) return;
  // FIN occupies one sequence number; reuse segment machinery (len = 1).
  SegInfo seg;
  seg.len = 1;
  seg.fin = true;
  seg.sent_time = sim().now();
  const std::uint64_t seq = snd_nxt_;
  unacked_.push_back(seq, seg);
  snd_nxt_ += 1;
  fin_sent_ = true;
  fin_seq_ = seq;

  net::PacketPtr p = make_packet(net::kFlagFin | net::kFlagAck, seq, 0);
  decorate_outgoing(*p);
  host_.send(std::move(p));
  if (!rto_timer_.armed()) arm_rto();
  set_state(state_ == TcpState::kCloseWait ? TcpState::kLastAck : TcpState::kFinWait);
}

// --------------------------------------------------------------------------
// Packet reception.

void TcpEndpoint::on_packet(net::PacketPtr p) {
  if (p->tcp.has(net::kFlagRst)) {
    if (state_ == TcpState::kClosed || state_ == TcpState::kDone) return;
    const bool during_handshake =
        state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived;
    rto_timer_.cancel();
    delack_timer_.cancel();
    // Closed before option processing: anything the reset triggers at the
    // MPTCP layer (reinjection pumps) must skip this endpoint.
    set_state(TcpState::kClosed);
    process_options(*p);
    handle_reset(during_handshake);
    return;
  }
  switch (state_) {
    case TcpState::kClosed:
    case TcpState::kDone:
      return;
    case TcpState::kSynSent:
      handle_syn_sent(*p);
      return;
    case TcpState::kSynReceived:
      handle_syn_received(*p);
      return;
    default:
      break;
  }
  process_options(*p);
  process_ack_side(*p);
  process_data_side(*p);
}

void TcpEndpoint::handle_syn_sent(const net::Packet& p) {
  if (!p.tcp.has(net::kFlagSyn) || !p.tcp.has(net::kFlagAck)) return;
  if (p.tcp.ack != 1) return;
  process_options(p);
  rcv_nxt_ = p.tcp.seq + 1;
  snd_una_ = 1;
  peer_rwnd_ = p.tcp.wnd;
  rtt_sample(sim().now() - syn_sent_time_);
  rto_timer_.cancel();
  become_established();
  send_ack_now();
  pump();
}

void TcpEndpoint::handle_syn_received(const net::Packet& p) {
  if (p.tcp.has(net::kFlagSyn) && !p.tcp.has(net::kFlagAck)) {
    // Duplicate SYN: our SYN-ACK was likely lost; resend.
    send_syn(/*with_ack=*/true);
    return;
  }
  if (!p.tcp.has(net::kFlagAck) || p.tcp.ack < 1) return;
  snd_una_ = 1;
  peer_rwnd_ = p.tcp.wnd;
  rtt_sample(sim().now() - syn_sent_time_);
  rto_timer_.cancel();
  become_established();
  // The establishing ACK may carry options and even data.
  process_options(p);
  process_ack_side(p);
  process_data_side(p);
}

void TcpEndpoint::become_established() {
  set_state(TcpState::kEstablished);
  metrics_.established_time = sim().now();
  syn_retries_ = 0;
  handle_established();
  if (on_established) on_established();
  pump();
}

void TcpEndpoint::process_options(const net::Packet& /*p*/) {}
void TcpEndpoint::decorate_outgoing(net::Packet& /*p*/) {}

void TcpEndpoint::process_ack_side(const net::Packet& p) {
  if (!p.tcp.has(net::kFlagAck)) return;
  peer_rwnd_ = p.tcp.wnd;
  if (!p.tcp.sack.empty()) process_sack(p.tcp.sack);

  const std::uint64_t ack = p.tcp.ack;
  if (ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    std::optional<sim::Duration> sample;
    bool fin_acked = false;
    while (!unacked_.empty()) {
      const auto& head = unacked_.front();
      const std::uint64_t seg_end = head.seq + head.val.len;
      if (seg_end > ack) break;
      const SegInfo& seg = head.val;
      if (seg.sacked) sacked_bytes_ -= seg.len;
      if (seg.lost) lost_bytes_ -= seg.len;
      if (seg.rexmits == 0) sample = sim().now() - seg.sent_time;  // Karn's rule
      if (seg.fin) fin_acked = true;
      unacked_.pop_front();
    }
    snd_una_ = ack;
    metrics_.bytes_acked += acked;
    dupacks_ = 0;
    consecutive_timeouts_ = 0;
    if (sample) rtt_sample(*sample);

    if (frto_active_) {
      if (ack > frto_rexmit_end_) {
        // Progress beyond the probe: original transmissions are arriving.
        frto_spurious();
      } else if (++frto_inconclusive_acks_ >= 2) {
        // Two ACKs stuck at the probe (RFC 5682 two-ACK discrimination):
        // only the retransmission got through — genuine loss.
        frto_genuine_loss();
      }
    }

    if (fin_acked) {
      if (state_ == TcpState::kLastAck) set_state(TcpState::kDone);
      // kFinWait: remain until the peer's FIN arrives (handled in data side).
    }

    if (in_recovery_) {
      if (ack >= recovery_point_) {
        in_recovery_ = false;
        recovery_is_loss_ = false;
      } else {
        // NewReno partial ACK: the next unacked segment is a hole.
        if (!unacked_.empty()) {
          SegInfo& hseg = unacked_.front().val;
          if (!hseg.sacked && !hseg.rexmitted_this_recovery && !hseg.lost) {
            hseg.lost = true;
            lost_bytes_ += hseg.len;
          }
        }
        if (recovery_is_loss_) cc_->on_ack(*this, acked);  // post-RTO slow start
      }
    } else {
      cc_->on_ack(*this, acked);
    }
    update_loss_marks();
    restart_rto_if_needed();
    pump();
    handle_forward_ack();
    return;
  }

  if (ack == snd_una_ && p.payload_bytes == 0 &&
      !p.tcp.has(net::kFlagSyn) && !p.tcp.has(net::kFlagFin) && snd_nxt_ > snd_una_) {
    const bool is_dsack = !p.tcp.sack.empty() && p.tcp.sack.front().end <= snd_una_;
    if (is_dsack) return;  // duplicate arrival, not a loss signal (RFC 2883)
    ++dupacks_;
    ++metrics_.dupacks;
    if (frto_active_) frto_genuine_loss();
    update_loss_marks();
    if (!in_recovery_ &&
        (dupacks_ >= kDupackThreshold ||
         sacked_bytes_ >= static_cast<std::uint64_t>(kDupackThreshold) * kMss)) {
      enter_recovery(/*loss_state=*/false);
    }
    pump();  // SACK may have freed pipe space
  }
}

void TcpEndpoint::process_sack(const net::SackList& blocks) {
  for (const net::SackBlock& b : blocks) {
    for (std::size_t i = unacked_.lower_bound(b.begin);
         i < unacked_.size() && unacked_.at(i).seq < b.end; ++i) {
      SegInfo& seg = unacked_.at(i).val;
      const std::uint64_t seg_end = unacked_.at(i).seq + seg.len;
      if (seg.sacked || seg_end > b.end) continue;
      seg.sacked = true;
      sacked_bytes_ += seg.len;
      if (seg.lost) {
        seg.lost = false;
        lost_bytes_ -= seg.len;
      }
      highest_sacked_ = std::max(highest_sacked_, seg_end);
    }
  }
}

void TcpEndpoint::update_loss_marks() {
  if (highest_sacked_ <= snd_una_) return;
  const std::uint64_t lookahead = static_cast<std::uint64_t>(kDupackThreshold - 1) * kMss;
  bool marked = false;
  for (std::size_t i = 0; i < unacked_.size(); ++i) {
    SegInfo& seg = unacked_.at(i).val;
    if (unacked_.at(i).seq + seg.len + lookahead > highest_sacked_) break;
    if (seg.sacked || seg.lost || seg.rexmitted_this_recovery) continue;
    seg.lost = true;
    lost_bytes_ += seg.len;
    marked = true;
  }
  if (marked && !in_recovery_) enter_recovery(/*loss_state=*/false);
}

void TcpEndpoint::enter_recovery(bool loss_state) {
  in_recovery_ = true;
  recovery_is_loss_ = loss_state;
  recovery_point_ = snd_nxt_;
  for (std::size_t i = 0; i < unacked_.size(); ++i) {
    unacked_.at(i).val.rexmitted_this_recovery = false;
  }
  if (loss_state) return;  // RTO path: cc_->on_rto already applied

  cc_->on_loss_event(*this);
  note_ssthresh_for_cache();
  ++metrics_.fast_retransmit_events;
  // Fast-retransmit the first unsacked hole immediately.
  for (std::size_t i = 0; i < unacked_.size(); ++i) {
    SegInfo& seg = unacked_.at(i).val;
    if (seg.sacked) continue;
    if (!seg.lost) {
      seg.lost = true;
      lost_bytes_ += seg.len;
    }
    retransmit(unacked_.at(i).seq);
    break;
  }
}

void TcpEndpoint::process_data_side(const net::Packet& p) {
  const std::uint64_t seq = p.tcp.seq;

  if (p.tcp.has(net::kFlagFin)) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = seq + p.payload_bytes;
  }

  bool need_ack = false;
  bool out_of_order = false;

  if (p.payload_bytes > 0) {
    ++metrics_.data_packets_received;
    need_ack = true;
    if (seq == rcv_nxt_) {
      deliver_from(seq, p.payload_bytes, p.tcp.dss_opt());
      deliver_in_order();
    } else if (seq > rcv_nxt_) {
      ++metrics_.out_of_order_packets;
      out_of_order = true;
      if (ooo_.insert(seq, RxSeg{p.payload_bytes, p.tcp.dss_opt()})) {
        ooo_bytes_ += p.payload_bytes;
      }
    } else if (seq + p.payload_bytes > rcv_nxt_) {
      // Partial overlap: a middlebox re-segmented the stream, so this
      // (re)transmission straddles the receive edge. Deliver the fresh tail —
      // treating it as a stale duplicate would discard those bytes forever
      // and wedge the sender in an RTO loop.
      deliver_from(seq, p.payload_bytes, p.tcp.dss_opt());
      deliver_in_order();
    } else {
      out_of_order = true;  // stale duplicate: ack immediately, report DSACK
      pending_dsack_ = net::SackBlock{seq, seq + p.payload_bytes};
    }
  }

  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    peer_fin_seen_ = false;
    need_ack = true;
    if (on_peer_fin) on_peer_fin();
    if (state_ == TcpState::kEstablished) {
      set_state(TcpState::kCloseWait);
    } else if (state_ == TcpState::kFinWait) {
      set_state(TcpState::kDone);
    }
  } else if (p.tcp.has(net::kFlagFin)) {
    need_ack = true;  // FIN arrived out of order; ack current rcv_nxt
  }

  if (need_ack) ack_received_data(out_of_order);
}

void TcpEndpoint::deliver_in_order() {
  while (!ooo_.empty()) {
    const auto& head = ooo_.front();
    const std::uint64_t seg_end = head.seq + head.val.len;
    if (seg_end <= rcv_nxt_) {
      // Fully superseded by an overlapping (re-segmented) delivery; a stale
      // head entry must not block the rest of the queue.
      ooo_bytes_ -= head.val.len;
      ooo_.pop_front();
      continue;
    }
    if (head.seq > rcv_nxt_) break;
    const std::uint64_t seq = head.seq;
    const RxSeg seg = head.val;
    ooo_bytes_ -= seg.len;
    ooo_.pop_front();
    deliver_from(seq, seg.len, seg.dss);
  }
}

void TcpEndpoint::deliver_from(std::uint64_t seq, std::uint32_t len,
                               std::optional<net::DssOption> dss) {
  const auto skip = static_cast<std::uint32_t>(rcv_nxt_ - seq);
  if (skip > 0 && dss && dss->length > 0) {
    // The DSS mapping covered the original segment; advance it past the
    // already-delivered prefix. Its checksum spanned the whole mapping and
    // cannot be verified against a fragment, so it no longer applies.
    dss->dsn += skip;
    dss->length = dss->length > skip ? dss->length - skip : 0;
    dss->has_checksum = false;
  }
  const std::uint32_t fresh = len - skip;
  metrics_.bytes_received += fresh;
  metrics_.last_data_rx_time = sim().now();
  handle_data(rcv_nxt_ - 1, fresh, dss);
  rcv_nxt_ += fresh;
}

void TcpEndpoint::handle_data(std::uint64_t offset, std::uint32_t len,
                              const std::optional<net::DssOption>& /*dss*/) {
  if (on_data) on_data(offset, len);
}

// --------------------------------------------------------------------------
// ACK generation.

void TcpEndpoint::ack_received_data(bool out_of_order) {
  if (out_of_order || quickack_left_ > 0) {
    send_ack_now();
    return;
  }
  if (++segs_since_ack_ >= 2) {
    send_ack_now();
    return;
  }
  if (!delack_timer_.armed()) {
    delack_timer_.arm_after(kDelackTimeout, [this] { send_ack_now(); });
  }
}

void TcpEndpoint::send_ack_now() {
  // A subflow may be aborted synchronously from inside its own handle_data
  // (checksum-failure teardown); the pending ACK must then die with it.
  if (state_ == TcpState::kClosed || state_ == TcpState::kDone) return;
  if (quickack_left_ > 0) --quickack_left_;
  segs_since_ack_ = 0;
  delack_timer_.cancel();
  net::PacketPtr p = make_packet(net::kFlagAck, snd_nxt_, 0);
  decorate_outgoing(*p);
  host_.send(std::move(p));
}

void TcpEndpoint::send_reset() {
  net::PacketPtr p = make_packet(net::kFlagRst | net::kFlagAck, snd_nxt_, 0);
  decorate_outgoing(*p);
  host_.send(std::move(p));
}

void TcpEndpoint::fill_sack_blocks(net::Packet& p) {
  // DSACK first (RFC 2883), then merged out-of-order runs (up to 3 total).
  if (pending_dsack_) {
    p.tcp.sack.push_back(*pending_dsack_);
    pending_dsack_.reset();
  }
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < ooo_.size(); ++i) {
    const std::uint64_t seq = ooo_.at(i).seq;
    const RxSeg& seg = ooo_.at(i).val;
    if (in_run && seq == run_end) {
      run_end += seg.len;
      continue;
    }
    if (in_run) {
      p.tcp.sack.push_back(net::SackBlock{run_begin, run_end});
      if (p.tcp.sack.size() >= 3) return;
    }
    run_begin = seq;
    run_end = seq + seg.len;
    in_run = true;
  }
  if (in_run && p.tcp.sack.size() < 3) {
    p.tcp.sack.push_back(net::SackBlock{run_begin, run_end});
  }
}

std::uint64_t TcpEndpoint::advertised_window() const {
  return config_.receive_buffer > ooo_bytes_ ? config_.receive_buffer - ooo_bytes_ : 0;
}

std::vector<TcpEndpoint::OutstandingMapping> TcpEndpoint::outstanding_mappings() const {
  std::vector<OutstandingMapping> out;
  out.reserve(unacked_.size());
  for (std::size_t i = 0; i < unacked_.size(); ++i) {
    const SegInfo& seg = unacked_.at(i).val;
    if (seg.dsn && !seg.fin) out.push_back(OutstandingMapping{*seg.dsn, seg.len});
  }
  return out;
}

// --------------------------------------------------------------------------
// Timers and RTT estimation.

void TcpEndpoint::arm_rto() {
  rto_timer_.arm_after(rto_, [this] { on_rto_timer(); });
}

void TcpEndpoint::restart_rto_if_needed() {
  if (snd_una_ < snd_nxt_) {
    arm_rto();
  } else {
    rto_timer_.cancel();
  }
}

void TcpEndpoint::on_rto_timer() {
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    const bool active_open = state_ == TcpState::kSynSent;
    if (++syn_retries_ > kMaxSynRetries) {
      set_state(TcpState::kClosed);
      if (active_open) handle_connect_failed();
      return;
    }
    send_syn(/*with_ack=*/state_ == TcpState::kSynReceived);
    rto_ = std::min(rto_ * 2, kMaxRto);
    arm_rto();
    return;
  }
  if (unacked_.empty()) return;

  ++metrics_.timeouts;
  ++consecutive_timeouts_;
  // Once the path looks dead, cap the exponential backoff: a blackout should
  // not push the probe interval to kMaxRto, or the flow sits idle long after
  // the link is restored (see kDeadRtoCap).
  const sim::Duration backoff_cap =
      consecutive_timeouts_ >= kDeadRtoThreshold ? kDeadRtoCap : kMaxRto;

  if (config_.frto_enabled) {
    // F-RTO: retransmit only the head and let the next ACKs decide whether
    // the timeout was spurious (delay spike) or a real loss.
    if (!frto_active_) {
      frto_prior_cwnd_ = cwnd_;
      frto_prior_ssthresh_ = ssthresh_;
    }
    cc_->on_rto(*this);
    note_ssthresh_for_cache();
    frto_active_ = true;
    frto_inconclusive_acks_ = 0;
    const auto& head = unacked_.front();
    frto_rexmit_end_ = head.seq + head.val.len;
    retransmit(head.seq);
    rto_ = std::min(rto_ * 2, backoff_cap);
    arm_rto();
    handle_rto();
    return;
  }

  cc_->on_rto(*this);
  note_ssthresh_for_cache();
  enter_recovery(/*loss_state=*/true);
  // Everything outstanding is presumed lost; retransmission is clocked by
  // the (collapsed) window as ACKs return.
  mark_all_outstanding_lost();
  retransmit(unacked_.front().seq);
  rto_ = std::min(rto_ * 2, backoff_cap);
  arm_rto();
  handle_rto();
}

void TcpEndpoint::mark_all_outstanding_lost() {
  for (std::size_t i = 0; i < unacked_.size(); ++i) {
    SegInfo& seg = unacked_.at(i).val;
    if (!seg.sacked && !seg.lost) {
      seg.lost = true;
      lost_bytes_ += seg.len;
    }
  }
}

void TcpEndpoint::frto_spurious() {
  // The original flight is being acknowledged: the timeout was a delay
  // spike. Undo the congestion response (RFC 5682 + RFC 4015 response).
  frto_active_ = false;
  cwnd_ = std::max(cwnd_, frto_prior_cwnd_);
  ssthresh_ = std::max(ssthresh_, frto_prior_ssthresh_);
}

void TcpEndpoint::frto_genuine_loss() {
  // Evidence of real loss after the RTO probe: fall back to conventional
  // go-back-N timeout recovery (window stays collapsed).
  frto_active_ = false;
  if (unacked_.empty()) return;
  enter_recovery(/*loss_state=*/true);
  mark_all_outstanding_lost();
}

void TcpEndpoint::note_ssthresh_for_cache() {
  // Linux caches the post-loss ssthresh for the destination; future
  // connections start from it (§3.1 — disabled on the paper's testbed).
  if (config_.metrics_cache != nullptr) {
    config_.metrics_cache->store_ssthresh(remote_.addr, ssthresh_);
  }
}

void TcpEndpoint::rtt_sample(sim::Duration sample) {
  metrics_.rtt_samples.push_back(sample);
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
  } else {
    const sim::Duration delta = sim::Duration::nanos(std::llabs((srtt_ - sample).ns()));
    rttvar_ = rttvar_ * 3 / 4 + delta / 4;
    srtt_ = srtt_ * 7 / 8 + sample / 8;
  }
  const sim::Duration candidate = srtt_ + std::max(rttvar_ * 4, kRtoGranularity);
  rto_ = std::clamp(candidate, kMinRto, kMaxRto);
}

}  // namespace mpr::tcp
