#include "netem/middlebox.h"

#include <algorithm>
#include <utility>

namespace mpr::netem {

Middlebox::Middlebox(sim::Simulation& sim, std::string name)
    : sim_{sim}, name_{std::move(name)} {}

void Middlebox::attach_uplink(net::Link& link) {
  up_.link = &link;
  link.set_ingress([this](net::PacketPtr p) { process(std::move(p), up_); });
}

void Middlebox::attach_downlink(net::Link& link) {
  down_.link = &link;
  link.set_ingress([this](net::PacketPtr p) { process(std::move(p), down_); });
}

void Middlebox::set_coalesce_hold(sim::Duration hold) {
  coalesce_hold_ = hold;
  if (hold <= sim::Duration::zero()) {
    flush(up_);
    flush(down_);
  }
}

void Middlebox::reset_behaviour() {
  strip_ = Strip::kOff;
  nat_offset_ = 0;
  split_every_ = 0;
  corrupt_every_ = 0;
  set_coalesce_hold(sim::Duration::zero());
}

void Middlebox::process(net::PacketPtr p, Dir& d) {
  ++tally(*p).packets_seen;
  strip_options(*p);
  if (nat_offset_ != 0) rewrite_nat(*p, d);
  maybe_corrupt(*p, d);
  if (coalesce_hold_ > sim::Duration::zero()) {
    coalesce_or_emit(std::move(p), d);
    return;
  }
  flush(d);  // drain a segment held before coalescing was disabled
  emit(std::move(p), d);
}

void Middlebox::strip_options(net::Packet& p) {
  // Strips one option if present: the presence bit gates the clear, and
  // every clear is counted as one stripped option.
  const auto drop = [this, &p](net::TcpSegment::OptBit bit, auto clear) {
    if (p.tcp.has_opt(bit)) {
      (p.tcp.*clear)();
      ++tally(p).options_stripped;
    }
  };
  using Seg = net::TcpSegment;
  switch (strip_) {
    case Strip::kOff:
      return;
    case Strip::kSyn:
      if (p.tcp.has(net::kFlagSyn)) {
        drop(Seg::kOptMpCapable, &Seg::clear_mp_capable);
        drop(Seg::kOptMpJoin, &Seg::clear_mp_join);
      }
      return;
    case Strip::kJoin:
      if (p.tcp.has(net::kFlagSyn)) drop(Seg::kOptMpJoin, &Seg::clear_mp_join);
      return;
    case Strip::kAll:
      drop(Seg::kOptMpCapable, &Seg::clear_mp_capable);
      drop(Seg::kOptMpJoin, &Seg::clear_mp_join);
      drop(Seg::kOptAddAddr, &Seg::clear_add_addr);
      drop(Seg::kOptRemoveAddr, &Seg::clear_remove_addr);
      drop(Seg::kOptMpPrio, &Seg::clear_mp_prio);
      drop(Seg::kOptMpFail, &Seg::clear_mp_fail);
      drop(Seg::kOptDss, &Seg::clear_dss);
      return;
  }
}

void Middlebox::rewrite_nat(net::Packet& p, const Dir& d) {
  // Client-side NAT: the client's sequence space is shifted on the way out;
  // acknowledgements of that space are shifted back on the way in, so the
  // rewrite is invisible to both endpoints at the TCP level.
  if (d.up) {
    p.tcp.seq += nat_offset_;
  } else {
    if (p.tcp.has(net::kFlagAck)) p.tcp.ack -= std::min(p.tcp.ack, nat_offset_);
    for (auto& b : p.tcp.sack) {
      b.begin -= std::min(b.begin, nat_offset_);
      b.end -= std::min(b.end, nat_offset_);
    }
  }
  ++tally(p).seq_rewrites;
}

void Middlebox::maybe_corrupt(net::Packet& p, Dir& d) {
  if (corrupt_every_ == 0 || p.payload_bytes == 0) return;
  if (++d.corrupt_seen < corrupt_every_) return;
  d.corrupt_seen = 0;
  ++tally(p).payloads_corrupted;
  // Payload is a byte count in this model, so corruption shows up as a
  // DSS-checksum mismatch when checksums are on and passes silently when
  // they are off — exactly the detectability RFC 6824 §3.3 buys.
  if (net::DssOption* dss = p.tcp.dss(); dss != nullptr && dss->has_checksum) {
    dss->checksum ^= 0x1;
  }
}

void Middlebox::coalesce_or_emit(net::PacketPtr p, Dir& d) {
  const bool holdable = p->payload_bytes > 0 && !p->tcp.has(net::kFlagSyn) &&
                        !p->tcp.has(net::kFlagFin) && !p->tcp.has(net::kFlagRst);
  if (!holdable) {
    flush(d);
    emit(std::move(p), d);
    return;
  }
  if (d.held) {
    const bool contiguous = d.held->flow() == p->flow() &&
                            d.held->tcp.seq + d.held->payload_bytes == p->tcp.seq;
    if (contiguous) {
      // Merge keeps the first segment's options: its DSS mapping now covers
      // less payload than the segment carries — the interference we model.
      d.held->payload_bytes += p->payload_bytes;
      d.held->tcp.ack = std::max(d.held->tcp.ack, p->tcp.ack);
      d.held->tcp.wnd = p->tcp.wnd;
      ++tally(*p).segments_coalesced;
      p.reset();
      flush(d);
      return;
    }
    flush(d);
  }
  d.held = std::move(p);
  // One-shot flush so the tail segment of a burst never stalls here.
  d.hold_timer.arm_after(coalesce_hold_, [this, &d] { flush(d); });
}

void Middlebox::flush(Dir& d) {
  d.hold_timer.cancel();
  if (!d.held) return;
  emit(std::move(d.held), d);
}

void Middlebox::emit(net::PacketPtr p, Dir& d) {
  if (split_every_ > 0 && p->payload_bytes >= 2 && !p->tcp.has(net::kFlagSyn) &&
      !p->tcp.has(net::kFlagRst) && ++d.split_seen >= split_every_) {
    d.split_seen = 0;
    ++tally(*p).segments_split;
    const std::uint32_t first_len = p->payload_bytes / 2;
    net::PacketPtr rest = sim_.service<net::PacketPool>().acquire();
    rest->uid = p->uid;
    rest->src = p->src;
    rest->dst = p->dst;
    rest->tcp.src_port = p->tcp.src_port;
    rest->tcp.dst_port = p->tcp.dst_port;
    rest->tcp.seq = p->tcp.seq + first_len;
    rest->tcp.ack = p->tcp.ack;
    rest->tcp.wnd = p->tcp.wnd;
    rest->tcp.flags = p->tcp.flags;
    rest->payload_bytes = p->payload_bytes - first_len;
    rest->is_retransmit = p->is_retransmit;
    rest->cross_traffic = p->cross_traffic;
    rest->first_sent_time = p->first_sent_time;
    // The head half keeps every option (its DSS mapping now over-covers);
    // the tail half carries none and inherits a FIN if one was present.
    p->tcp.flags &= static_cast<std::uint8_t>(~net::kFlagFin);
    p->payload_bytes = first_len;
    d.link->send_direct(std::move(p));
    d.link->send_direct(std::move(rest));
    return;
  }
  d.link->send_direct(std::move(p));
}

}  // namespace mpr::netem
