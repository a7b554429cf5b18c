// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// event queue, reorder buffer, congestion-controller math, and a full
// end-to-end download as a macro smoke benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/coupled_cc.h"
#include "core/reorder_buffer.h"
#include "experiment/run.h"
#include "net/link.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "sim/flat_vec.h"
#include "sim/simulation.h"
#include "sim/timing_wheel.h"
#include "tcp/seg_ring.h"

namespace {

using namespace mpr;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(sim::TimePoint::from_ns(static_cast<std::int64_t>((i * 2654435761u) % n)),
                    [&sum, i] { sum += i; });
    }
    q.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      ids.push_back(q.schedule_after(sim::Duration::nanos(i), [] {}));
    }
    for (const sim::EventId id : ids) q.cancel(id);
    q.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_EventQueueCancel);

void BM_TimerWheelArmCancel(benchmark::State& state) {
  // The RTO pattern: every "ACK" cancels the pending far timer and re-arms
  // it, while near events keep the clock moving. Fired timers are the rare
  // exception; arm/cancel churn is the cost that matters.
  for (auto _ : state) {
    sim::EventQueue q;
    sim::EventId timer = sim::kInvalidEventId;
    int remaining = 4096;
    std::function<void()> ack = [&] {
      if (timer != sim::kInvalidEventId) q.cancel(timer);
      timer = q.schedule_after(sim::Duration::millis(200), [&] {
        timer = sim::kInvalidEventId;
      });
      if (--remaining > 0) q.schedule_after(sim::Duration::micros(100), ack);
    };
    q.schedule_at(sim::TimePoint::from_ns(0), [&] { ack(); });
    q.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TimerWheelArmCancel);

// The queue loaded the way a download loads it, unlike the rows above,
// which hold thousands of events at once: three FIFO links, each with one
// pending service event and one pending delivery, and an RTO-style timer
// cancelled and re-armed 200 ms ahead on every other delivery. As in
// net::Link, a served packet reserves its seq and waits in its link's
// lane 0.5-12 ms for its arrival; only the lane's head is filed, under
// its reserved seq, and its delivery files the next one. Each link's
// sender keeps a window of packets in flight that grows by one per
// delivery and restarts from one at its cap (3, 6 and 8 packets). The
// counters report the near-term run's length at each delivery.
class DownloadShapedLoad {
 public:
  explicit DownloadShapedLoad(int deliveries) : deliveries_left_{deliveries} {
    for (int i = 0; i < kLinks; ++i) send(i);
  }

  std::uint64_t run() {
    q_.run();
    return q_.executed();
  }
  [[nodiscard]] std::size_t run_length_sum() const { return run_length_sum_; }
  [[nodiscard]] std::size_t run_length_max() const { return run_length_max_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  // A served packet: arrives at `when` under the seq reserved at its
  // service end.
  struct InFlight {
    sim::TimePoint when;
    std::uint64_t seq;
  };
  struct Link {
    sim::Duration tx;    // serialization time of one packet
    sim::Duration prop;  // delivery delay once served
    int cap;             // window cap, in packets
    int window{1};
    int in_flight{0};  // sent, not yet delivered
    int queued{0};     // waiting for or in service
  };
  static constexpr int kLinks = 3;

  // The sender fills the window; an idle link starts serving.
  void send(int i) {
    Link& l = links_[i];
    const bool idle = l.queued == 0;
    const int room = l.window - l.in_flight;
    if (room <= 0) return;
    l.in_flight += room;
    l.queued += room;
    if (idle) q_.schedule_after(l.tx, [this, i] { serve(i); });
  }

  // One packet leaves the link's FIFO and joins its lane; the next one
  // starts service.
  void serve(int i) {
    Link& l = links_[i];
    lanes_[i].push_back(InFlight{q_.now() + l.prop, q_.reserve_seq()});
    if (lanes_[i].size() == 1) file_head(i);
    if (--l.queued > 0) q_.schedule_after(l.tx, [this, i] { serve(i); });
  }

  void file_head(int i) {
    const InFlight& head = lanes_[i].front();
    q_.schedule_reserved(head.when, head.seq, [this, i] { deliver(i); });
  }

  void deliver(int i) {
    run_length_sum_ += q_.near_size();
    run_length_max_ = std::max(run_length_max_, q_.near_size());
    ++samples_;
    lanes_[i].pop_front();
    if (!lanes_[i].empty()) file_head(i);
    Link& l = links_[i];
    --l.in_flight;
    l.window = l.window >= l.cap ? 1 : l.window + 1;
    if (--deliveries_left_ % 2 == 0) {
      q_.cancel(rto_);
      rto_ = q_.schedule_after(sim::Duration::millis(200), [this] { rto_ = sim::kInvalidEventId; });
    }
    if (deliveries_left_ > 0) send(i);
  }

  sim::EventQueue q_;
  Link links_[kLinks]{{sim::Duration::micros(100), sim::Duration::micros(500), 3},
                      {sim::Duration::micros(300), sim::Duration::millis(4), 6},
                      {sim::Duration::micros(200), sim::Duration::millis(12), 8}};
  sim::FlatRing<InFlight> lanes_[kLinks];  // served, not yet delivered; front() is filed
  sim::EventId rto_{sim::kInvalidEventId};
  int deliveries_left_;
  std::size_t run_length_sum_{0};
  std::size_t run_length_max_{0};
  std::size_t samples_{0};
};

void BM_EventQueueDownloadShape(benchmark::State& state) {
  std::uint64_t events = 0;
  double mean = 0;
  double max = 0;
  for (auto _ : state) {
    DownloadShapedLoad load{20000};
    events += load.run();
    mean = static_cast<double>(load.run_length_sum()) / static_cast<double>(load.samples());
    max = static_cast<double>(load.run_length_max());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["run_mean"] = mean;
  state.counters["run_max"] = max;
}
BENCHMARK(BM_EventQueueDownloadShape);

void BM_UnackedTracking(benchmark::State& state) {
  // The sender's retransmission-state loop in isolation: append a flight of
  // MSS segments at snd_nxt, then retire it front-to-back on cumulative
  // ACKs, with a SACK-style ordered probe per flight. This is the pattern
  // unacked_ (tcp/seg_ring.h) sees on every RTT of a backlog transfer.
  struct Seg {
    std::uint32_t len{0};
    std::int64_t sent_ns{0};
    bool sacked{false};
    bool lost{false};
  };
  constexpr std::uint32_t kMss = 1400;
  constexpr int kFlight = 64;
  constexpr int kFlights = 256;
  for (auto _ : state) {
    tcp::SegRing<Seg> unacked;
    std::uint64_t snd_nxt = 1;
    std::uint64_t bytes = 0;
    for (int f = 0; f < kFlights; ++f) {
      for (int i = 0; i < kFlight; ++i) {
        unacked.push_back(snd_nxt, Seg{kMss, f, false, false});
        snd_nxt += kMss;
      }
      // One ordered probe per flight (SACK scan over the second half).
      const std::size_t mid = unacked.lower_bound(snd_nxt - kFlight / 2 * kMss);
      for (std::size_t i = mid; i < unacked.size(); ++i) {
        benchmark::DoNotOptimize(unacked.at(i).val.sacked);
      }
      // Cumulative ACK retires the whole flight.
      while (!unacked.empty() && unacked.front().seq + kMss <= snd_nxt) {
        bytes += unacked.front().val.len;
        unacked.pop_front();
      }
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kFlights * kFlight);
}
BENCHMARK(BM_UnackedTracking);

void BM_ReorderBufferInOrder(benchmark::State& state) {
  for (auto _ : state) {
    core::ReorderBuffer rb{8 << 20};
    for (std::uint64_t i = 0; i < 10000; ++i) {
      rb.insert(i * 1400, 1400, sim::TimePoint::from_ns(static_cast<std::int64_t>(i)), 0);
    }
    benchmark::DoNotOptimize(rb.delivered_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_ReorderBufferInOrder);

void BM_ReorderBufferInterleaved(benchmark::State& state) {
  // Two-path interleave: every second segment arrives one slot early.
  for (auto _ : state) {
    core::ReorderBuffer rb{8 << 20};
    for (std::uint64_t i = 0; i < 10000; i += 2) {
      rb.insert((i + 1) * 1400, 1400, sim::TimePoint::from_ns(static_cast<std::int64_t>(i)), 1);
      rb.insert(i * 1400, 1400, sim::TimePoint::from_ns(static_cast<std::int64_t>(i)), 0);
    }
    benchmark::DoNotOptimize(rb.ofo_samples().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_ReorderBufferInterleaved);

void BM_ReorderBufferLossyLag(benchmark::State& state) {
  // Two paths striped segment by segment, the second 20 slots behind the
  // first. One segment in ~100 (every 50th of the lagging path) is lost and
  // refilled 50 slots later: the lagging segments that arrive behind the
  // hole, and the refill itself, land mid-buffer (binary search plus tail
  // shift) instead of appending.
  constexpr std::uint64_t kSegments = 10000;
  struct Arrival {
    std::uint64_t slot;
    std::uint64_t seg;
    std::uint8_t path;
  };
  std::vector<Arrival> arrivals;
  arrivals.reserve(kSegments);
  for (std::uint64_t i = 0; i < kSegments; ++i) {
    const auto path = static_cast<std::uint8_t>(i % 2);
    std::uint64_t slot = path == 0 ? i : i + 20;
    if (i % 100 == 1) slot += 50;
    arrivals.push_back(Arrival{slot, i, path});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) { return a.slot < b.slot; });
  for (auto _ : state) {
    core::ReorderBuffer rb{8 << 20};
    for (const Arrival& a : arrivals) {
      rb.insert(a.seg * 1400, 1400,
                sim::TimePoint::from_ns(static_cast<std::int64_t>(a.slot) * 100'000), a.path);
    }
    benchmark::DoNotOptimize(rb.ofo_samples().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSegments);
}
BENCHMARK(BM_ReorderBufferLossyLag);

class BenchFlow final : public tcp::FlowCc {
 public:
  double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double w) override { cwnd_ = w; }
  std::uint64_t ssthresh_bytes() const override { return 1000; }
  void set_ssthresh_bytes(std::uint64_t) override {}
  std::uint32_t mss() const override { return 1400; }
  sim::Duration srtt() const override { return sim::Duration::millis(50); }
  std::uint64_t bytes_in_flight() const override { return 1 << 20; }

 private:
  double cwnd_{100 * 1400.0};
};

template <typename Cc>
void BM_CongestionOnAck(benchmark::State& state) {
  Cc cc;
  BenchFlow flows[4];
  for (auto& f : flows) cc.register_flow(f);
  std::size_t i = 0;
  for (auto _ : state) {
    cc.on_ack(flows[i++ & 3], 1400);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CongestionOnAck<tcp::NewRenoCc>);
BENCHMARK(BM_CongestionOnAck<core::LiaCc>);
BENCHMARK(BM_CongestionOnAck<core::OliaCc>);

// Packet-path microbenches: the pool recycle loop and a saturated link.

void BM_PacketScan(benchmark::State& state) {
  // The queue-admission / drop-decision / energy-accounting pattern: walk a
  // population of in-flight packets reading wire_bytes() on each. With the
  // hot/cold split this touches only the first cache line per packet (cold
  // option sizes are cached at set/clear time); before it, the scan chased
  // seven std::optional members spread over the whole struct.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<net::Packet> packets(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::Packet& p = packets[i];
    p.payload_bytes = 1400;
    p.tcp.seq = i * 1400;
    net::DssOption& dss = p.tcp.ensure_dss();
    dss.dsn = i * 1400;
    dss.length = 1400;
    if (i % 16 == 0) p.tcp.set_mp_capable(net::MpCapableOption{1, 2});  // rare cold option
    if (i % 4 == 0) p.tcp.sack.push_back(net::SackBlock{0, 1400});
  }
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    for (const net::Packet& p : packets) bytes += p.wire_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["sizeof_Packet"] = sizeof(net::Packet);
  state.counters["sizeof_TcpSegment"] = sizeof(net::TcpSegment);
}
BENCHMARK(BM_PacketScan)->Arg(1024)->Arg(65536);

void BM_SegmentOptionAccess(benchmark::State& state) {
  // The receive-side process_options pattern: every packet is interrogated
  // for its DSS mapping, and the cold options only behind the one-byte
  // has_any_option() gate. Packets alternate data (DSS only) and bare ACKs.
  constexpr std::size_t kPackets = 4096;
  std::vector<net::Packet> packets(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    net::Packet& p = packets[i];
    if (i % 2 == 0) {
      p.payload_bytes = 1400;
      net::DssOption& dss = p.tcp.ensure_dss();
      dss.dsn = i * 1400;
      dss.length = 1400;
      dss.has_data_ack = true;
      dss.data_ack = i * 700;
    }
    if (i % 64 == 0) p.tcp.set_add_addr(net::AddAddrOption{net::IpAddr{9}, 1});
  }
  for (auto _ : state) {
    std::uint64_t dsn_sum = 0;
    std::uint64_t cold_hits = 0;
    for (net::Packet& p : packets) {
      if (const net::DssOption* dss = p.tcp.dss()) dsn_sum += dss->dsn;
      if (p.tcp.has_any_option()) {
        if (p.tcp.mp_capable() != nullptr) ++cold_hits;
        if (p.tcp.mp_join() != nullptr) ++cold_hits;
        if (p.tcp.add_addr() != nullptr) ++cold_hits;
        if (p.tcp.remove_addr() != nullptr) ++cold_hits;
        if (p.tcp.mp_prio() != nullptr) ++cold_hits;
        if (p.tcp.mp_fail() != nullptr) ++cold_hits;
      }
    }
    benchmark::DoNotOptimize(dsn_sum);
    benchmark::DoNotOptimize(cold_hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kPackets);
}
BENCHMARK(BM_SegmentOptionAccess);

void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  net::PacketPool pool;
  // Prime: steady state never sees a pool miss.
  { net::PacketPtr warm = pool.acquire(); }
  for (auto _ : state) {
    net::PacketPtr p = pool.acquire();
    p->payload_bytes = 1400;
    benchmark::DoNotOptimize(p.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketPoolAcquireRelease);

void BM_LinkPacketPath(benchmark::State& state) {
  // Serialize-and-deliver 10k packets through one Link per iteration:
  // enqueue, service, propagation, delivery — the per-hop hot path.
  constexpr int kPackets = 10000;
  for (auto _ : state) {
    sim::Simulation sim;
    net::PacketPool& pool = sim.service<net::PacketPool>();
    std::uint64_t delivered = 0;
    net::Link link{sim,
                   net::Link::Config{.name = "bench",
                                     .rate_bps = 1e9,
                                     .prop_delay = sim::Duration::micros(50),
                                     .queue_capacity_bytes = 64 * 1024 * 1024},
                   [&delivered](net::PacketPtr p) { delivered += p->payload_bytes; }};
    for (int i = 0; i < kPackets; ++i) {
      net::PacketPtr p = pool.acquire();
      p->payload_bytes = 1400;
      link.send(std::move(p));
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kPackets);
}
BENCHMARK(BM_LinkPacketPath);

void BM_FullDownloadMptcp2(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    experiment::TestbedConfig tb;
    tb.seed = seed++;
    experiment::RunConfig rc;
    rc.mode = experiment::PathMode::kMptcp2;
    rc.file_bytes = bytes;
    const experiment::RunResult r = experiment::run_download(tb, rc);
    benchmark::DoNotOptimize(r.download_time_s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FullDownloadMptcp2)->Arg(512 * 1024)->Arg(4 << 20)->Unit(benchmark::kMillisecond);

// The acceptance-criteria bench: a 32 MB two-path download with backlog-style
// settings (no slow-start cliff at this size), reported as events/sec.
void BM_BacklogDownload32MB(benchmark::State& state) {
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::TestbedConfig tb;
    tb.seed = seed++;
    experiment::RunConfig rc;
    rc.mode = experiment::PathMode::kMptcp2;
    rc.cc = core::CcKind::kReno;
    rc.file_bytes = 32ull << 20;
    rc.timeout = sim::Duration::seconds(7200);
    const std::uint64_t before = sim::EventQueue::total_executed();
    const experiment::RunResult r = experiment::run_download(tb, rc);
    events += sim::EventQueue::total_executed() - before;
    benchmark::DoNotOptimize(r.download_time_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items=events");
}
BENCHMARK(BM_BacklogDownload32MB)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
