#include "kernels.h"

#include <algorithm>
#include <vector>

#include "analysis/qsketch.h"
#include "core/coupled_cc.h"
#include "core/reorder_buffer.h"
#include "net/link.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "tcp/seg_ring.h"

namespace perfbench {

namespace {

using mpr::sim::Duration;
using mpr::sim::TimePoint;

constexpr int kReps = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over kReps spans of (span time / operations). `body` runs one
/// repetition and returns its operation count.
template <typename Body>
double median_ns_per_op(SpanRecorder& rec, const char* name, Body&& body) {
  std::vector<double> per_op;
  for (int i = 0; i < kReps; ++i) {
    const int id = rec.begin(name);
    const std::uint64_t ops = body();
    rec.end(id);
    const Span& s = rec.spans()[static_cast<std::size_t>(id)];
    per_op.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                     static_cast<double>(std::max<std::uint64_t>(ops, 1)));
  }
  return median(std::move(per_op));
}

/// Near packet-hop events mixed with RTO-style timers that are re-armed
/// (cancel + schedule) every other hop and almost never fire.
std::uint64_t queue_kernel(const std::vector<std::int64_t>& hop_ns, std::uint64_t& sink) {
  mpr::sim::EventQueue q;
  std::uint64_t ops = 0;
  mpr::sim::EventId rto = mpr::sim::kInvalidEventId;
  for (std::size_t i = 0; i < hop_ns.size(); ++i) {
    q.schedule_after(Duration::nanos(hop_ns[i]), [&sink] { ++sink; });
    ++ops;
    if (i % 2 == 0) {
      if (rto != mpr::sim::kInvalidEventId) {
        q.cancel(rto);
        ++ops;
      }
      rto = q.schedule_after(Duration::millis(200), [&sink] { sink += 2; });
      ++ops;
    }
    while (q.pending() > 32) {
      q.step();
      ++ops;
    }
  }
  while (q.step()) ++ops;
  return ops;
}

/// Bursts of pooled packets through one Link until the simulation drains.
std::uint64_t link_kernel(std::size_t packets, std::uint64_t seed, std::uint64_t& sink) {
  mpr::sim::Simulation sim{seed};
  mpr::net::PacketPool& pool = sim.service<mpr::net::PacketPool>();
  mpr::net::Link link{sim,
                      mpr::net::Link::Config{.name = "perfbench",
                                             .rate_bps = 100e6,
                                             .prop_delay = Duration::millis(5),
                                             .queue_capacity_bytes = 1 << 20},
                      [&sink](mpr::net::PacketPtr p) { sink += p->payload_bytes; }};
  std::size_t sent = 0;
  while (sent < packets) {
    for (int k = 0; k < 64 && sent < packets; ++k, ++sent) {
      mpr::net::PacketPtr p = pool.acquire();
      p->payload_bytes = 1400;
      link.send(std::move(p));
    }
    sim.run();
  }
  return packets;
}

struct SegVal {
  std::uint32_t len{0};
  std::int64_t sent_ns{0};
  bool sacked{false};
};

/// Send-window flights: push a window, SACK-probe into it, retire it from
/// the front as a cumulative ACK would.
std::uint64_t seg_ring_kernel(const std::vector<std::uint32_t>& probes, std::size_t flights,
                              std::size_t window, std::uint64_t& sink) {
  mpr::tcp::SegRing<SegVal> ring;
  std::uint64_t seq = 0;
  for (std::size_t f = 0; f < flights; ++f) {
    for (std::size_t w = 0; w < window; ++w) {
      ring.push_back(seq, SegVal{1400, static_cast<std::int64_t>(seq), false});
      seq += 1400;
    }
    const std::uint64_t base = ring.front().seq;
    for (const std::uint32_t p : probes) {
      if (SegVal* v = ring.find(base + std::uint64_t{p} * 1400)) {
        v->sacked = true;
        ++sink;
      }
    }
    while (!ring.empty()) ring.pop_front();
  }
  return flights * window;
}

struct Arrival {
  std::uint64_t dsn;
  std::int64_t at_ns;
  std::uint8_t path;
};

/// Two paths interleaved at a WiFi/LTE-like lag: the DSN space is striped
/// over both, and the slower path's segments arrive tens of ms late.
std::vector<Arrival> reorder_arrivals(std::size_t n, mpr::sim::Rng& rng) {
  std::vector<Arrival> v;
  v.reserve(n);
  std::int64_t last[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t path = rng.chance(0.6) ? 0 : 1;
    const double owd_ms = path == 0 ? 10.0 + rng.uniform(0.0, 2.0) : 40.0 + rng.uniform(0.0, 20.0);
    std::int64_t at = static_cast<std::int64_t>(i) * 100'000 +
                      static_cast<std::int64_t>(owd_ms * 1e6);
    at = std::max(at, last[path]);  // each path delivers in order
    last[path] = at;
    v.push_back(Arrival{std::uint64_t{i} * 1400, at, path});
  }
  std::stable_sort(v.begin(), v.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_ns < b.at_ns; });
  return v;
}

std::uint64_t reorder_kernel(const std::vector<Arrival>& arrivals, std::uint64_t& sink) {
  mpr::core::ReorderBuffer rb{std::uint64_t{64} * 1024 * 1024};
  rb.on_deliver = [&sink](std::uint64_t, std::uint32_t len) { sink += len; };
  for (const Arrival& a : arrivals) {
    rb.insert(a.dsn, 1400, TimePoint::from_ns(a.at_ns), a.path);
  }
  return arrivals.size();
}

/// A congestion-control flow with the state the controllers read.
class BenchFlow final : public mpr::tcp::FlowCc {
 public:
  explicit BenchFlow(Duration srtt) : srtt_{srtt} {}
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double w) override { cwnd_ = w; }
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  void set_ssthresh_bytes(std::uint64_t s) override { ssthresh_ = s; }
  [[nodiscard]] std::uint32_t mss() const override { return 1400; }
  [[nodiscard]] Duration srtt() const override { return srtt_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const override {
    return static_cast<std::uint64_t>(cwnd_);
  }

 private:
  double cwnd_{10.0 * 1400};
  std::uint64_t ssthresh_{20 * 1400};
  Duration srtt_;
};

/// ACKs on a WiFi-like and an LTE-like subflow of one coupled controller,
/// with a loss event every `loss_every` ACKs to keep windows bounded.
std::uint64_t cc_kernel(mpr::tcp::CongestionControl& cc, std::size_t acks,
                        std::size_t loss_every, std::uint64_t& sink) {
  BenchFlow wifi{Duration::millis(20)};
  BenchFlow lte{Duration::millis(60)};
  cc.register_flow(wifi);
  cc.register_flow(lte);
  for (std::size_t i = 0; i < acks; ++i) {
    BenchFlow& f = i % 3 == 0 ? lte : wifi;
    cc.on_ack(f, 1400);
    if (i % loss_every == loss_every - 1) cc.on_loss_event(f);
  }
  sink += static_cast<std::uint64_t>(wifi.cwnd_bytes() + lte.cwnd_bytes());
  cc.unregister_flow(wifi);
  cc.unregister_flow(lte);
  return acks;
}

}  // namespace

KernelResults run_kernels(std::uint64_t seed, bool tiny, SpanRecorder& rec) {
  const mpr::sim::SeedSequence gen{seed};
  const std::size_t scale = tiny ? 50 : 1;
  KernelResults k;
  std::uint64_t& sink = k.checksum;

  {
    mpr::sim::Rng rng = gen.stream("perfbench.kernel.queue");
    std::vector<std::int64_t> hops(400'000 / scale);
    for (std::int64_t& h : hops) h = 50'000 + rng.uniform_int(0, 5'000'000);
    k.queue_ns_per_op =
        median_ns_per_op(rec, "kernel.sim.queue", [&] { return queue_kernel(hops, sink); });
  }
  k.link_ns_per_packet = median_ns_per_op(rec, "kernel.net.link", [&] {
    return link_kernel(200'000 / scale, gen.seed_for("perfbench.kernel.link"), sink);
  });
  {
    mpr::sim::Rng rng = gen.stream("perfbench.kernel.seg_ring");
    constexpr std::size_t kWindow = 256;
    std::vector<std::uint32_t> probes(kWindow / 4);
    for (std::uint32_t& p : probes) p = static_cast<std::uint32_t>(rng.uniform_int(0, kWindow - 1));
    k.seg_ring_ns_per_seg = median_ns_per_op(rec, "kernel.tcp.seg_ring", [&] {
      return seg_ring_kernel(probes, 2000 / scale, kWindow, sink);
    });
  }
  {
    mpr::sim::Rng rng = gen.stream("perfbench.kernel.reorder");
    const std::vector<Arrival> arrivals = reorder_arrivals(200'000 / scale, rng);
    k.reorder_ns_per_insert = median_ns_per_op(rec, "kernel.core.reorder",
                                               [&] { return reorder_kernel(arrivals, sink); });
  }
  k.cc_ns_per_ack = median_ns_per_op(rec, "kernel.core.cc", [&] {
    mpr::core::LiaCc lia;
    mpr::core::OliaCc olia;
    const std::size_t acks = 300'000 / scale;
    return cc_kernel(lia, acks, 500, sink) + cc_kernel(olia, acks, 500, sink);
  });
  {
    mpr::sim::Rng rng = gen.stream("perfbench.kernel.sketch");
    std::vector<double> samples(400'000 / scale);
    for (double& s : samples) s = rng.lognormal_median(50.0, 1.5);
    k.sketch_ns_per_sample = median_ns_per_op(rec, "kernel.analysis.sketch", [&] {
      mpr::analysis::QSketch sk;
      for (const double s : samples) sk.add(s);
      sink += sk.count();
      return std::uint64_t{samples.size()};
    });
  }
  return k;
}

}  // namespace perfbench
