// Unidirectional link: drop-tail byte queue -> serialization at a (possibly
// time-varying) rate -> wire loss -> propagation delay (+ per-packet extra
// delay, e.g. link-layer ARQ stalls) -> delivery.
//
// Delivery order is FIFO even when extra delay varies: cellular RLC delivers
// in sequence, so a delayed packet head-of-line blocks the ones behind it.
// This is the mechanism behind the RTT spikes the paper observes on 3G.
//
// Served packets wait for their arrival in one FIFO lane, and only the
// lane's head has an event pending: its delivery files the next one. Each
// packet's seq is reserved when its service ends, so every delivery runs
// at the (time, seq) an event scheduled then would have. The FIFO floor
// makes the lane's (time, seq) pairs rise, so the head is always filed
// before the queue reaches anything ordered after it.
//
// Cross-traffic packets (Packet::cross_traffic) go through every step up
// to delivery — queue, airtime, wire loss, extra delay, the FIFO floor,
// Stats — and are then released: nothing receives them, so they never
// enter the lane.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/loss.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/flat_vec.h"
#include "sim/simulation.h"

namespace mpr::net {

class Link {
 public:
  struct Config {
    std::string name{"link"};
    double rate_bps{10e6};
    sim::Duration prop_delay{sim::Duration::millis(5)};
    std::uint64_t queue_capacity_bytes{256 * 1024};
  };

  struct Stats {
    std::uint64_t packets_offered{0};
    std::uint64_t packets_delivered{0};
    std::uint64_t packets_dropped_queue{0};
    std::uint64_t packets_dropped_wire{0};
    std::uint64_t bytes_delivered{0};
  };

  using DeliverFn = std::function<void(PacketPtr)>;
  /// Returns current service rate in bits/s. Consulted at each service start.
  using RateFn = std::function<double()>;
  /// Extra one-way delay added to a packet (ARQ retransmission stalls etc.).
  using ExtraDelayFn = std::function<sim::Duration()>;
  /// Earliest time service may start (radio promotion gate). Also informs the
  /// gate that traffic is flowing (refreshes inactivity timers).
  using GateFn = std::function<sim::TimePoint(sim::TimePoint now)>;
  /// Ingress interceptor (middlebox). Receives every packet offered to the
  /// link *before* queueing/serialization, so a mangled packet serializes at
  /// its post-mangle wire size. The interceptor forwards (possibly other)
  /// packets via send_direct(), or swallows them.
  using IngressFn = std::function<void(PacketPtr)>;

  Link(sim::Simulation& sim, Config config, DeliverFn deliver);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet to the queue; drops (recycles) if the queue is full.
  /// Routed through the ingress interceptor when one is installed.
  void send(PacketPtr p);

  /// Offers a packet to the queue, bypassing the ingress interceptor.
  void send_direct(PacketPtr p);

  void set_ingress(IngressFn f) { ingress_ = std::move(f); }

  void set_loss_model(std::unique_ptr<LossModel> m) { loss_ = std::move(m); }
  /// Replaces the queue discipline (default: DropTailQueue of
  /// queue_capacity_bytes). Must be called before traffic flows.
  void set_queue_discipline(std::unique_ptr<QueueDiscipline> q);
  void set_rate_fn(RateFn f) { rate_fn_ = std::move(f); }
  void set_extra_delay_fn(ExtraDelayFn f) { extra_delay_fn_ = std::move(f); }
  void set_gate_fn(GateFn f) { gate_fn_ = std::move(f); }
  /// Observer invoked for every wire drop (loss-model drops), for tracing.
  void set_drop_observer(std::function<void(const Packet&)> f) { drop_observer_ = std::move(f); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  // A served packet on its way: arrives at `deliver_at` under `seq`, the
  // seq reserved when its service ended.
  struct InFlight {
    sim::TimePoint deliver_at;
    std::uint64_t seq;
    PacketPtr packet;
  };

  void maybe_start_service();
  void finish_service(PacketPtr p);
  /// Files the delivery of the lane's head under its reserved seq.
  void file_lane_head();
  /// Delivers the lane's head and files the next one.
  void deliver_lane_head();

  sim::Simulation& sim_;
  Config config_;
  DeliverFn deliver_;
  std::unique_ptr<LossModel> loss_{std::make_unique<NoLoss>()};
  RateFn rate_fn_;
  ExtraDelayFn extra_delay_fn_;
  GateFn gate_fn_;
  IngressFn ingress_;
  std::function<void(const Packet&)> drop_observer_;

  std::unique_ptr<QueueDiscipline> queue_;
  bool serving_{false};
  sim::TimePoint last_delivery_;  // FIFO floor for deliveries
  sim::FlatRing<InFlight> lane_;  // served, not yet delivered; front() is filed
  Stats stats_;
};

}  // namespace mpr::net
