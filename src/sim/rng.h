// Deterministic random-number streams.
//
// Every stochastic component draws from its own named stream derived from a
// single master seed, so experiments are reproducible and adding a new
// component does not perturb the draws of existing ones.
//
// The distribution methods are hand-inlined fast paths that reproduce
// libstdc++'s std::uniform_real/exponential/normal/lognormal_distribution
// arithmetic *bit for bit* on mt19937_64 — same engine draws in the same
// order, same floating-point operation order — without constructing a
// distribution object (and, for normal/lognormal, without the polar
// method's discarded-spare bookkeeping) on every call. Draw-sequence
// equivalence against the real std:: objects is pinned by
// RngSequence.* in tests/sim_test.cpp; any change here must keep that
// suite green or outputs stop being comparable across PRs. There is no
// mode that changes the draw sequence.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>

namespace mpr::sim {

/// One random stream. Thin wrapper over mt19937_64 with the distributions
/// the simulator actually needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() { return canonical(); }
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  /// Bernoulli trial with success probability p. Degenerate p (<=0, >=1)
  /// consumes no engine draw; see BernoulliGate to hoist that classification
  /// out of a per-packet loop.
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }
  /// Exponential with the given mean (> 0). (The division by lambda — not a
  /// multiplication by the mean — mirrors std::exponential_distribution's
  /// arithmetic so results round identically.)
  [[nodiscard]] double exponential(double mean) {
    return -std::log(1.0 - canonical()) / (1.0 / mean);
  }
  /// Normal with the given mean / stddev.
  [[nodiscard]] double normal(double mean, double stddev) {
    return standard_normal() * stddev + mean;
  }
  /// Lognormal such that the *median* of the result is `median` and the
  /// underlying normal has standard deviation `sigma` (in log space).
  [[nodiscard]] double lognormal_median(double median, double sigma) {
    return lognormal_log_median(std::log(median), sigma);
  }
  /// Same, with log(median) precomputed by the caller (hot resample loops).
  [[nodiscard]] double lognormal_log_median(double log_median, double sigma) {
    return std::exp(sigma * standard_normal() + log_median);
  }
  /// Pareto with shape alpha and minimum xm (heavy-tailed sizes/delays).
  [[nodiscard]] double pareto(double alpha, double xm) {
    const double u = 1.0 - uniform();  // in (0, 1]
    return xm / std::pow(u, 1.0 / alpha);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  /// What libstdc++'s generate_canonical<double, 53> computes for a 64-bit
  /// engine: one raw draw scaled into [0, 1), where double(2^64-1) rounds
  /// up to 2^64 and must be clamped below 1.0.
  [[nodiscard]] double canonical() {
    const double r = static_cast<double>(engine_()) * 0x1p-64;
    return r >= 1.0 ? std::nextafter(1.0, 0.0) : r;
  }

  /// Marsaglia polar method, operation-for-operation the libstdc++
  /// std::normal_distribution rejection loop. The spare deviate (x*mult) is
  /// discarded — matching a distribution object constructed fresh per
  /// call, which is what this simulator always did.
  [[nodiscard]] double standard_normal() {
    double x;
    double y;
    double r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult;
  }

  std::mt19937_64 engine_;
};

/// A Bernoulli(p) gate with the degenerate-p classification hoisted to
/// construction, for models that test the same probability on every packet.
/// Draw-sequence identical to Rng::chance(p): a degenerate probability
/// consumes no engine draw, a real one consumes exactly one.
class BernoulliGate {
 public:
  constexpr BernoulliGate() = default;
  explicit constexpr BernoulliGate(double p)
      : p_{p}, mode_{p <= 0.0 ? Mode::kNever : p >= 1.0 ? Mode::kAlways : Mode::kDraw} {}

  [[nodiscard]] bool sample(Rng& rng) const {
    if (mode_ == Mode::kDraw) return rng.uniform() < p_;
    return mode_ == Mode::kAlways;
  }
  [[nodiscard]] constexpr double p() const { return p_; }
  /// True when sample() draws from the engine (0 < p < 1).
  [[nodiscard]] constexpr bool draws() const { return mode_ == Mode::kDraw; }

 private:
  enum class Mode : std::uint8_t { kNever, kAlways, kDraw };
  double p_{0.0};
  Mode mode_{Mode::kNever};
};

/// Derives child seeds from (master_seed, stream name) via FNV-1a + splitmix.
/// The same master seed and name always yield the same stream.
class SeedSequence {
 public:
  explicit SeedSequence(std::uint64_t master_seed) : master_{master_seed} {}

  [[nodiscard]] std::uint64_t seed_for(std::string_view name) const;
  [[nodiscard]] Rng stream(std::string_view name) const { return Rng{seed_for(name)}; }
  [[nodiscard]] std::uint64_t master() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace mpr::sim
