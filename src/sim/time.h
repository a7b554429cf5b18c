// Simulated-time primitives.
//
// All simulation time is kept as a signed 64-bit count of nanoseconds.
// Strong types (Duration / TimePoint) prevent mixing absolute times with
// intervals; both are cheap value types.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace mpr::sim {

/// A length of simulated time (signed; may be negative in arithmetic).
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) { return Duration{n}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t u) { return Duration{u * 1000}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t m) { return Duration{m * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  /// Fractional seconds (convenience for rate computations).
  [[nodiscard]] static constexpr Duration from_seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9)};
  }
  [[nodiscard]] static constexpr Duration from_millis(double ms) {
    return Duration{static_cast<std::int64_t>(ms * 1e6)};
  }
  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(a.ns_) * k)};
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

/// An absolute instant of simulated time (ns since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{}; }
  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t n) { return TimePoint{n}; }
  [[nodiscard]] static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.ns_ + d.ns()}; }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.ns_ - d.ns()}; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return Duration::nanos(a.ns_ - b.ns_); }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

/// Longest span, in seconds, that a scenario or campaign file may ask for:
/// ~31 years, far past any run and far inside the int64 nanosecond clock,
/// so an accepted value converts exactly and adds to any run's now().
inline constexpr double kMaxInputSeconds = 1e9;

/// Human-readable rendering, e.g. "12.345ms", for logs and test output.
[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(TimePoint t);

}  // namespace mpr::sim
