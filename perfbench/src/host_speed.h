// Host speed calibration.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent within minutes, as neighbours come and go, and the drift slows
// every program alike. A fixed calibration loop, written against the
// standard library only (no change to src/ can alter its speed), measures
// the host's speed between the timed intervals of a run, so the run can be
// reported at a fixed reference speed: rate × kReferenceRate / calibration
// rate, time × calibration rate / kReferenceRate.
#pragma once

namespace perfbench {

/// Calibration loops per second of the reference host the end-to-end
/// metrics are scaled to.
inline constexpr double kReferenceRate = 12.5;

/// Runs the calibration loop once on the calling thread and returns loops
/// per second. One thread only: loops started together on several threads
/// often share a core until the scheduler spreads them, which halves the
/// reading at random.
[[nodiscard]] double calibration_rate();

}  // namespace perfbench
