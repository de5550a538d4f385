// WISP-style sensor-augmented tag (paper section 7, "Scaling to abrupt
// hand motions").
//
// The paper proposes attaching a computational RFID tag with an inertial
// sensor (a WISP) to the pen, so the system can tell when the pen touches
// the whiteboard: pen-down writing drags the tip across the board and
// superimposes a high-frequency friction vibration on the accelerometer,
// while pen-up transit is smooth. This module simulates that
// accelerometer from a synthesized writing trace and provides the
// touch detector built on it.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "handwriting/synthesizer.h"

namespace polardraw::rfid {

/// One accelerometer sample in the tag frame (m/s^2).
struct AccelSample {
  double t_s = 0.0;
  Vec3 accel;
};

struct WispConfig {
  double sample_rate_hz = 100.0;  // WISP-class ADCs run ~100 Hz duty-cycled
  /// Friction vibration amplitude while the moving pen touches the board.
  double friction_rms = 0.8;
  /// Sensor noise floor (all axes).
  double noise_rms = 0.05;
  double gravity = 9.81;
};

/// Simulates the accelerometer stream for a writing trace: gravity (the
/// board plane is vertical, so gravity lies along -Y), low-frequency
/// motion acceleration, and the pen-down friction vibration.
std::vector<AccelSample> simulate_wisp(const handwriting::WritingTrace& trace,
                                       const WispConfig& cfg, Rng& rng);

/// Touch (pen-down) detector: classifies each window of `window_s`
/// seconds by the high-frequency energy of the accelerometer magnitude.
/// Returns one flag per window (true = touching).
std::vector<bool> detect_touch(const std::vector<AccelSample>& accel,
                               double window_s, double threshold = 0.3);

}  // namespace polardraw::rfid
