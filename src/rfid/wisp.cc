#include "rfid/wisp.h"

#include <algorithm>
#include "common/angles.h"
#include <cmath>

namespace polardraw::rfid {

std::vector<AccelSample> simulate_wisp(const handwriting::WritingTrace& trace,
                                       Rng& rng) {
  std::vector<AccelSample> out;
  if (trace.samples.size() < 3) return out;

  const double dt = 1.0 / kWispSampleRateHz;
  const double t_end = trace.samples.back().t_s;
  out.reserve(static_cast<std::size_t>(t_end / dt) + 1);

  // Helper: linear interpolation of pen velocity from the trace.
  auto velocity_at = [&trace](double t) {
    const auto& s = trace.samples;
    auto it = std::lower_bound(
        s.begin(), s.end(), t,
        [](const handwriting::TraceSample& a, double tv) { return a.t_s < tv; });
    if (it == s.begin() || it == s.end()) return Vec3{};
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    const double span = hi.t_s - lo.t_s;
    if (span <= 0.0) return Vec3{};
    return (hi.pen_tip - lo.pen_tip) / span;
  };
  auto pen_down_at = [&trace](double t) {
    const auto& s = trace.samples;
    auto it = std::lower_bound(
        s.begin(), s.end(), t,
        [](const handwriting::TraceSample& a, double tv) { return a.t_s < tv; });
    if (it == s.end()) return s.back().pen_down;
    return it->pen_down;
  };

  Vec3 prev_v = velocity_at(0.0);
  double phase = 0.0;
  for (double t = 0.0; t <= t_end; t += dt) {
    const Vec3 v = velocity_at(t);
    const Vec3 motion_accel = (v - prev_v) / dt;
    prev_v = v;

    AccelSample s;
    s.t_s = t;
    // Gravity along -Y (the board hangs vertically).
    s.accel = Vec3{0.0, -kGravity, 0.0} + motion_accel;
    // Friction vibration only while the moving pen presses the board:
    // a jittered-frequency tone, strongest along the motion direction.
    const double speed = v.norm();
    if (pen_down_at(t) && speed > 0.01) {
      phase += (40.0 + rng.uniform(0.0, 25.0)) * kTwoPi * dt;
      const double tone = std::sin(phase) * kWispFrictionRms *
                          std::min(speed / 0.05, 1.5);
      s.accel += Vec3{tone * 0.7, tone * 0.3, tone * 0.6};
    }
    s.accel += Vec3{rng.gaussian(0.0, kWispNoiseRms),
                    rng.gaussian(0.0, kWispNoiseRms),
                    rng.gaussian(0.0, kWispNoiseRms)};
    out.push_back(s);
  }
  return out;
}

std::vector<bool> detect_touch(const std::vector<AccelSample>& accel,
                               double window_s) {
  std::vector<bool> out;
  if (accel.size() < 2 || window_s <= 0.0) return out;

  const double t0 = accel.front().t_s;
  const double t_end = accel.back().t_s;
  const int windows = static_cast<int>((t_end - t0) / window_s) + 1;
  out.assign(static_cast<std::size_t>(windows), false);

  // High-frequency energy: RMS of the first difference of |a| per window.
  std::vector<double> energy(static_cast<std::size_t>(windows), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(windows), 0);
  for (std::size_t i = 1; i < accel.size(); ++i) {
    const double mag_diff =
        accel[i].accel.norm() - accel[i - 1].accel.norm();
    const int w = static_cast<int>((accel[i].t_s - t0) / window_s);
    if (w < 0 || w >= windows) continue;
    energy[static_cast<std::size_t>(w)] += mag_diff * mag_diff;
    counts[static_cast<std::size_t>(w)] += 1;
  }
  for (int w = 0; w < windows; ++w) {
    if (counts[static_cast<std::size_t>(w)] > 0) {
      const double rms = std::sqrt(energy[static_cast<std::size_t>(w)] /
                                   counts[static_cast<std::size_t>(w)]);
      out[static_cast<std::size_t>(w)] = rms > kTouchThreshold;
    }
  }
  return out;
}

}  // namespace polardraw::rfid
