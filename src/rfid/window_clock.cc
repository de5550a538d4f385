#include "rfid/window_clock.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/angles.h"
#include "obs/metrics.h"

namespace polardraw::rfid {

bool admit_report(const TagReport& r) {
  if (std::isfinite(r.timestamp_s) && std::isfinite(r.rss_dbm) &&
      std::isfinite(r.phase_rad)) {
    return true;
  }
  static const obs::Counter nonfinite_counter("preprocess.nonfinite_reports");
  nonfinite_counter.add(1);
  return false;
}

std::optional<double> circular_mean(double sum_cos, double sum_sin, int n) {
  const double noise_floor =
      8.0 * std::numeric_limits<double>::epsilon() * static_cast<double>(n);
  if (n <= 0 || std::hypot(sum_cos, sum_sin) <= noise_floor) {
    return std::nullopt;
  }
  return wrap_2pi(std::atan2(sum_sin, sum_cos));
}

WindowClock::WindowClock(int ports, double window_s, std::size_t max_windows)
    : window_s_(window_s), max_windows_(max_windows) {
  cur_.ports.resize(static_cast<std::size_t>(std::max(ports, 0)));
  done_.ports.resize(cur_.ports.size());
}

std::optional<int> WindowClock::place(const TagReport& r) {
  if (!admit_report(r) || r.antenna_id < 0 ||
      static_cast<std::size_t>(r.antenna_id) >= cur_.ports.size() ||
      !(window_s_ > 0.0)) {
    return std::nullopt;
  }
  if (!t0_) {
    t0_ = r.timestamp_s;
    cur_.t_s = *t0_ + 0.5 * window_s_;
  }
  const double w_f = (r.timestamp_s - *t0_) / window_s_;
  if (w_f - static_cast<double>(cur_.index) >
          static_cast<double>(kMaxWindows) ||
      w_f >= static_cast<double>(max_windows_)) {
    // A corrupt or jumped clock, or past the cap. Compared in double, so
    // the cast below cannot overflow.
    static const obs::Counter far_counter("preprocess.far_reports");
    far_counter.add(1);
    return std::nullopt;
  }
  const int w = w_f < 0.0 ? -1 : static_cast<int>(w_f);
  if (w < cur_.index) {
    static const obs::Counter late_counter("preprocess.late_reports");
    late_counter.add(1);
    return std::nullopt;
  }
  return w;
}

void WindowClock::accumulate(const TagReport& r,
                             const PhaseCalibration* calibration) {
  double phase = r.phase_rad;
  bool channel_covered = false;
  if (calibration != nullptr) {
    if (static_cast<std::size_t>(r.antenna_id) <
        calibration->port_offsets_rad.size()) {
      phase = wrap_2pi(phase - calibration->port_offsets_rad[r.antenna_id]);
    }
    if (r.channel >= 0 && static_cast<std::size_t>(r.channel) <
                              calibration->channel_offsets_rad.size()) {
      phase = wrap_2pi(phase - calibration->channel_offsets_rad[r.channel]);
      channel_covered = true;
    }
  }
  PortSums& p = cur_.ports[static_cast<std::size_t>(r.antenna_id)];
  p.run_length =
      p.reads > 0 && r.channel == p.run_channel ? p.run_length + 1 : 1;
  p.run_channel = r.channel;
  if (p.run_length >= p.longest_run) {
    p.longest_run = p.run_length;
    p.channel = r.channel;
  }
  ++p.reads;
  p.rss_sum_dbm += r.rss_dbm;
  p.cos_sum += std::cos(phase);
  p.sin_sum += std::sin(phase);
  if (!channel_covered) ++p.uncalibrated;
  ++placed_;
}

const ClockWindow& WindowClock::next() {
  std::swap(cur_, done_);
  std::fill(cur_.ports.begin(), cur_.ports.end(), PortSums{});
  cur_.index = done_.index + 1;
  cur_.t_s = *t0_ + (static_cast<double>(cur_.index) + 0.5) * window_s_;
  placed_ = 0;
  return done_;
}

}  // namespace polardraw::rfid
