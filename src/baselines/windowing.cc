#include "baselines/windowing.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/angles.h"

namespace polardraw::baselines {

std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const rfid::PhaseCalibration* calibration) {
  std::vector<MultiWindow> out;
  const auto ports = static_cast<std::size_t>(std::max(num_ports, 0));
  std::vector<PhaseUnwrapper> unwrappers(ports);
  const auto unwrap = [&](const rfid::ClockWindow& finished) {
    MultiWindow& win = out.emplace_back();
    win.t_s = finished.t_s;
    win.phase_rad.assign(ports, 0.0);
    win.phase_valid.assign(ports, false);
    for (std::size_t a = 0; a < ports; ++a) {
      // A port without reads has no mean phase.
      if (const auto m = finished.ports[a].mean_phase_rad()) {
        win.phase_rad[a] = unwrappers[a].push(*m);
        win.phase_valid[a] = true;
      }
    }
  };
  rfid::WindowClock clock(num_ports, window_s, rfid::kMaxWindows);
  for (const rfid::TagReport& r : reports) clock.add(r, calibration, unwrap);
  clock.flush(unwrap);
  return out;
}

std::vector<std::vector<double>> phase_deltas(
    const std::vector<MultiWindow>& windows) {
  std::vector<std::vector<double>> deltas;
  for (std::size_t w = 1; w < windows.size(); ++w) {
    const MultiWindow& prev = windows[w - 1];
    const MultiWindow& cur = windows[w];
    std::vector<double>& d = deltas.emplace_back(
        cur.phase_rad.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t a = 0; a < d.size(); ++a) {
      if (cur.phase_valid[a] && prev.phase_valid[a]) {
        d[a] = cur.phase_rad[a] - prev.phase_rad[a];
      }
    }
  }
  return deltas;
}

double link_length(const Vec2& p, const em::ReaderAntenna& antenna) {
  const double dx = p.x - antenna.position.x;
  const double dy = p.y - antenna.position.y;
  const double dz = antenna.position.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

}  // namespace polardraw::baselines
