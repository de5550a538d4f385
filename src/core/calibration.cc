#include "core/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"
#include "rfid/window_clock.h"

namespace polardraw::core {

std::optional<CalibrationResult> calibrate_from_reference(
    const rfid::TagReportStream& reports, const CalibrationSetup& setup,
    int min_reads) {
  const std::size_t ports = setup.antenna_positions.size();
  if (ports == 0) return std::nullopt;

  // Each port's residual phases as running sums, as the window clock
  // keeps a window's phases.
  std::vector<rfid::PortSums> residuals(ports);
  for (const auto& r : reports) {
    // A NaN phase would turn its port's offset, and so every read, NaN.
    if (!rfid::admit_report(r) || r.antenna_id < 0 ||
        static_cast<std::size_t>(r.antenna_id) >= ports) {
      continue;
    }
    const double dist =
        setup.antenna_positions[static_cast<std::size_t>(r.antenna_id)].dist(
            setup.tag_position);
    const double expected =
        wrap_2pi(4.0 * kPi * dist / setup.wavelength_m);
    const double residual = wrap_2pi(r.phase_rad - expected);
    rfid::PortSums& sums = residuals[static_cast<std::size_t>(r.antenna_id)];
    sums.cos_sum += std::cos(residual);
    sums.sin_sum += std::sin(residual);
    ++sums.reads;
  }

  CalibrationResult out;
  out.calibration.port_offsets_rad.resize(ports, 0.0);
  out.residual_std_rad.resize(ports, 0.0);
  out.reads_used.resize(ports, 0);
  for (std::size_t p = 0; p < ports; ++p) {
    const rfid::PortSums& sums = residuals[p];
    const auto mean = sums.mean_phase_rad();
    if (sums.reads < min_reads || !mean) return std::nullopt;
    out.calibration.port_offsets_rad[p] = *mean;
    out.reads_used[p] = sums.reads;

    // Circular spread: 1 - |mean resultant length| mapped to a std-dev.
    const double resultant = std::hypot(sums.cos_sum, sums.sin_sum) /
                             static_cast<double>(sums.reads);
    out.residual_std_rad[p] =
        std::sqrt(std::max(-2.0 * std::log(std::max(resultant, 1e-9)), 0.0));
  }
  return out;
}

}  // namespace polardraw::core
