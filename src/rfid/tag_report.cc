#include "rfid/tag_report.h"

#include <cmath>

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

}  // namespace polardraw::rfid
