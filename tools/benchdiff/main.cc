// benchdiff: compares two directories of BENCH_*.json exports and exits
// nonzero when the new one regressed (DESIGN.md section 12).
//
// Usage:
//   benchdiff <old_dir> <new_dir> [--out <report.md>]
//             [--accuracy-abs-tol <x>]
//
// Prints the markdown delta report to stdout (and to --out when given).
// Exit codes: 0 clean, 1 regression detected, 2 usage error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "diff.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <old_dir> <new_dir> [--out <report.md>]"
               " [--accuracy-abs-tol <x>]\n";
  return 2;
}

bool parse_tol(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == nullptr || *end != '\0' || v < 0.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_dir;
  std::string new_dir;
  std::string out_path;
  polardraw::benchdiff::Thresholds th;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--accuracy-abs-tol" && i + 1 < argc) {
      if (!parse_tol(argv[++i], th.accuracy_abs_tol)) return usage(argv[0]);
    } else if (old_dir.empty()) {
      old_dir = arg;
    } else if (new_dir.empty()) {
      new_dir = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (old_dir.empty() || new_dir.empty()) return usage(argv[0]);

  const auto report = polardraw::benchdiff::compare_dirs(old_dir, new_dir, th);
  const std::string md = polardraw::benchdiff::to_markdown(report, th);
  std::cout << md;
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "benchdiff: cannot write " << out_path << "\n";
      return 1;
    }
    os << md;
  }
  return report.has_regression() ? 1 : 0;
}
