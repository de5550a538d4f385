// Lightweight fixed-width console table and CSV writers for the
// experiment harness output (paper-style tables and figure series).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace polardraw {

/// Accumulates rows of strings and prints them with aligned columns.
///
///   Table t({"Distance (cm)", "Accuracy (%)"});
///   t.add_row({"20", "77"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  std::size_t rows() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }

  void print(std::ostream& os) const;
  /// Writes header + rows as RFC-4180-ish CSV (no quoting of embedded commas;
  /// cell text in this project never contains commas).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for Table cells).
std::string fmt(double value, int precision = 2);

/// Renders a trajectory (or any 2-D point series) as a coarse ASCII plot,
/// used by the qualitative figure benches (Fig. 2, Fig. 20).
std::string ascii_plot(const std::vector<std::pair<double, double>>& points,
                       int width = 64, int height = 20, char mark = '*');

}  // namespace polardraw
