#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace polardraw {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c])) << cell;
      os << (c + 1 < header_.size() ? " | " : " |\n");
    }
  };
  print_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

void Table::write_csv(std::ostream& os) const {
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string ascii_plot(const std::vector<std::pair<double, double>>& points,
                       int width, int height, char mark) {
  if (points.empty() || width < 2 || height < 2) return {};
  double xmin = points[0].first, xmax = xmin;
  double ymin = points[0].second, ymax = ymin;
  for (const auto& [x, y] : points) {
    xmin = std::min(xmin, x); xmax = std::max(xmax, x);
    ymin = std::min(ymin, y); ymax = std::max(ymax, y);
  }
  const double xr = std::max(xmax - xmin, 1e-9);
  const double yr = std::max(ymax - ymin, 1e-9);
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (const auto& [x, y] : points) {
    const int col = static_cast<int>(std::lround((x - xmin) / xr * (width - 1)));
    // Rows render top-down, so flip y.
    const int row = static_cast<int>(std::lround((ymax - y) / yr * (height - 1)));
    grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = mark;
  }
  std::string out;
  for (const auto& line : grid) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace polardraw
