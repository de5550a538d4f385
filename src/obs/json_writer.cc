#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace polardraw::obs {

void JsonWriter::newline_indent() {
  if (compact_) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::pre_value() {
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (top.is_object && top.expecting_value) {
    top.expecting_value = false;
    return;  // the key already positioned us
  }
  if (top.has_items) os_ << ',';
  newline_indent();
  top.has_items = true;
}

void JsonWriter::begin_object() {
  pre_value();
  os_ << '{';
  stack_.push_back(Level{true, false, false});
}

void JsonWriter::end_object() {
  const bool had_items = !stack_.empty() && stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  os_ << '}';
}

void JsonWriter::begin_array() {
  pre_value();
  os_ << '[';
  stack_.push_back(Level{false, false, false});
}

void JsonWriter::end_array() {
  const bool had_items = !stack_.empty() && stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  Level& top = stack_.back();
  if (top.has_items) os_ << ',';
  newline_indent();
  top.has_items = true;
  top.expecting_value = true;
  write_escaped(k);
  os_ << (compact_ ? ":" : ": ");
}

void JsonWriter::write_escaped(std::string_view s) {
  os_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\r': os_ << "\\r"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

void JsonWriter::value(std::string_view s) {
  pre_value();
  write_escaped(s);
}

std::string JsonWriter::format_double(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no inf/nan
  // Integral values in the exactly-representable range print as plain
  // integers ("150", not the shorter-precision "1.5e+02").
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char ibuf[32];
    std::snprintf(ibuf, sizeof ibuf, "%lld", static_cast<long long>(d));
    return ibuf;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

void JsonWriter::value(double d) {
  pre_value();
  os_ << format_double(d);
}

void JsonWriter::value(std::uint64_t v) {
  pre_value();
  os_ << v;
}

void JsonWriter::value(std::int64_t v) {
  pre_value();
  os_ << v;
}

void JsonWriter::value(bool b) {
  pre_value();
  os_ << (b ? "true" : "false");
}

}  // namespace polardraw::obs
