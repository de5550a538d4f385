#include "diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace polardraw::benchdiff {
namespace fs = std::filesystem;
using benchjson::Value;

namespace {

/// Last dotted segment, e.g. "accuracy" from "metrics.accuracy".
std::string last_segment(const std::string& key) {
  const std::size_t dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

/// Flattens the numeric leaves we sentinel: headline metrics and registry
/// counters. Config and gauges are environment descriptions, and the wall
/// clock and per-stage span timings depend on the machine, so they are
/// deliberately not compared.
void flatten(const Value& doc,
             std::vector<std::pair<std::string, double>>& out) {
  for (const char* section : {"metrics", "counters"}) {
    const Value* obj = doc.find(section);
    if (obj == nullptr || !obj->is_object()) continue;
    for (const auto& [k, v] : obj->object) {
      if (v.is_number()) {
        out.emplace_back(std::string(section) + "." + k, v.number);
      }
    }
  }
}

double find_value(const std::vector<std::pair<std::string, double>>& kv,
                  const std::string& key, bool& found) {
  for (const auto& [k, v] : kv) {
    if (k == key) {
      found = true;
      return v;
    }
  }
  found = false;
  return 0.0;
}

Verdict judge(MetricClass cls, double old_v, double new_v,
              const Thresholds& th) {
  switch (cls) {
    case MetricClass::kAccuracy: {
      // Deterministic under pinned seeds; any drop beyond the absolute
      // floor is a real behavior change, not noise.
      const double diff = new_v - old_v;
      if (std::fabs(diff) <= th.accuracy_abs_tol) return Verdict::kUnchanged;
      return diff < 0.0 ? Verdict::kRegressed : Verdict::kImproved;
    }
    case MetricClass::kCount:
      // Counters are the same at any thread count and on any machine, so
      // a change means the code (or the experiment's shape) changed.
      return old_v == new_v ? Verdict::kUnchanged : Verdict::kRegressed;
    case MetricClass::kUnknown:
      return old_v == new_v ? Verdict::kUnchanged : Verdict::kInfo;
  }
  return Verdict::kInfo;
}

std::string fmt_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

const char* verdict_word(Verdict v) {
  switch (v) {
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "**REGRESSED**";
    case Verdict::kInfo: return "info";
    case Verdict::kNew: return "new";
  }
  return "info";
}

const char* class_word(MetricClass c) {
  switch (c) {
    case MetricClass::kAccuracy: return "accuracy";
    case MetricClass::kCount: return "count";
    case MetricClass::kUnknown: return "unknown";
  }
  return "unknown";
}

}  // namespace

bool Report::has_regression() const {
  if (!missing_files.empty() || !errors.empty()) return true;
  return std::any_of(deltas.begin(), deltas.end(), [](const MetricDelta& d) {
    return d.verdict == Verdict::kRegressed;
  });
}

std::size_t Report::count(Verdict v) const {
  return static_cast<std::size_t>(
      std::count_if(deltas.begin(), deltas.end(),
                    [v](const MetricDelta& d) { return d.verdict == v; }));
}

MetricClass classify_metric(const std::string& key) {
  if (key.rfind("counters.", 0) == 0 || key == "metrics.trials") {
    return MetricClass::kCount;
  }
  if (last_segment(key).find("accuracy") != std::string::npos) {
    return MetricClass::kAccuracy;
  }
  return MetricClass::kUnknown;
}

void compare_docs(const std::string& file, const Value& old_doc,
                  const Value& new_doc, const Thresholds& th, Report& out) {
  std::vector<std::pair<std::string, double>> old_kv;
  std::vector<std::pair<std::string, double>> new_kv;
  flatten(old_doc, old_kv);
  flatten(new_doc, new_kv);

  // Every baseline metric must still exist: a metric that vanished from
  // the candidate is a regression of the export itself.
  for (const auto& [key, old_v] : old_kv) {
    MetricDelta d;
    d.file = file;
    d.key = key;
    d.cls = classify_metric(key);
    d.old_value = old_v;
    bool found = false;
    d.new_value = find_value(new_kv, key, found);
    if (!found) {
      d.missing_new = true;
      d.verdict = d.cls == MetricClass::kUnknown ? Verdict::kInfo
                                                 : Verdict::kRegressed;
    } else {
      d.verdict = judge(d.cls, old_v, d.new_value, th);
    }
    out.deltas.push_back(std::move(d));
  }
  // Candidate-only metrics are reported as "new" rather than silently
  // lumped with info: a PR that adds instrumentation should show it.
  for (const auto& [key, new_v] : new_kv) {
    bool found = false;
    find_value(old_kv, key, found);
    if (found) continue;
    MetricDelta d;
    d.file = file;
    d.key = key;
    d.cls = classify_metric(key);
    d.missing_old = true;
    d.new_value = new_v;
    d.verdict = Verdict::kNew;
    out.deltas.push_back(std::move(d));
  }
}

namespace {

benchjson::ParseResult parse_file(const fs::path& path, Report& report) {
  std::ifstream is(path);
  benchjson::ParseResult out;
  if (!is) {
    report.errors.push_back("cannot read " + path.string());
    return out;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  out = benchjson::parse(buf.str());
  if (!out.ok) {
    report.errors.push_back(path.string() + ": " + out.error);
  }
  return out;
}

std::vector<std::string> bench_files(const std::string& dir, Report& report) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      names.push_back(name);
    }
  }
  if (ec) report.errors.push_back("cannot list " + dir + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

Report compare_dirs(const std::string& old_dir, const std::string& new_dir,
                    const Thresholds& th) {
  Report report;
  const auto old_names = bench_files(old_dir, report);
  const auto new_names = bench_files(new_dir, report);
  if (old_names.empty() && report.errors.empty()) {
    report.errors.push_back("no BENCH_*.json files in " + old_dir);
  }

  for (const std::string& name : old_names) {
    if (std::find(new_names.begin(), new_names.end(), name) ==
        new_names.end()) {
      report.missing_files.push_back(name);
      continue;
    }
    const auto old_doc = parse_file(fs::path(old_dir) / name, report);
    const auto new_doc = parse_file(fs::path(new_dir) / name, report);
    if (!old_doc.ok || !new_doc.ok) continue;
    compare_docs(name, old_doc.root, new_doc.root, th, report);
  }
  for (const std::string& name : new_names) {
    if (std::find(old_names.begin(), old_names.end(), name) ==
        old_names.end()) {
      report.new_files.push_back(name);
    }
  }
  return report;
}

std::string to_markdown(const Report& report, const Thresholds& th) {
  std::ostringstream os;
  os << "# benchdiff report\n\n";
  os << "Thresholds: accuracy abs tol " << fmt_num(th.accuracy_abs_tol)
     << "; counters and metrics.trials exact.\n\n";

  for (const auto& e : report.errors) os << "- ERROR: " << e << "\n";
  for (const auto& f : report.missing_files) {
    os << "- **REGRESSED**: " << f << " missing from the new directory\n";
  }
  for (const auto& f : report.new_files) {
    os << "- info: " << f << " only in the new directory\n";
  }
  if (!report.errors.empty() || !report.missing_files.empty() ||
      !report.new_files.empty()) {
    os << "\n";
  }

  os << "| file | metric | class | old | new | delta | verdict |\n"
     << "|---|---|---|---:|---:|---:|---|\n";
  // Regressions first, so a failing CI log leads with the offending metric.
  const Verdict order[] = {Verdict::kRegressed, Verdict::kImproved,
                           Verdict::kNew,       Verdict::kInfo,
                           Verdict::kUnchanged};
  for (Verdict want : order) {
    for (const auto& d : report.deltas) {
      if (d.verdict != want) continue;
      os << "| " << d.file << " | " << d.key << " | " << class_word(d.cls)
         << " | " << (d.missing_old ? "-" : fmt_num(d.old_value)) << " | "
         << (d.missing_new ? "missing" : fmt_num(d.new_value)) << " | ";
      if (d.missing_old || d.missing_new) {
        os << "-";
      } else {
        os << fmt_num(d.new_value - d.old_value);
      }
      os << " | " << verdict_word(d.verdict) << " |\n";
    }
  }

  os << "\nSummary: " << report.count(Verdict::kRegressed) << " regressed, "
     << report.count(Verdict::kImproved) << " improved, "
     << report.count(Verdict::kUnchanged) << " unchanged, "
     << report.count(Verdict::kNew) << " new, "
     << report.count(Verdict::kInfo) << " informational.\n";
  os << "Result: "
     << (report.has_regression() ? "**REGRESSION DETECTED**" : "clean")
     << "\n";
  return os.str();
}

}  // namespace polardraw::benchdiff
