// benchjson: runs every bench binary in JSON-export mode and validates the
// emitted BENCH_<name>.json files against the schema contract.
//
// Usage:
//   benchjson [--bench-dir <dir>] [--out-dir <dir>]
//   benchjson --validate-trace <file.json>
//
//   --bench-dir  directory holding the bench_* executables
//                (default: build/bench)
//   --out-dir    directory receiving BENCH_*.json + per-binary logs
//                (default: bench-json)
//   --validate-trace  parse one Chrome trace-event file (TRACE_*.json) and
//                check it against validate_chrome_trace(); exit 0 iff valid
//
// Exit code 0 iff every bench binary ran successfully and every JSON
// file in the output directory passes validate_bench_json(). Each binary
// runs with PD_GIT_SHA set from `git rev-parse` when available.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"

namespace fs = std::filesystem;
using polardraw::benchjson::parse;
using polardraw::benchjson::validate_bench_json;
using polardraw::benchjson::validate_chrome_trace;

namespace {

struct Options {
  std::string bench_dir = "build/bench";
  std::string out_dir = "bench-json";
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--bench-dir <dir>] [--out-dir <dir>]\n"
               "       "
            << argv0 << " --validate-trace <file.json>\n";
  return 2;
}

/// Decodes a std::system() status into a human-readable verdict: the exit
/// status when the child exited, or the terminating signal. A bench binary
/// that returns nonzero (e.g. a failed JSON write) must fail the runner,
/// not silently pass, so the raw wait status is never shown to the user.
std::string describe_status(int status) {
  if (status == -1) return "could not launch (system() failed)";
  if (WIFEXITED(status)) {
    return "exit " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status " + std::to_string(status);
}

/// `git rev-parse HEAD` of the current directory, or "" when unavailable.
std::string git_head_sha() {
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[128];
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::vector<fs::path> discover_benches(const Options& opt) {
  std::vector<fs::path> benches;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt.bench_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (name.find('.') != std::string::npos) continue;  // logs, not binaries
    benches.push_back(entry.path());
  }
  std::sort(benches.begin(), benches.end());
  return benches;
}

bool run_benches(const Options& opt, const std::vector<fs::path>& benches) {
  ::setenv("PD_BENCH_JSON_DIR", opt.out_dir.c_str(), 1);
  if (std::getenv("PD_GIT_SHA") == nullptr) {
    const std::string sha = git_head_sha();
    ::setenv("PD_GIT_SHA", sha.empty() ? "unknown" : sha.c_str(), 1);
  }

  bool all_ok = true;
  for (const fs::path& bin : benches) {
    const std::string name = bin.filename().string();
    const std::string log = opt.out_dir + "/" + name + ".log";
    std::string cmd = "\"";
    cmd += bin.string();
    cmd += "\" > \"";
    cmd += log;
    cmd += "\" 2>&1";
    std::cout << "run  " << name << " ... " << std::flush;
    const int status = std::system(cmd.c_str());
    const bool exited_zero = status != -1 && WIFEXITED(status) &&
                             WEXITSTATUS(status) == 0;
    if (exited_zero) {
      std::cout << "ok\n";
    } else {
      std::cout << "FAILED (" << describe_status(status) << ", see " << log
                << ")\n";
      all_ok = false;
    }
  }
  return all_ok;
}

/// --validate-trace: parse + schema-check one Chrome trace-event file.
int validate_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "benchjson: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto parsed = parse(buf.str());
  if (!parsed.ok) {
    std::cout << "trace " << path << " ... PARSE ERROR (" << parsed.error
              << ")\n";
    return 1;
  }
  const auto problems = validate_chrome_trace(parsed.root);
  if (problems.empty()) {
    std::cout << "trace " << path << " ... valid\n";
    return 0;
  }
  std::cout << "trace " << path << " ... INVALID\n";
  for (const auto& p : problems) std::cout << "     " << p << "\n";
  return 1;
}

bool validate_outputs(const Options& opt, std::size_t n_benches_run) {
  std::vector<fs::path> jsons;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt.out_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      jsons.push_back(entry.path());
    }
  }
  std::sort(jsons.begin(), jsons.end());

  bool all_ok = true;
  for (const fs::path& path : jsons) {
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const auto parsed = parse(buf.str());
    if (!parsed.ok) {
      std::cout << "json " << path.filename().string() << " ... PARSE ERROR ("
                << parsed.error << ")\n";
      all_ok = false;
      continue;
    }
    const auto problems = validate_bench_json(parsed.root);
    if (problems.empty()) {
      std::cout << "json " << path.filename().string() << " ... valid\n";
    } else {
      std::cout << "json " << path.filename().string() << " ... INVALID\n";
      for (const auto& p : problems) std::cout << "     " << p << "\n";
      all_ok = false;
    }
  }

  if (jsons.empty()) {
    std::cout << "no BENCH_*.json files in " << opt.out_dir << "\n";
    all_ok = false;
  }
  if (jsons.size() < n_benches_run) {
    std::cout << "only " << jsons.size() << " of " << n_benches_run
              << " bench binaries produced JSON\n";
    all_ok = false;
  }
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-dir" && i + 1 < argc) {
      opt.bench_dir = argv[++i];
    } else if (arg == "--out-dir" && i + 1 < argc) {
      opt.out_dir = argv[++i];
    } else if (arg == "--validate-trace" && i + 1 < argc) {
      return validate_trace_file(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  const auto benches = discover_benches(opt);
  if (benches.empty()) {
    std::cerr << "no bench_* binaries found in " << opt.bench_dir << "\n";
    return 1;
  }
  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);
  // Probe writability up front: a read-only or uncreatable out-dir would
  // otherwise surface as N cryptic per-binary failures. The bench
  // binaries see the same directory via PD_BENCH_JSON_DIR.
  {
    const std::string probe_path = opt.out_dir + "/.benchjson-probe";
    std::ofstream probe(probe_path);
    if (!probe) {
      std::cerr << "benchjson: output directory " << opt.out_dir
                << " is not writable (bench binaries would fail to write "
                   "PD_BENCH_JSON_DIR)\n";
      return 1;
    }
    probe.close();
    fs::remove(probe_path, ec);
  }
  bool ok = run_benches(opt, benches);
  ok = validate_outputs(opt, benches.size()) && ok;
  std::cout << (ok ? "benchjson: all checks passed\n"
                   : "benchjson: FAILURES\n");
  return ok ? 0 : 1;
}
