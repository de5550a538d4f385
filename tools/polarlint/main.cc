// polarlint CLI: lints the repo's C++ sources against the domain conventions
// documented in polarlint.h and DESIGN.md section 10.
//
// Usage:
//   polarlint [--root DIR] PATH...
//
// PATH arguments are files or directories (recursed for .h/.hpp/.cc/.cpp).
// Violations are reported as `path:line: [Rn] message`, with paths relative
// to --root. Any violation fails the run; a justified exception takes an
// allow directive at its site (see polarlint.h).
//
// Exit codes: 0 clean, 1 violations, 2 usage error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "polarlint.h"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx" || ext == ".ipp";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string relative_to(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  std::string s = (ec || rel.empty()) ? file.string() : rel.string();
  for (char& c : s)
    if (c == '\\') c = '/';
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "polarlint: " << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: polarlint [--root DIR] PATH...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "polarlint: unknown flag " << arg << "\n";
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "polarlint: no paths given (try --help)\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& in : inputs) {
    const fs::path abs = in.is_absolute() ? in : root / in;
    if (fs::is_directory(abs)) {
      for (const auto& e : fs::recursive_directory_iterator(abs))
        if (e.is_regular_file() && lintable(e.path()))
          files.push_back(e.path());
    } else if (fs::is_regular_file(abs)) {
      files.push_back(abs);
    } else {
      std::cerr << "polarlint: no such file or directory: " << in << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::size_t violations = 0;
  for (const fs::path& f : files) {
    for (const polarlint::Violation& v :
         polarlint::lint_source(relative_to(f, root), slurp(f))) {
      std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n";
      ++violations;
    }
  }

  std::cout << "polarlint: " << files.size() << " files, " << violations
            << " violation" << (violations == 1 ? "" : "s") << "\n";
  return violations == 0 ? 0 : 1;
}
