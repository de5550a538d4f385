// Figure 14: the letter confusion matrix.
//
// Rows are the written letter, columns the recognized one. The paper
// observes that errors concentrate on letters with similar writing styles
// (L misread as I, V as U) and that single-stroke letters fare better.
#include "bench_common.h"

#include "handwriting/stroke_font.h"
#include "recognition/classifier.h"

using namespace polardraw;

static void run_experiment() {
  bench::banner("Figure 14", "Letter confusion matrix");
  const int reps = 3 * bench::reps_scale();
  auto cfg = bench::default_trial(eval::System::kPolarDraw, 999);
  recognition::ConfusionMatrix cm;
  bench::Stopwatch watch;
  std::vector<eval::TrialResult> results;
  eval::letter_accuracy("ABCDEFGHIJKLMNOPQRSTUVWXYZ", reps, cfg, &cm,
                        bench::n_threads(), &results);
  const double elapsed = watch.seconds();

  // Compact rendering: intensity glyphs per cell (columns A..Z).
  std::cout << "    ";
  for (char c : handwriting::alphabet()) std::cout << c << ' ';
  std::cout << "\n";
  for (char row : handwriting::alphabet()) {
    std::cout << row << " | ";
    for (char col : handwriting::alphabet()) {
      const double r = cm.rate(row, col);
      const char mark = r >= 0.75 ? '#' : r >= 0.4 ? '+' : r > 0.0 ? '.' : ' ';
      std::cout << mark << ' ';
    }
    std::cout << "| " << fmt(cm.accuracy(row) * 100.0, 0) << "%\n";
  }

  // Top off-diagonal confusions.
  std::cout << "\nLargest confusions (truth -> recognized):\n";
  struct Entry { char a, b; int n; };
  std::vector<Entry> entries;
  for (char a : handwriting::alphabet()) {
    for (char b : handwriting::alphabet()) {
      if (a == b) continue;
      const int n = cm.count(a, b);
      if (n > 0) entries.push_back({a, b, n});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.n > y.n; });
  for (std::size_t i = 0; i < entries.size() && i < 8; ++i) {
    std::cout << "  " << entries[i].a << " -> " << entries[i].b << "  ("
              << entries[i].n << "x)\n";
  }

  // The paper's qualitative claim: single-stroke letters do better.
  double single = 0.0, multi = 0.0;
  int ns = 0, nm = 0;
  for (char c : handwriting::alphabet()) {
    if (handwriting::glyph_stroke_count(handwriting::glyph_for(c)) == 1) {
      single += cm.accuracy(c);
      ++ns;
    } else {
      multi += cm.accuracy(c);
      ++nm;
    }
  }
  std::cout << "\nSingle-stroke letters mean accuracy: "
            << fmt(100.0 * single / std::max(ns, 1), 1)
            << "%  vs multi-stroke: " << fmt(100.0 * multi / std::max(nm, 1), 1)
            << "% (paper: single-stroke letters recognize better).\n";
  bench::TrialTimes times;
  times.add(results);
  times.report(std::cout, elapsed);
  std::cout << "\n";
}

int main() {
  const bench::Session session("fig14");
  run_experiment();
  return session.write_json() ? 0 : 1;
}
