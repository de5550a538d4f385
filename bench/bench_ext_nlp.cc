// Extension: the paper's NLP conjecture, measured.
//
// Sections 5.2.1 and 7 claim that "by applying natural language
// processing techniques, we can further increase recognition accuracy".
// This bench quantifies it: words are recognized per-letter (segmented
// classification, no lexicon), then post-processed by (a) a letter-bigram
// noisy-channel decode over the classifier's top-2 hypotheses and (b)
// dictionary snapping -- and compared against the raw per-letter output.
#include "bench_common.h"

#include "recognition/classifier.h"
#include "recognition/language_model.h"
#include "recognition/procrustes.h"

using namespace polardraw;

namespace {

struct Outcome {
  int raw_ok = 0;
  int bigram_ok = 0;
  int snapped_ok = 0;
  int total = 0;
  int raw_letters_ok = 0;
  int snapped_letters_ok = 0;
  int letters_total = 0;
};

Outcome run(std::size_t len, int reps) {
  Outcome out;
  static const recognition::LetterClassifier classifier;
  static const recognition::WordCorrector corrector{
      recognition::BigramModel{}, 1.5};
  // The trials dominate the cost: run them as one parallel sweep, then
  // post-process serially in trial-index order.
  std::vector<eval::TrialResult> results;
  eval::word_accuracy(
      len, reps,
      bench::default_trial(eval::System::kPolarDraw, 5200 + 71 * len),
      &results, bench::n_threads());
  for (const auto& res : results) {
    const std::string& word = res.text;

    // Per-letter segmentation with the classifier's actual best and
    // runner-up hypotheses per position, plus a flat tail so the bigram
    // prior can flip weakly supported letters.
    const auto detail =
        classifier.classify_word_detailed(res.trajectory, word.size());
    std::string raw;
    std::vector<std::vector<recognition::LetterHypothesis>> positions;
    for (const auto& c : detail) {
      raw.push_back(c.letter);
      std::vector<recognition::LetterHypothesis> hyps{
          {c.letter, 0.0},
          {c.second, 10.0 * (c.second_score - c.score)}};
      for (char alt : handwriting::alphabet()) {
        if (alt != c.letter && alt != c.second) hyps.push_back({alt, 3.0});
      }
      positions.push_back(std::move(hyps));
    }
    const std::string bigram = corrector.decode(positions);
    const std::string snapped = corrector.snap_to_dictionary(
        bigram, recognition::builtin_corpus(), 3);

    ++out.total;
    out.raw_ok += raw == word ? 1 : 0;
    out.bigram_ok += bigram == word ? 1 : 0;
    out.snapped_ok += snapped == word ? 1 : 0;
    for (std::size_t k = 0; k < word.size() && k < raw.size(); ++k) {
      ++out.letters_total;
      out.raw_letters_ok += raw[k] == word[k] ? 1 : 0;
      if (k < snapped.size()) {
        out.snapped_letters_ok += snapped[k] == word[k] ? 1 : 0;
      }
    }
  }
  return out;
}

}  // namespace

// Second experiment: open-dictionary recognition. The main pipeline
// matches against the 10-word test lexicon; here the candidate set is the
// full built-in corpus (~130 words, length-filtered), with and without a
// bigram language-model prior added to the whole-word shape score.
static void run_dictionary_experiment() {
  std::cout << "--- open-dictionary recognition (length-filtered corpus) ---\n";
  static const recognition::LetterClassifier classifier;
  static const recognition::BigramModel lm;
  Table t({"Letters", "candidates", "shape only (%)", "shape + LM prior (%)"});
  const int reps = 1 * bench::reps_scale();
  for (std::size_t len = 3; len <= 5; ++len) {
    std::vector<std::string> candidates;
    for (const auto& w : recognition::builtin_corpus()) {
      if (w.size() == len) candidates.push_back(w);
    }
    int shape_ok = 0, lm_ok = 0, total = 0;
    std::vector<eval::TrialResult> results;
    eval::word_accuracy(
        len, reps,
        bench::default_trial(eval::System::kPolarDraw, 6300 + 71 * len),
        &results, bench::n_threads());
    for (const auto& res : results) {
      const std::string& word = res.text;
      std::string best_shape, best_lm;
      double s_shape = 1e18, s_lm = 1e18;
      for (const auto& cand : candidates) {
        const double shape = classifier.word_score(res.trajectory, cand);
        if (shape < s_shape) {
          s_shape = shape;
          best_shape = cand;
        }
        const double with_lm =
            shape - 0.004 * lm.log_prob(cand);  // prior as a soft bonus
        if (with_lm < s_lm) {
          s_lm = with_lm;
          best_lm = cand;
        }
      }
      ++total;
      shape_ok += best_shape == word ? 1 : 0;
      lm_ok += best_lm == word ? 1 : 0;
    }
    t.add_row({std::to_string(len), std::to_string(candidates.size()),
               fmt(100.0 * shape_ok / std::max(total, 1), 1),
               fmt(100.0 * lm_ok / std::max(total, 1), 1)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

static void run_experiment() {
  bench::banner("Extension: NLP post-processing",
                "Word accuracy, raw vs bigram vs dictionary-snapped");
  Table t({"Letters", "raw word (%)", "+bigram (%)", "+dictionary (%)",
           "letter acc raw (%)", "letter acc snapped (%)"});
  const int reps = 1 * bench::reps_scale();
  for (std::size_t len = 3; len <= 5; ++len) {
    const Outcome o = run(len, reps);
    t.add_row({std::to_string(len),
               fmt(100.0 * o.raw_ok / std::max(o.total, 1), 1),
               fmt(100.0 * o.bigram_ok / std::max(o.total, 1), 1),
               fmt(100.0 * o.snapped_ok / std::max(o.total, 1), 1),
               fmt(100.0 * o.raw_letters_ok / std::max(o.letters_total, 1), 1),
               fmt(100.0 * o.snapped_letters_ok / std::max(o.letters_total, 1),
                   1)});
  }
  t.print(std::cout);
  std::cout << "\nThe paper conjectures NLP lifts accuracy; the dictionary "
               "column is the measured effect of that conjecture on this "
               "substrate.\n\n";
}

int main() {
  const bench::Session session("ext_nlp");
  run_experiment();
  run_dictionary_experiment();
  return session.write_json() ? 0 : 1;
}
