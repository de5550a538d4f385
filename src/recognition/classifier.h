// Template-based handwriting recognizer (stands in for the paper's LipiTk).
//
// Classifies a recovered pen trajectory as one of the 26 letters by nearest
// Procrustes distance against the stroke-font templates, with a shape-
// normalized score so letter size and board position do not matter. Word
// recognition segments a multi-letter trajectory by x-extent and classifies
// each segment.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/vec.h"
#include "handwriting/stroke_font.h"

namespace polardraw::recognition {

struct Classification {
  char letter = '?';
  double score = 1.0;  // normalized Procrustes dissimilarity (lower = better)
  /// Runner-up for diagnostics.
  char second = '?';
  double second_score = 1.0;
};

class LetterClassifier {
 public:
  /// Builds templates from the stroke font, resampled to `points` samples.
  explicit LetterClassifier(std::size_t points = 64);

  /// Classifies a single-letter trajectory (pen positions in any scale).
  Classification classify(const std::vector<Vec2>& trajectory) const;

  /// Classifies each letter of a word given the recovered trajectory and
  /// the number of letters; the trajectory is segmented into per-letter
  /// x bands via 1-D k-means (letters are written left to right). Returns
  /// each segment's full Classification (best + runner-up letters and
  /// scores).
  std::vector<Classification> classify_word_detailed(
      const std::vector<Vec2>& trajectory, std::size_t letters) const;

  /// Lexicon-based word recognition, mirroring the paper's use of a
  /// dictionary-backed recognizer (LipiTk over O.E.D. words): scores the
  /// whole trajectory against whole-word templates built from the stroke
  /// font (including inter-letter transitions) and returns the best
  /// candidate. Returns an empty string for an empty lexicon.
  std::string classify_word_lexicon(
      const std::vector<Vec2>& trajectory,
      const std::vector<std::string>& lexicon) const;

  /// Whole-shape dissimilarity between a trajectory and the clean
  /// rendering of `text` (letters laid out left to right). Exposed for
  /// tests and for the word benches.
  double word_score(const std::vector<Vec2>& trajectory,
                    const std::string& text) const;

 private:
  std::size_t points_;
  struct Template {
    char letter;
    std::vector<Vec2> shape;  // resampled, centered, unit-size
  };
  std::vector<Template> templates_;
};

/// Tracks classification outcomes into a confusion matrix over A-Z.
class ConfusionMatrix {
 public:
  void record(char truth, char predicted);

  /// Count of (truth, predicted) cell.
  int count(char truth, char predicted) const;
  /// Row-normalized rate, 0 when the row is empty.
  double rate(char truth, char predicted) const;
  /// Per-letter recognition accuracy (diagonal rate).
  double accuracy(char truth) const { return rate(truth, truth); }
  int total() const { return total_; }

  /// Most confused off-diagonal pair for a given truth letter.
  std::optional<char> top_confusion(char truth) const;

 private:
  static std::size_t idx(char c);
  std::array<std::array<int, 26>, 26> cells_{};
  int total_ = 0;
};

}  // namespace polardraw::recognition
