#include "recognition/classifier.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "handwriting/kinematics.h"
#include "handwriting/synthesizer.h"
#include "recognition/dtw.h"
#include "recognition/procrustes.h"

namespace polardraw::recognition {
namespace {

std::vector<Vec2> clean_letter(char c, Vec2 origin = {0.2, 0.15},
                               double size = 0.2) {
  const auto& g = handwriting::glyph_for(c);
  return handwriting::flatten_strokes(
      handwriting::place_glyph(g, origin, size));
}

TEST(LetterClassifier, PerfectOnCleanTemplates) {
  const LetterClassifier cls;
  for (char c : handwriting::alphabet()) {
    EXPECT_EQ(cls.classify(clean_letter(c)).letter, c) << c;
  }
}

TEST(LetterClassifier, ScaleAndPositionInvariant) {
  const LetterClassifier cls;
  for (char c : std::string("AMSWZ")) {
    EXPECT_EQ(cls.classify(clean_letter(c, {3.0, -1.0}, 0.04)).letter, c) << c;
  }
}

TEST(LetterClassifier, ToleratesModerateNoise) {
  const LetterClassifier cls;
  Rng rng(11);
  int correct = 0, total = 0;
  for (char c : handwriting::alphabet()) {
    auto pts = clean_letter(c);
    // Densify then jitter, simulating tracking error.
    pts = resample_by_arclength(pts, 120);
    for (auto& p : pts) {
      p.x += rng.gaussian(0.0, 0.006);
      p.y += rng.gaussian(0.0, 0.006);
    }
    ++total;
    correct += cls.classify(pts).letter == c ? 1 : 0;
  }
  EXPECT_GE(correct, total - 2);
}

TEST(LetterClassifier, RotatedLetterNotAliased) {
  // Z rotated a quarter turn looks like N; the classifier must not take
  // that alignment.
  const LetterClassifier cls;
  auto z = clean_letter('Z');
  EXPECT_EQ(cls.classify(z).letter, 'Z');
  const auto n = clean_letter('N');
  EXPECT_EQ(cls.classify(n).letter, 'N');
}

TEST(LetterClassifier, DegenerateInputSafe) {
  const LetterClassifier cls;
  EXPECT_EQ(cls.classify({}).letter, '?');
  EXPECT_EQ(cls.classify({{0.1, 0.1}}).letter, '?');
}

TEST(LetterClassifier, SecondBestPopulated) {
  const LetterClassifier cls;
  const auto r = cls.classify(clean_letter('O'));
  EXPECT_EQ(r.letter, 'O');
  EXPECT_NE(r.second, 'O');
  EXPECT_GE(r.second_score, r.score);
}

TEST(WordClassifier, SegmentsCleanWordsMostly) {
  // Segment-wise classification is inherently fragile around the
  // inter-letter bridge strokes; require most letters right.
  const LetterClassifier cls;
  handwriting::SynthesisConfig cfg;
  cfg.user.shape_wobble = 0.0;
  Rng rng(5);
  int letters_total = 0, letters_ok = 0;
  for (const std::string word : {"AT", "SUN", "MOON"}) {
    const auto trace = handwriting::synthesize(word, cfg, rng);
    const auto poly = handwriting::flatten_strokes(trace.ground_truth);
    const auto got = cls.classify_word_detailed(poly, word.size());
    ASSERT_EQ(got.size(), word.size());
    for (std::size_t i = 0; i < word.size(); ++i) {
      ++letters_total;
      letters_ok += got[i].letter == word[i] ? 1 : 0;
    }
  }
  EXPECT_GE(letters_ok * 3, letters_total * 2);
}

TEST(WordClassifier, LexiconMatchesCleanWords) {
  const LetterClassifier cls;
  handwriting::SynthesisConfig cfg;
  cfg.user.shape_wobble = 0.0;
  Rng rng(5);
  const std::vector<std::string> lex3{"ACT", "BIG", "CAR", "DOG", "EAT",
                                      "FUN", "HAT", "JOB", "MAP", "SUN"};
  for (const std::string word : {"SUN", "DOG", "MAP"}) {
    const auto trace = handwriting::synthesize(word, cfg, rng);
    const auto poly = handwriting::flatten_strokes(trace.ground_truth);
    EXPECT_EQ(cls.classify_word_lexicon(poly, lex3), word) << word;
  }
}

TEST(WordClassifier, LexiconEmptyAndDegenerate) {
  const LetterClassifier cls;
  EXPECT_TRUE(cls.classify_word_lexicon({{0, 0}, {1, 1}}, {}).empty());
  EXPECT_GE(cls.word_score({}, "CAT"), 1e8);
  EXPECT_GE(cls.word_score({{0, 0}, {1, 1}}, ""), 1e8);
}

TEST(WordClassifier, DegenerateInputs) {
  const LetterClassifier cls;
  EXPECT_TRUE(cls.classify_word_detailed({}, 3).empty());
  EXPECT_TRUE(cls.classify_word_detailed({{0, 0}, {1, 1}}, 0).empty());
}

TEST(ConfusionMatrix, RecordsAndNormalizes) {
  ConfusionMatrix cm;
  cm.record('A', 'A');
  cm.record('A', 'A');
  cm.record('A', 'B');
  cm.record('B', 'B');
  EXPECT_EQ(cm.count('A', 'A'), 2);
  EXPECT_EQ(cm.count('A', 'B'), 1);
  EXPECT_NEAR(cm.rate('A', 'A'), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.accuracy('B'), 1.0, 1e-12);
  EXPECT_EQ(cm.total(), 4);
}

TEST(ConfusionMatrix, TopConfusion) {
  ConfusionMatrix cm;
  cm.record('L', 'I');
  cm.record('L', 'I');
  cm.record('L', 'C');
  ASSERT_TRUE(cm.top_confusion('L').has_value());
  EXPECT_EQ(*cm.top_confusion('L'), 'I');
  EXPECT_FALSE(cm.top_confusion('Q').has_value());
}

TEST(ConfusionMatrix, IgnoresNonLetters) {
  ConfusionMatrix cm;
  cm.record('?', 'A');
  cm.record('A', '?');
  EXPECT_EQ(cm.total(), 0);
  EXPECT_EQ(cm.rate('A', 'A'), 0.0);
}

TEST(Dtw, IdenticalSequencesZero) {
  const std::vector<Vec2> a{{0, 0}, {1, 0}, {2, 0}};
  EXPECT_NEAR(dtw_distance(a, a), 0.0, 1e-12);
}

TEST(Dtw, TimeWarpAbsorbed) {
  // Same path, one traversed with a long dwell in the middle: DTW cost
  // stays near zero while a fixed-index comparison would be large.
  std::vector<Vec2> a, b;
  for (int i = 0; i <= 20; ++i) a.push_back({i * 0.05, 0.0});
  for (int i = 0; i <= 10; ++i) b.push_back({i * 0.05, 0.0});
  for (int i = 0; i < 10; ++i) b.push_back({0.5, 0.0});  // dwell
  for (int i = 11; i <= 20; ++i) b.push_back({i * 0.05, 0.0});
  EXPECT_LT(dtw_distance(a, b), 0.01);
}

TEST(Dtw, DifferentShapesCostly) {
  std::vector<Vec2> line, arc;
  for (int i = 0; i <= 30; ++i) {
    line.push_back({i / 30.0, 0.0});
    arc.push_back({i / 30.0, std::sin(i / 30.0 * 3.14159)});
  }
  EXPECT_GT(dtw_distance(line, arc), 0.1);
}

TEST(Dtw, DegenerateInputsLargeCost) {
  EXPECT_GE(dtw_distance({}, {{1, 1}}), 1e8);
  EXPECT_GE(dtw_distance({{1, 1}}, {}), 1e8);
}

TEST(Dtw, SymmetricEnough) {
  std::vector<Vec2> a, b;
  Rng rng(4);
  for (int i = 0; i < 25; ++i) {
    a.push_back({rng.uniform(), rng.uniform()});
    b.push_back({rng.uniform(), rng.uniform()});
  }
  EXPECT_NEAR(dtw_distance(a, b), dtw_distance(b, a), 1e-9);
}

}  // namespace
}  // namespace polardraw::recognition
