// Tests for the per-segment word classification detail and the
// lexicon word scoring used by the Fig. 18 harness.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "handwriting/synthesizer.h"
#include "recognition/classifier.h"

namespace polardraw::recognition {
namespace {

std::vector<Vec2> clean_word(const std::string& word) {
  handwriting::SynthesisConfig cfg;
  cfg.user.shape_wobble = 0.0;
  Rng rng(5);
  const auto trace = handwriting::synthesize(word, cfg, rng);
  return handwriting::flatten_strokes(trace.ground_truth);
}

TEST(WordDetail, SegmentsCarryScores) {
  const LetterClassifier cls;
  const auto detail = cls.classify_word_detailed(clean_word("SUN"), 3);
  ASSERT_EQ(detail.size(), 3u);
  for (const auto& c : detail) {
    EXPECT_GE(c.score, 0.0);
    EXPECT_GE(c.second_score, c.score);
    EXPECT_NE(c.letter, c.second);
  }
}

TEST(WordDetail, SingleLetterPassThrough) {
  const LetterClassifier cls;
  const auto detail = cls.classify_word_detailed(clean_word("M"), 1);
  ASSERT_EQ(detail.size(), 1u);
  EXPECT_EQ(detail[0].letter, 'M');
}

TEST(WordDetail, DegenerateInputs) {
  const LetterClassifier cls;
  EXPECT_TRUE(cls.classify_word_detailed({}, 3).empty());
  EXPECT_TRUE(cls.classify_word_detailed({{0, 0}, {1, 1}}, 0).empty());
}

TEST(WordScore, TrueWordScoresBest) {
  const LetterClassifier cls;
  const auto poly = clean_word("MOON");
  const double own = cls.word_score(poly, "MOON");
  for (const std::string other : {"RAIN", "GOLD", "DESK", "WIND"}) {
    EXPECT_LT(own, cls.word_score(poly, other)) << other;
  }
}

TEST(WordScore, LongerMismatchScoresWorse) {
  const LetterClassifier cls;
  const auto poly = clean_word("AT");
  EXPECT_LT(cls.word_score(poly, "AT"), cls.word_score(poly, "WATER"));
}

TEST(WordScore, ScaleInvariant) {
  const LetterClassifier cls;
  auto poly = clean_word("HAT");
  const double base = cls.word_score(poly, "HAT");
  for (auto& p : poly) p = p * 3.0 + Vec2{5.0, -2.0};
  EXPECT_NEAR(cls.word_score(poly, "HAT"), base, 1e-9);
}

}  // namespace
}  // namespace polardraw::recognition
