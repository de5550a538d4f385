// Tests for the paper's future-work extensions implemented here: the
// language-model post-processor, the multi-tag inventory, and the WISP
// touch sensor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/angles.h"
#include "handwriting/synthesizer.h"
#include "recognition/language_model.h"
#include "rfid/wisp.h"
#include "sim/scene.h"

namespace polardraw {
namespace {

// ---------------------------------------------------------------------------
// Language model
// ---------------------------------------------------------------------------
TEST(BigramModel, CommonPatternsMoreLikely) {
  const recognition::BigramModel lm;
  // 'TH' is among the most common English bigrams; 'QX' is not.
  EXPECT_GT(lm.transition_log_prob('T', 'H'),
            lm.transition_log_prob('Q', 'X'));
  EXPECT_GT(lm.log_prob("THE"), lm.log_prob("XQZ"));
}

TEST(BigramModel, DegenerateWords) {
  const recognition::BigramModel lm;
  EXPECT_LT(lm.log_prob(""), -1e5);
  EXPECT_LT(lm.log_prob("A1B"), -1e5);
}

TEST(BigramModel, CustomCorpusLearns) {
  const recognition::BigramModel lm({"ZZZZ", "ZZZ"});
  EXPECT_GT(lm.transition_log_prob('Z', 'Z'),
            lm.transition_log_prob('A', 'B'));
}

TEST(WordCorrector, DecodePrefersLikelySequences) {
  const recognition::WordCorrector corrector{recognition::BigramModel{}, 2.0};
  // Position scores tie exactly; the bigram prior must break the tie
  // toward the common word.
  std::vector<std::vector<recognition::LetterHypothesis>> positions{
      {{'T', 0.0}, {'X', 0.0}},
      {{'H', 0.0}, {'Q', 0.0}},
      {{'E', 0.0}, {'Z', 0.0}},
  };
  EXPECT_EQ(corrector.decode(positions), "THE");
}

TEST(WordCorrector, DecodeRespectsStrongEvidence) {
  const recognition::WordCorrector corrector{recognition::BigramModel{}, 0.5};
  // Overwhelming classifier evidence for an unusual sequence must win.
  std::vector<std::vector<recognition::LetterHypothesis>> positions{
      {{'X', 0.0}, {'T', 50.0}},
      {{'Q', 0.0}, {'H', 50.0}},
  };
  EXPECT_EQ(corrector.decode(positions), "XQ");
}

TEST(WordCorrector, SnapFixesOneLetterError) {
  const recognition::WordCorrector corrector{recognition::BigramModel{}};
  EXPECT_EQ(corrector.snap_to_dictionary("MOOM", {"MOON", "GOLD", "RAIN"}),
            "MOON");
  // Beyond max_edits: unchanged.
  EXPECT_EQ(corrector.snap_to_dictionary("XYZQW", {"MOON"}), "XYZQW");
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(recognition::edit_distance("", ""), 0);
  EXPECT_EQ(recognition::edit_distance("ABC", "ABC"), 0);
  EXPECT_EQ(recognition::edit_distance("ABC", "ABD"), 1);
  EXPECT_EQ(recognition::edit_distance("ABC", "AC"), 1);
  EXPECT_EQ(recognition::edit_distance("KITTEN", "SITTING"), 3);
}

// ---------------------------------------------------------------------------
// Multi-tag inventory
// ---------------------------------------------------------------------------
TEST(MultiTag, PopulationSharesReadBudget) {
  sim::SceneConfig scfg;
  scfg.seed = 8;
  sim::Scene scene(scfg);
  em::Tag tag;
  tag.position = Vec3{0.45, 0.25, 0.0};
  tag.dipole_axis = em::pen_axis({deg2rad(30.0), deg2rad(90.0)});
  em::Tag tag2 = tag;
  tag2.position = Vec3{0.55, 0.25, 0.0};
  const std::vector<rfid::TagEntry> tags{
      {0xAA, [&](double) { return tag; }},
      {0xBB, [&](double) { return tag2; }},
  };
  scene.reader().select_modulation(tags[0].state);
  const auto reports = scene.reader().inventory_population(tags, 0.0, 3.0);
  ASSERT_GT(reports.size(), 100u);
  int a = 0, b = 0;
  for (const auto& r : reports) {
    if (r.epc == 0xAA) ++a;
    if (r.epc == 0xBB) ++b;
  }
  EXPECT_EQ(a + b, static_cast<int>(reports.size()));
  // Roughly even split of the slot budget.
  EXPECT_NEAR(static_cast<double>(a) / (a + b), 0.5, 0.12);
}

// Eight pens share one Gen2 inventory under churn: two arrive late (their
// traces start at their entry time) and one leaves early. The MAC must
// spread the slot budget evenly over the pens present: the Jain index of
// per-pen reads per present second, (sum r)^2 / (N sum r^2), stays near 1,
// and no pen starves.
TEST(MultiTag, EightPenChurnStaysFair) {
  sim::SceneConfig scfg;
  scfg.seed = 77;
  scfg.reader.frequency_hopping = true;
  scfg.reader.auto_select_modulation = false;
  sim::Scene scene(scfg);

  constexpr double kAirS = 2.0;
  const std::string letters = "MZANKWOS";
  Rng rng(9);
  std::vector<handwriting::WritingTrace> traces;
  std::vector<rfid::TagEntry> tags;
  traces.reserve(letters.size());
  for (std::size_t p = 0; p < letters.size(); ++p) {
    handwriting::SynthesisConfig synth;
    synth.auto_center = false;
    synth.origin = {0.08 + 0.11 * static_cast<double>(p % 4),
                    p < 4 ? 0.12 : 0.38};
    synth.user = handwriting::user_style(1 + static_cast<int>(p % 4));
    traces.push_back(
        handwriting::synthesize(std::string(1, letters[p]), synth, rng));
    const double t_enter = p >= 6 ? 0.3 * kAirS : 0.0;
    const double t_leave = p == 0 ? 0.7 * kAirS : 1e300;
    const auto* trace = &traces.back();
    tags.push_back(rfid::TagEntry{
        0xA0u + static_cast<std::uint32_t>(p),
        [trace, t_enter](double t) {
          return sim::tag_at_time(*trace, t - t_enter);
        },
        t_enter, t_leave});
  }

  const auto reports = scene.reader().inventory_population(tags, 0.0, kAirS);
  std::vector<int> reads(tags.size(), 0);
  for (const auto& r : reports) {
    ASSERT_GE(r.epc, 0xA0u);
    ASSERT_LT(r.epc - 0xA0u, tags.size());
    ++reads[r.epc - 0xA0u];
  }
  double sum = 0.0, sum_sq = 0.0, min_rate = 1e300;
  for (std::size_t p = 0; p < tags.size(); ++p) {
    const double present_s =
        std::min(tags[p].t_leave_s, kAirS) - tags[p].t_enter_s;
    const double rate = reads[p] / present_s;
    sum += rate;
    sum_sq += rate * rate;
    min_rate = std::min(min_rate, rate);
  }
  const double jain = sum * sum / (static_cast<double>(tags.size()) * sum_sq);
  EXPECT_GE(jain, 0.90);
  EXPECT_GE(min_rate, 0.8);
}

TEST(MultiTag, EmptyPopulation) {
  sim::SceneConfig scfg;
  sim::Scene scene(scfg);
  EXPECT_TRUE(scene.reader().inventory_population({}, 0.0, 1.0).empty());
}

// ---------------------------------------------------------------------------
// WISP touch sensing
// ---------------------------------------------------------------------------
TEST(Wisp, DetectsPenDownSegments) {
  handwriting::SynthesisConfig cfg;
  Rng rng(4);
  const auto trace = handwriting::synthesize("T", cfg, rng);  // 2 strokes
  rfid::WispConfig wcfg;
  Rng wisp_rng(5);
  const auto accel = rfid::simulate_wisp(trace, wcfg, wisp_rng);
  ASSERT_GT(accel.size(), 100u);

  const double window = 0.05;
  const auto touch = rfid::detect_touch(accel, window);
  ASSERT_FALSE(touch.empty());

  // Compare against ground truth per window: require decent agreement on
  // windows where the pen moves (dwell windows are ambiguous -- no
  // friction while touching but static).
  int agree = 0, total = 0;
  for (std::size_t w = 0; w < touch.size(); ++w) {
    const double t = (static_cast<double>(w) + 0.5) * window;
    const auto tag = sim::tag_at_time(trace, t);
    (void)tag;
    // Find pen_down and speed at window center from the trace.
    const auto& s = trace.samples;
    auto it = std::lower_bound(
        s.begin(), s.end(), t,
        [](const handwriting::TraceSample& a, double tv) { return a.t_s < tv; });
    if (it == s.begin() || it == s.end()) continue;
    const auto& hi = *it;
    const auto& lo = *(it - 1);
    const double speed =
        hi.pen_tip.dist(lo.pen_tip) / std::max(hi.t_s - lo.t_s, 1e-9);
    if (speed < 0.02) continue;  // skip dwells and slow corners
    ++total;
    agree += touch[w] == lo.pen_down ? 1 : 0;
  }
  ASSERT_GT(total, 10);
  EXPECT_GT(static_cast<double>(agree) / total, 0.8);
}

TEST(Wisp, GravityDominatesAtRest) {
  handwriting::WritingTrace trace;
  for (int i = 0; i <= 200; ++i) {
    handwriting::TraceSample s;
    s.t_s = i * 0.01;
    s.pen_tip = Vec3{0.4, 0.2, 0.0};
    s.pen_down = false;
    trace.samples.push_back(s);
  }
  rfid::WispConfig cfg;
  Rng rng(6);
  const auto accel = rfid::simulate_wisp(trace, cfg, rng);
  ASSERT_FALSE(accel.empty());
  for (const auto& a : accel) {
    EXPECT_NEAR(a.accel.norm(), cfg.gravity, 1.0);
    EXPECT_LT(a.accel.y, 0.0);
  }
}

TEST(Wisp, DegenerateInputs) {
  rfid::WispConfig cfg;
  Rng rng(1);
  EXPECT_TRUE(rfid::simulate_wisp(handwriting::WritingTrace{}, cfg, rng).empty());
  EXPECT_TRUE(rfid::detect_touch({}, 0.05).empty());
}

}  // namespace
}  // namespace polardraw
