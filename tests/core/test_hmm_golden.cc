// Golden-trajectory determinism tests for the Viterbi decode hot path.
//
// Each case runs decode_full_lag on a seeded synthetic observation
// stream (core/decode_testbed.h) and compares the decoded block sequence
// against a recorded golden sequence. The goldens were captured from the
// pre-optimization decoder (PR 1 state, unordered_map scoreboard, inline
// expected_dtheta21); the optimized decoder must stay bit-identical --
// same accepted candidates, same tie-breaks, same pruning survivors.
//
// If a deliberate semantic change ever invalidates a golden, the failure
// message prints the new sequence in paste-able form.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/decode_testbed.h"
#include "core/phase_field.h"
#include "core/streaming_decoder.h"

namespace polardraw::core {
namespace {

/// Maps a decoded block-center trajectory back to packed cell indices.
std::vector<int> to_cells(const std::vector<Vec2>& traj,
                          const PolarDrawConfig& cfg) {
  const int cols =
      std::max(1, static_cast<int>(cfg.board_width_m / cfg.block_m));
  std::vector<int> cells;
  cells.reserve(traj.size());
  for (const Vec2& p : traj) {
    const int c = static_cast<int>(p.x / cfg.block_m);
    const int r = static_cast<int>(p.y / cfg.block_m);
    cells.push_back(r * cols + c);
  }
  return cells;
}

std::string paste_form(const std::vector<int>& cells) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << cells[i] << (i + 1 < cells.size() ? "," : "");
    if (i % 16 == 15) os << "\n";
  }
  return os.str();
}

void expect_golden(const PolarDrawConfig& cfg, int n_windows,
                   std::uint64_t seed, bool use_hint,
                   const std::vector<int>& golden) {
  const auto tb = make_decode_testbed(cfg, n_windows, seed);
  const auto traj = decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs,
                                    use_hint ? &tb.start : nullptr);
  const auto cells = to_cells(traj, cfg);
  ASSERT_EQ(cells.size(), static_cast<std::size_t>(n_windows) + 1);
  EXPECT_EQ(cells, golden) << "decoded sequence changed; new sequence:\n"
                           << paste_form(cells);
}

TEST(HmmGolden, DefaultConfigSeed1) {
  const std::vector<int> golden = {
      9931,  9682,  9433,  9184,  9185,  8937,  8439,  8189,  8189,  7939,
      7439,  7439,  6940,  6441,  5942,  5694,  5445,  5447,  5199,  4950,
      4702,  4703,  4204,  3955,  3205,  2706,  2957,  3209,  3211,  3712,
      3963,  4464,  4965,  4967,  4968,  5220,  5472,  5973,  6473,  6973,
      6722,  7223,  7474,  7974,  8474,  8473,  8973,  9224,  9474,  9474,
      9973,  10222, 10471, 10720, 10968, 10967, 10966, 10965, 10713, 10711,
      10210, 9959,  9958,  9457,  9707,  9206,  8955,  8703,  8452,  8452,
      7952,  7701,  7450,  7198,  6946,  6695,  6444,  6192,  6190,  6189,
      6187,  6186,  5684,  5183,  4932,  4431,  3931,  3681,  3431,  2932,
      2433,  2183,  2433,  2683,  3182,  3681,  4180,  4680,  5179,  5678,
      5677};
  expect_golden(PolarDrawConfig{}, 100, 1, true, golden);
}

TEST(HmmGolden, DefaultConfigSeed2NoHint) {
  const std::vector<int> golden = {
      20364, 20864, 21363, 21612, 21862, 22111, 22611, 22360, 22860, 23110,
      23609, 24109, 24359, 24861, 24859, 25360, 25610, 26110, 26609, 26859,
      27359, 27107, 27358, 27359, 27357, 27358, 27609, 27860, 28360, 28610,
      28110, 27609, 27109, 26610, 26111, 25861, 25362, 25112, 24864, 24364,
      24113, 23863, 23363, 23112, 22612, 21862, 21363, 20863, 20864, 20365,
      20115, 19616, 19366, 18868, 18369, 18119, 17619, 17369, 17119, 16869,
      16619, 16370, 15870, 15620, 15369, 15119, 15368, 15617, 15866, 16115,
      16365, 16614, 16863, 16862, 16860, 16608, 16609, 16610, 16611, 16612,
      16364, 16366, 16365, 16616, 16618, 16616, 16618, 16619, 16869, 16871,
      17122, 17372, 17373, 17374, 17125, 16875, 16625, 16375, 16375, 16126,
      16128};
  expect_golden(PolarDrawConfig{}, 100, 2, false, golden);
}

TEST(HmmGolden, PaperLinearSharpnessSmallBoard) {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.5;
  cfg.board_height_m = 0.4;
  cfg.block_m = 0.005;
  cfg.beam_width = 200;
  cfg.hyperbola_sharpness = 1.0;
  const std::vector<int> golden = {
      4757, 4758, 4658, 4457, 4356, 4355, 4254, 4054, 3954, 3854, 3655, 3556,
      3357, 3257, 3157, 3056, 2855, 2654, 2453, 2352, 2151, 2051, 1950, 1849,
      1849, 1648, 1548, 1348, 1149, 1149, 950,  751,  751,  751,  751,  652,
      652,  553,  454,  355,  354,  255,  254,  54,   255,  355,  456,  657,
      858,  959,  1060, 1061, 1062, 1063, 1165, 1266, 1368, 1470, 1372, 1373,
      1374, 1375, 1374, 1276, 1275, 1177, 1179, 1380, 1481, 1581, 1781, 1980,
      2179, 2278, 2377, 2475, 2474, 2474, 2572, 2571, 2669};
  expect_golden(cfg, 80, 3, true, golden);
}

TEST(HmmGolden, GreedyAblationSeed4) {
  PolarDrawConfig cfg;
  cfg.use_viterbi = false;
  const std::vector<int> golden = {
      21793, 21291, 21040, 21038, 21036, 21036, 21037, 21036, 20787, 20785,
      20533, 20032, 19782, 19281, 19280, 19030, 18530, 18530, 18281, 18033,
      18034, 17536, 17535, 17286, 16788, 16790, 16541, 16292, 16044, 16045,
      16296, 16547, 17048, 17550, 17802, 17802, 18053, 18305, 18304, 18306,
      18558, 18810, 18811, 19063, 19314, 19565, 19816, 20068, 20069, 20068,
      19820, 19820, 19320, 18821, 18571, 18071, 17822, 17572, 17072, 16824,
      16575};
  expect_golden(cfg, 60, 4, true, golden);
}

TEST(HmmGolden, DecodeIsRepeatable) {
  // Two decodes of the same stream over one shared phase field must agree
  // exactly (no hidden state).
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 50, 9);
  const auto field =
      std::make_shared<const PhaseField>(cfg, tb.a1, tb.a2, tb.antenna_z);
  const auto a = decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs,
                                 &tb.start, field);
  const auto b = decode_full_lag(cfg, tb.a1, tb.a2, tb.antenna_z, tb.obs,
                                 &tb.start, field);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

}  // namespace
}  // namespace polardraw::core
