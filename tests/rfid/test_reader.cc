#include "rfid/reader.h"

#include <gtest/gtest.h>

#include <map>

#include "common/angles.h"
#include "rfid/modulation.h"

namespace polardraw::rfid {
namespace {

em::ReaderAntenna down_antenna(double x, double pol_angle_rad) {
  em::ReaderAntenna a = em::make_linear_antenna(Vec3{x, 1.25, 0.12}, pol_angle_rad);
  a.boresight = Vec3{0.0, -1.0, 0.0};
  a.polarization_axis = Vec3{std::cos(pol_angle_rad), 0.0, std::sin(pol_angle_rad)};
  return a;
}

class ReaderTest : public ::testing::Test {
 protected:
  ReaderTest()
      : reader_(make_reader()) {}

  static Reader make_reader() {
    ReaderConfig cfg;
    cfg.auto_select_modulation = false;
    cfg.fixed_modulation = Modulation::kFM0;
    std::vector<em::ReaderAntenna> rig{
        down_antenna(0.22, kPi / 2.0 + 0.26),
        down_antenna(0.78, kPi / 2.0 - 0.26)};
    return Reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));
  }

  static em::Tag co_polarized_tag() {
    em::Tag t;
    t.position = Vec3{0.5, 0.25, 0.0};
    t.dipole_axis = Vec3{0.0, 0.0, 1.0};  // roughly along both antennas
    return t;
  }

  Reader reader_;
};

TEST_F(ReaderTest, InterrogateCoPolarizedSucceeds) {
  const auto rep = reader_.interrogate(0, co_polarized_tag(), 0.0);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->antenna_id, 0);
  EXPECT_GT(rep->rss_dbm, -70.0);
  EXPECT_GE(rep->phase_rad, 0.0);
  EXPECT_LT(rep->phase_rad, kTwoPi);
}

TEST_F(ReaderTest, CrossPolarizedTagFailsActivation) {
  em::Tag t = co_polarized_tag();
  // Dipole along the LOS (pointing at the antenna): no transverse extent.
  t.dipole_axis = Vec3{0.0, 1.0, 0.0};
  t.sensitivity_dbm = 5.0;  // deaf chip to make the threshold bite
  const auto rep = reader_.interrogate(0, t, 0.0);
  EXPECT_FALSE(rep.has_value());
}

TEST_F(ReaderTest, InventoryRateMatchesConfig) {
  const auto tag = co_polarized_tag();
  const auto stream =
      reader_.inventory([&](double) { return tag; }, 0.0, 2.0);
  // 100 Hz aggregate for 2 s with near-perfect link: ~200 reads (FM0 is
  // the fixed default here with rate factor 1).
  EXPECT_GT(stream.size(), 150u);
  EXPECT_LE(stream.size(), 210u);
  // Ports round-robin evenly.
  int port0 = 0;
  for (const auto& r : stream) port0 += r.antenna_id == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(port0), static_cast<double>(stream.size()) / 2.0,
              static_cast<double>(stream.size()) * 0.1);
}

TEST_F(ReaderTest, TimestampsMonotone) {
  const auto tag = co_polarized_tag();
  const auto stream =
      reader_.inventory([&](double) { return tag; }, 0.0, 1.0);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GT(stream[i].timestamp_s, stream[i - 1].timestamp_s);
  }
}

TEST_F(ReaderTest, PhaseQuantized) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.phase_quantization_bits = 4;  // coarse: 16 steps
  std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));
  const auto tag = co_polarized_tag();
  const double step = kTwoPi / 16.0;
  for (int i = 0; i < 20; ++i) {
    const auto rep = reader.interrogate(0, tag, 0.01 * i);
    ASSERT_TRUE(rep.has_value());
    const double off = reader.port_phase_offsets()[0];
    (void)off;
    const double q = rep->phase_rad / step;
    EXPECT_NEAR(q, std::round(q), 1e-6);
  }
}

TEST_F(ReaderTest, PortOffsetsStablePerSession) {
  const auto offsets1 = reader_.port_phase_offsets();
  const auto tag = co_polarized_tag();
  reader_.inventory([&](double) { return tag; }, 0.0, 0.5);
  EXPECT_EQ(reader_.port_phase_offsets(), offsets1);
  EXPECT_EQ(offsets1.size(), 2u);
}

TEST_F(ReaderTest, ModulationSelectionPicksCleanScheme) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = true;
  std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));
  const auto tag = co_polarized_tag();
  const Modulation m = reader.select_modulation([&](double) { return tag; });
  // Strong static link: the fastest scheme should already pass the
  // phase-variance bar.
  EXPECT_EQ(m, Modulation::kFM0);
  EXPECT_EQ(reader.active_modulation(), m);
}

TEST(Modulation, RateAndGainOrdering) {
  EXPECT_GT(rate_factor(Modulation::kFM0), rate_factor(Modulation::kMiller8));
  EXPECT_LT(snr_gain(Modulation::kFM0), snr_gain(Modulation::kMiller8));
  EXPECT_EQ(miller_m(Modulation::kMiller4), 4);
  EXPECT_EQ(to_string(Modulation::kMiller2), "Miller-2");
}

TEST(ReaderInventory, EmptyOnBadTimeRange) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  std::vector<em::ReaderAntenna> rig{down_antenna(0.5, kPi / 2.0)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(1));
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  EXPECT_TRUE(reader.inventory([&](double) { return tag; }, 1.0, 1.0).empty());
  EXPECT_TRUE(reader.inventory([&](double) { return tag; }, 2.0, 1.0).empty());
}

TEST(ReaderHopping, ChannelOffsetsStableAndDistinct) {
  // The per-channel RF-chain offset is what per-channel calibration
  // subtracts; it must be a pure function of the channel index (stable
  // across dwells and reader instances) and distinct between the 50 FCC
  // channels (aliasing would silently merge two channels' phase bases).
  for (int c = 0; c < 50; ++c) {
    const double off = Reader::hop_channel_offset_rad(c);
    EXPECT_GE(off, 0.0);
    EXPECT_LT(off, kTwoPi);
    EXPECT_EQ(off, Reader::hop_channel_offset_rad(c));  // stable
    for (int d = 0; d < c; ++d) {
      EXPECT_GT(angle_dist(off, Reader::hop_channel_offset_rad(d)), 0.01)
          << "channels " << c << " and " << d << " alias";
    }
  }
}

TEST(ReaderHopping, ReportsFromSameChannelShareThePhaseBase) {
  // Two dwells on the same channel re-apply the same offset: reports of a
  // static tag from the same channel agree in phase no matter which dwell
  // they came from, while a different channel shifts the base by exactly
  // the offset difference. Noise is disabled to isolate the RF chain.
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.fixed_modulation = Modulation::kFM0;
  cfg.frequency_hopping = true;
  cfg.hop_channels = 50;
  cfg.hop_dwell_s = 0.4;
  cfg.noise.noise_floor_dbm = -300.0;  // kill AWGN
  cfg.noise.phase_noise_floor_rad = 0.0;
  cfg.noise.rss_jitter_db = 0.0;
  cfg.phase_quantization_bits = 30;  // effectively unquantized
  std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0 + 0.26)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));

  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.0, 0.0, 1.0};

  // Map dwell index -> channel by sampling mid-dwell over many dwells.
  std::map<int, std::vector<double>> phase_by_channel;
  for (int dwell = 0; dwell < 64; ++dwell) {
    const double t = (static_cast<double>(dwell) + 0.5) * cfg.hop_dwell_s;
    const auto rep = reader.interrogate(0, tag, t);
    ASSERT_TRUE(rep.has_value());
    phase_by_channel[rep->channel].push_back(rep->phase_rad);
  }
  ASSERT_GE(phase_by_channel.size(), 2u);  // hopping actually hops
  for (const auto& [ch, phases] : phase_by_channel) {
    for (const double p : phases) {
      // Same channel, any dwell: same measured phase. The carrier offset
      // between FCC channels also moves the propagation phase slightly
      // (4*pi*d*delta_f/c), but within one channel the measurement is
      // exactly reproducible for a static tag.
      EXPECT_NEAR(angle_dist(p, phases.front()), 0.0, 1e-6)
          << "channel " << ch;
    }
  }
}

TEST(ReaderPopulation, PresenceWindowsGateContention) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.fixed_modulation = Modulation::kFM0;
  std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0 + 0.26),
                                     down_antenna(0.78, kPi / 2.0 - 0.26)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.0, 0.0, 1.0};
  const auto state = [&](double) { return tag; };
  // Tag B is only present for the middle third.
  const std::vector<TagEntry> tags{
      {0xA1, state, 0.0, 1e300},
      {0xB2, state, 1.0, 2.0},
  };
  const auto stream = reader.inventory_population(tags, 0.0, 3.0);
  ASSERT_FALSE(stream.empty());
  std::size_t a_reads = 0, b_reads = 0;
  for (const auto& r : stream) {
    ASSERT_TRUE(r.epc == 0xA1 || r.epc == 0xB2);
    if (r.epc == 0xB2) {
      ++b_reads;
      // No report outside the presence window (rounds straddling the
      // leave edge may run a shade past it, never before entry).
      EXPECT_GE(r.timestamp_s, 1.0);
      EXPECT_LT(r.timestamp_s, 2.1);
    } else {
      ++a_reads;
    }
  }
  EXPECT_GT(b_reads, 10u);
  // A reads alone for 2 of 3 seconds: it must out-read B handily.
  EXPECT_GT(a_reads, 2 * b_reads);
  // Timestamps non-decreasing (slot schedule order).
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].timestamp_s, stream[i - 1].timestamp_s);
  }
}

TEST(ReaderPopulation, DeterministicGivenSeed) {
  const auto run = [] {
    ReaderConfig cfg;
    cfg.auto_select_modulation = false;
    cfg.fixed_modulation = Modulation::kFM0;
    cfg.frequency_hopping = true;
    std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0 + 0.26),
                                       down_antenna(0.78, kPi / 2.0 - 0.26)};
    Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(11));
    em::Tag tag;
    tag.position = Vec3{0.5, 0.25, 0.0};
    tag.dipole_axis = Vec3{0.0, 0.0, 1.0};
    const auto state = [tag](double) { return tag; };
    const std::vector<TagEntry> tags{{0xA1, state}, {0xB2, state},
                                     {0xC3, state, 0.5, 1e300}};
    return reader.inventory_population(tags, 0.0, 2.0);
  };
  const auto s1 = run();
  const auto s2 = run();
  ASSERT_EQ(s1.size(), s2.size());
  ASSERT_FALSE(s1.empty());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].timestamp_s, s2[i].timestamp_s);
    EXPECT_EQ(s1[i].epc, s2[i].epc);
    EXPECT_EQ(s1[i].phase_rad, s2[i].phase_rad);
    EXPECT_EQ(s1[i].rss_dbm, s2[i].rss_dbm);
    EXPECT_EQ(s1[i].channel, s2[i].channel);
    EXPECT_EQ(s1[i].antenna_id, s2[i].antenna_id);
  }
}

TEST(ReaderPopulation, EmergentReadRateReportsCumulativeRate) {
  ReaderConfig cfg;
  cfg.auto_select_modulation = false;
  cfg.fixed_modulation = Modulation::kFM0;
  std::vector<em::ReaderAntenna> rig{down_antenna(0.22, kPi / 2.0 + 0.26),
                                     down_antenna(0.78, kPi / 2.0 - 0.26)};
  Reader reader(cfg, std::move(rig), channel::MultipathChannel{}, Rng(5));
  em::Tag tag;
  tag.position = Vec3{0.5, 0.25, 0.0};
  tag.dipole_axis = Vec3{0.0, 0.0, 1.0};
  const auto state = [&](double) { return tag; };
  const std::vector<TagEntry> tags{{0xA1, state}, {0xB2, state},
                                   {0xC3, state}, {0xD4, state}};
  const double run_s = 3.0;
  const auto stream = reader.inventory_population(tags, 0.0, run_s);
  ASSERT_GT(stream.size(), 40u);
  // Each tag's read rate over the run emerges from the contention: under
  // 4-way contention it must sit well below the lone-tag rate but stay
  // positive, and the sum across tags stays below the aggregate budget.
  double sum_rate = 0.0;
  std::map<std::uint32_t, double> rate_of;
  for (const auto& r : stream) rate_of[r.epc] += 1.0 / run_s;
  for (const auto& [epc, rate] : rate_of) {
    EXPECT_GT(rate, 1.0) << "epc " << epc;
    EXPECT_LT(rate, cfg.aggregate_read_rate_hz) << "epc " << epc;
    sum_rate += rate;
  }
  EXPECT_LE(sum_rate, cfg.aggregate_read_rate_hz * 1.05);
}

}  // namespace
}  // namespace polardraw::rfid
