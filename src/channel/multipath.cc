#include "channel/multipath.h"

#include <cmath>

#include "common/angles.h"
#include "common/units.h"
#include "em/constants.h"
#include "em/polarization.h"

namespace polardraw::channel {

namespace {

/// Mixes the incident polarization axis toward the scatterer's reflected
/// axis according to its depolarization coefficient.
Vec3 reflected_polarization(const Vec3& incident_axis, const Scatterer& s) {
  const Vec3 mixed =
      incident_axis * (1.0 - s.depolarization) + s.reflected_axis * s.depolarization;
  const Vec3 n = mixed.normalized();
  return n == Vec3{} ? s.reflected_axis : n;
}

}  // namespace

ChannelSample MultipathChannel::evaluate(const em::ReaderAntenna& antenna,
                                         const em::Tag& tag,
                                         const em::TxConfig& tx,
                                         double t_s) const {
  ChannelSample out;
  const double lambda = tx.wavelength_m();
  const double p_tx_mw = dbm_to_mw(tx.power_dbm);
  const double g_tag = db_to_ratio(tag.gain_dbi);
  const double l_mod = db_to_ratio(tag.modulation_loss_db);

  // --- Line-of-sight path -------------------------------------------------
  const em::LinkSample los = em::evaluate_los_link(antenna, tag, tx);
  out.los_response = los.response;
  out.response = los.response;
  double tag_power_mw = dbm_to_mw(los.forward_power_dbm);

  // --- Single-bounce reflected paths --------------------------------------
  // Forward: antenna -> scatterer -> tag. Reverse (reciprocal): tag ->
  // scatterer -> antenna. We model the round trip through the same
  // scatterer; cross terms (LOS out, reflection back) are folded in with
  // the same machinery by treating each direction's coupling independently.
  for (const Scatterer& s : scatterers_) {
    const Vec3 sp = s.position_at(t_s);
    const double d1 = antenna.position.dist(sp);  // antenna -> scatterer
    const double d2 = sp.dist(tag.position);      // scatterer -> tag
    if (d1 <= 0.0 || d2 <= 0.0) continue;
    const Vec3 dir_as = (sp - antenna.position) / d1;
    const Vec3 dir_st = (tag.position - sp) / d2;

    // Polarization bookkeeping along the forward bounce.
    double chi_fwd;
    Vec3 axis_after_bounce;
    if (antenna.mode == em::PolarizationMode::kLinear) {
      axis_after_bounce = reflected_polarization(antenna.polarization_axis, s);
      const double beta_tag =
          em::mismatch_angle(axis_after_bounce, tag.dipole_axis, dir_st);
      chi_fwd = em::malus_factor(beta_tag);
    } else {
      axis_after_bounce = reflected_polarization(s.reflected_axis, s);
      chi_fwd = 0.5;
    }

    const double fs1 = em::free_space_gain(d1, lambda);
    const double fs2 = em::free_space_gain(d2, lambda);
    const double g_ant = antenna.gain_toward(sp);

    // Power reaching the tag chip via this bounce.
    const double p_fwd_mw =
        p_tx_mw * g_ant * fs1 * s.reflectivity * fs2 * g_tag * chi_fwd;
    tag_power_mw += p_fwd_mw;

    // Reverse traversal: tag re-radiates along its dipole axis; the bounce
    // depolarizes again before reaching the (polarized) antenna.
    double chi_rev;
    if (antenna.mode == em::PolarizationMode::kLinear) {
      const Vec3 axis_back = reflected_polarization(tag.dipole_axis, s);
      const double beta_ant = em::mismatch_angle(
          axis_back, antenna.polarization_axis, -dir_as);
      chi_rev = em::malus_factor(beta_ant);
    } else {
      chi_rev = 0.5;
    }

    const double p_rx_mw =
        p_fwd_mw * l_mod * g_tag * fs2 * s.reflectivity * fs1 * g_ant * chi_rev;
    const double path_len = d1 + d2;  // one-way geometric length
    const double phase = em::round_trip_phase(path_len, lambda);
    out.response += std::polar(std::sqrt(p_rx_mw), -phase);
  }

  out.tag_power_dbm = mw_to_dbm(tag_power_mw);
  return out;
}

MultipathChannel make_office_channel(int clutter_count) {
  MultipathChannel ch;
  for (int i = 0; i < clutter_count; ++i) {
    ch.add(make_office_clutter(i));
  }
  return ch;
}

}  // namespace polardraw::channel
