// PolarDraw algorithm parameters.
//
// Defaults follow the paper's published choices where those transfer to
// this simulation substrate; the handful that were re-tuned say so in
// their comments and are justified in DESIGN.md section 7. Every value is
// a knob so the sweeps (Tables 7-8, bench_ablation_design) can vary them.
#pragma once

#include <cstddef>

#include "common/angles.h"
#include "em/constants.h"

namespace polardraw::core {

struct PolarDrawConfig {
  // ----- Pre-processing (section 3.1) -----
  /// Averaging window, seconds. Paper: 50 ms.
  double window_s = 0.050;
  /// Spurious phase rejection threshold on adjacent-window phase
  /// difference, radians. The paper tuned 0.2 rad on turntable data; a
  /// pen moving radially at vmax legitimately slews 4*pi*vmax*dt/lambda
  /// (~0.38 rad per 50 ms window), so the default here admits fast legal
  /// writing while still rejecting the multi-radian cross-polar glides.
  double spurious_phase_threshold_rad = 1.0;

  // ----- Writing model (sections 3.2-3.3) -----
  /// Assumed constant pen elevation angle alpha_e. Paper: 30 degrees,
  /// with Table 7 showing insensitivity across [-45, 45].
  double alpha_e_rad = deg2rad(30.0);
  /// Inter-antenna polarization half-angle gamma (must match the rig).
  /// Paper: 15 degrees (Table 8 sweeps it).
  double gamma_rad = deg2rad(15.0);

  // ----- Motion classification (section 3.3) -----
  /// RSS-change threshold separating rotational from translational motion,
  /// dB per window. The paper tuned delta = 2 dBm for its writers; the
  /// synthetic wrist rotates more smoothly, so the substrate's optimum is
  /// lower.
  double rotation_rss_delta_db = 1.0;

  // ----- Rotational tracking (section 3.3.1) -----
  /// Azimuth step per window while rotating, radians. Paper: 6 degrees;
  /// matched here to the synthetic wrist's typical angular rate.
  double delta_beta_rad = deg2rad(5.0);
  /// Per-antenna RSS-change threshold gating the azimuth step (Eq. 4).
  /// The paper tuned 1.5 dBm on its hardware; on this substrate one
  /// antenna always sits near its flat response peak during mid-sector
  /// rotation, so a lower per-antenna gate tracks markedly better.
  double delta_beta_gate_db = 0.5;

  // ----- Distance estimation (section 3.4) -----
  /// Maximum assumed pen speed, m/s. Paper: 0.2 m/s.
  double vmax_mps = 0.2;
  /// Phase-noise margin deducted from each per-antenna phase delta before
  /// converting to the Eq. 5 displacement lower bound, radians. Measured
  /// net-negative on this substrate (the bound's motion-forcing outweighs
  /// the phantom dwell smear it causes), so it defaults off; the ablation
  /// bench sweeps it.
  double phase_noise_margin_rad = 0.0;
  /// Minimum per-window phase change treated as genuine motion by the
  /// translational direction decode (Table 4), radians. Keeps noise on a
  /// stationary pen from decoding as phantom up/down motion.
  double min_phase_delta_rad = 0.04;
  /// Carrier wavelength, meters.
  double wavelength_m = em::kDefaultWavelength;

  // ----- Tag-offset compensation -----
  /// Distance from pen tip to tag center along the barrel, meters (how
  /// the tag is taped). When polarization tracking is on, the estimated
  /// pen orientation projects the tracked tag position back to the pen
  /// tip, undoing the azimuth-correlated swing of the barrel-mounted tag.
  /// 0 disables compensation.
  double tag_offset_m = 0.03;

  /// Smooth the per-window direction estimates with a [0.25, 0.5, 0.25]
  /// kernel before the HMM: Table 4's axis-quantized decodes alternate
  /// (right, up, right, ...) along diagonal strokes, and the smoothed
  /// vector recovers the diagonal. Off reproduces the paper literally.
  bool smooth_directions = true;

  // ----- HMM tracking (section 3.5) -----
  /// Whiteboard grid block edge, meters. Must stay below the typical
  /// per-window displacement (~0.5 cm at writing speed) or quantization
  /// lets the chain satisfy the annulus lower bound without moving.
  double block_m = 0.004;
  /// Exponent applied to the Eq. 11 hyperbola term. The paper's literal
  /// linear form spans only [0.75, 1] and anchors the track weakly; a
  /// higher sharpness (term^power) keeps the decoded path on the measured
  /// hyperbola family. 1.0 reproduces the paper exactly.
  double hyperbola_sharpness = 6.0;
  /// Penalty weight on step length for windows with no phase observation
  /// (prevents arbitrary drift on observation-free windows; zero restores
  /// the paper's strictly-uniform transition).
  double unobserved_step_penalty = 0.2;
  /// Board extent covered by the state grid, meters.
  double board_width_m = 1.0;
  double board_height_m = 0.6;
  /// Leading windows dropped from the returned trajectory while the
  /// track anchors onto the hyperbola field (the decode still runs over
  /// them). 0 returns everything.
  int warmup_windows = 8;
  /// Beam width: max live states kept per Viterbi step (pure-paper Viterbi
  /// over the full grid is O(states^2)). It trades decode cost, linear in
  /// the width, for accuracy: fig13 letter accuracy (A-Z x 10 reps, seed
  /// 777) reads 0.835 / 0.873 / 0.892 / 0.885 at beam 300 / 600 / 1200 /
  /// 2400. eval::run_trial gives the two baselines' beams the same width.
  std::size_t beam_width = 600;

  /// Apply the final Eq. 10 trajectory rotation by the initial-azimuth
  /// correction.
  bool apply_rotation_correction = true;

  // ----- Ablations -----
  /// Disables polarization-based rotational estimation entirely (Table 6's
  /// "w/o polarization" variant): no pen-orientation model, so no
  /// rotational direction estimation and no Eq. 10 correction.
  bool use_polarization = true;
  /// With polarization off, still allow the phase-trend translational
  /// direction decode (section 3.3.2). The paper's ablation removes the
  /// orientation model wholesale -- its 23% accuracy implies no direction
  /// constraint survived -- so the strict Table 6 reproduction sets this
  /// false; the charitable variant keeps it true.
  bool use_phase_direction = true;
  /// Disables the inter-antenna hyperbola term in the emission (ablation).
  bool use_hyperbola_constraint = true;
  /// Greedy per-step argmax instead of Viterbi (ablation).
  bool use_viterbi = true;
};

}  // namespace polardraw::core
