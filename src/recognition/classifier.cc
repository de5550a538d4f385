#include "recognition/classifier.h"

#include <algorithm>
#include <cmath>

#include "handwriting/synthesizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recognition/dtw.h"
#include "recognition/procrustes.h"

namespace polardraw::recognition {

namespace {

/// Centers a shape and scales it to unit centroid size.
std::vector<Vec2> normalize_shape(std::vector<Vec2> pts) {
  Vec2 c;
  for (const Vec2& p : pts) c += p;
  if (!pts.empty()) c = c / static_cast<double>(pts.size());
  double size = 0.0;
  for (Vec2& p : pts) {
    p -= c;
    size += p.norm_sq();
  }
  size = std::sqrt(size);
  if (size > 0.0) {
    for (Vec2& p : pts) p = p / size;
  }
  return pts;
}

/// Shape dissimilarity of a normalized probe against a normalized
/// reference of the same length. Procrustes aligns the probe, then the
/// recovered similarity transform is applied and DTW absorbs the
/// along-curve time distortion that fixed-index residuals over-penalize.
/// The score blends both views: `wp` weighs the Procrustes residual and
/// `wd` ten times the DTW distance.
double shape_score(const std::vector<Vec2>& reference,
                   const std::vector<Vec2>& probe, double wp, double wd) {
  // Allow moderate residual rotation from tracking error, but not the
  // right-angle turns that would alias one letter into another (Z/N).
  constexpr double kMaxRotation = 0.7;  // ~40 degrees
  const ProcrustesResult r = procrustes(reference, probe, kMaxRotation);
  const double c = std::cos(r.rotation_rad), s = std::sin(r.rotation_rad);
  std::vector<Vec2> aligned;
  aligned.reserve(probe.size());
  for (const Vec2& p : probe) {
    aligned.push_back(Vec2{c * p.x - s * p.y, s * p.x + c * p.y} * r.scale);
  }
  return wp * r.normalized + wd * dtw_distance(reference, aligned) * 10.0;
}

}  // namespace

LetterClassifier::LetterClassifier(std::size_t points) : points_(points) {
  for (char c : handwriting::alphabet()) {
    const auto& glyph = handwriting::glyph_for(c);
    const auto poly = handwriting::flatten_strokes(glyph.strokes);
    templates_.push_back(
        {c, normalize_shape(resample_by_arclength(poly, points_))});
  }
}

Classification LetterClassifier::classify(
    const std::vector<Vec2>& trajectory) const {
  static const obs::SpanSite span_site("recognition.classify");
  const obs::ScopedSpan span(span_site);
  static const obs::Counter calls_counter("classifier.calls");
  calls_counter.add();
  Classification out;
  if (trajectory.size() < 2) return out;
  const auto probe = normalize_shape(resample_by_arclength(trajectory, points_));

  double best = 1e9, second = 1e9;
  char best_c = '?', second_c = '?';
  for (const Template& t : templates_) {
    const double score = shape_score(t.shape, probe, 0.7, 0.3);
    if (score < best) {
      second = best;
      second_c = best_c;
      best = score;
      best_c = t.letter;
    } else if (score < second) {
      second = score;
      second_c = t.letter;
    }
  }
  out.letter = best_c;
  out.score = best;
  out.second = second_c;
  out.second_score = second;
  return out;
}

std::vector<Classification> LetterClassifier::classify_word_detailed(
    const std::vector<Vec2>& trajectory, std::size_t letters) const {
  std::vector<Classification> out;
  if (trajectory.empty() || letters == 0) return out;
  if (letters == 1) return {classify(trajectory)};

  // Segment by 1-D k-means on x: letters vary in width (M is wider than
  // I), so equal-width cells misassign points near boundaries; clustering
  // finds the natural per-letter x bands. Cluster on an arclength-uniform
  // resampling so that dwell points and dense curves do not skew centers.
  const auto uniform = resample_by_arclength(trajectory, 96 * letters);
  double xmin = trajectory.front().x, xmax = xmin;
  for (const Vec2& p : trajectory) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
  }
  const double span = std::max(xmax - xmin, 1e-9);
  std::vector<double> centers(letters);
  for (std::size_t k = 0; k < letters; ++k) {
    centers[k] = xmin + span * (static_cast<double>(k) + 0.5) /
                            static_cast<double>(letters);
  }
  std::vector<std::size_t> assign(uniform.size(), 0);
  for (int iter = 0; iter < 12; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < uniform.size(); ++i) {
      std::size_t best = 0;
      double best_d = 1e18;
      for (std::size_t k = 0; k < letters; ++k) {
        const double d = std::fabs(uniform[i].x - centers[k]);
        if (d < best_d) {
          best_d = d;
          best = k;
        }
      }
      if (assign[i] != best) {
        assign[i] = best;
        changed = true;
      }
    }
    for (std::size_t k = 0; k < letters; ++k) {
      double sum = 0.0;
      int n = 0;
      for (std::size_t i = 0; i < uniform.size(); ++i) {
        if (assign[i] == k) {
          sum += uniform[i].x;
          ++n;
        }
      }
      if (n > 0) centers[k] = sum / n;
    }
    if (!changed) break;
  }

  // Cut the original trajectory at the midpoints between sorted centers.
  std::sort(centers.begin(), centers.end());
  for (std::size_t k = 0; k < letters; ++k) {
    const double lo = k == 0 ? -1e18 : (centers[k - 1] + centers[k]) / 2.0;
    const double hi =
        k + 1 == letters ? 1e18 : (centers[k] + centers[k + 1]) / 2.0;
    std::vector<Vec2> segment;
    for (const Vec2& p : trajectory) {
      if (p.x >= lo && p.x < hi) segment.push_back(p);
    }
    out.push_back(classify(segment));
  }
  return out;
}

double LetterClassifier::word_score(const std::vector<Vec2>& trajectory,
                                    const std::string& text) const {
  if (trajectory.size() < 2) return 1e9;
  // Render the candidate word from the font, bridges included, exactly as
  // a recovered trajectory would trace it.
  std::vector<Vec2> tmpl;
  Vec2 cursor{0.0, 0.0};
  for (char c : text) {
    if (!handwriting::has_glyph(c)) continue;
    const auto& g = handwriting::glyph_for(c);
    for (const auto& stroke : handwriting::place_glyph(g, cursor, 1.0)) {
      tmpl.insert(tmpl.end(), stroke.begin(), stroke.end());
    }
    cursor.x += g.advance;
  }
  if (tmpl.size() < 2) return 1e9;

  const std::size_t n = points_ * std::max<std::size_t>(text.size(), 1);
  const auto a = normalize_shape(resample_by_arclength(tmpl, n));
  const auto b = normalize_shape(resample_by_arclength(trajectory, n));
  return shape_score(a, b, 0.5, 0.5);
}

std::string LetterClassifier::classify_word_lexicon(
    const std::vector<Vec2>& trajectory,
    const std::vector<std::string>& lexicon) const {
  std::string best;
  double best_score = 1e18;
  for (const std::string& w : lexicon) {
    const double s = word_score(trajectory, w);
    if (s < best_score) {
      best_score = s;
      best = w;
    }
  }
  return best;
}

std::size_t ConfusionMatrix::idx(char c) {
  return static_cast<std::size_t>(std::toupper(static_cast<unsigned char>(c)) - 'A');
}

void ConfusionMatrix::record(char truth, char predicted) {
  const std::size_t r = idx(truth);
  const std::size_t c = idx(predicted);
  if (r >= 26 || c >= 26) return;
  ++cells_[r][c];
  ++total_;
}

int ConfusionMatrix::count(char truth, char predicted) const {
  const std::size_t r = idx(truth), c = idx(predicted);
  if (r >= 26 || c >= 26) return 0;
  return cells_[r][c];
}

double ConfusionMatrix::rate(char truth, char predicted) const {
  const std::size_t r = idx(truth);
  if (r >= 26) return 0.0;
  int row_total = 0;
  for (int v : cells_[r]) row_total += v;
  if (row_total == 0) return 0.0;
  return static_cast<double>(count(truth, predicted)) / row_total;
}

std::optional<char> ConfusionMatrix::top_confusion(char truth) const {
  const std::size_t r = idx(truth);
  if (r >= 26) return std::nullopt;
  int best = 0;
  std::size_t best_c = 26;
  for (std::size_t c = 0; c < 26; ++c) {
    if (c == r) continue;
    if (cells_[r][c] > best) {
      best = cells_[r][c];
      best_c = c;
    }
  }
  if (best_c == 26) return std::nullopt;
  return static_cast<char>('A' + best_c);
}

}  // namespace polardraw::recognition
