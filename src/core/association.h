// Tag-to-track association: EPC-keyed report streams to per-pen sessions.
//
// The multi-pen pipeline (paper section 7, "Extending to multi-user case")
// demultiplexes one MAC-arbitrated report stream into per-pen tracks.
// The associator itself is routing and lifecycle only: each EPC's track
// runs the same three pieces as the batch pipeline -- a two-port
// rfid::WindowClock, a PhaseGate (core/preprocess.h) and a MotionFrontEnd
// (core/motion_front_end.h) -- fed window by window as the pen's reports
// arrive. It emits `PenEvent`s
// -- open / observation / close -- that map one-to-one onto the
// server::SessionServer API, so a reader frontend can drive many
// concurrent decoders from a single interleaved stream. The close event
// carries the track's Eq. 10 angle, set once at its first sector crossing.
//
// Pen lifecycle: a session opens at an EPC's first report and closes when
// its reports stop for `idle_close_s` of stream time (the pen left the
// interrogation zone, or its tag is starved). A returning EPC opens a
// *new* session: ids are `epc | generation << 32`, so a pen that leaves
// and comes back draws a fresh trajectory instead of teleporting the old
// one.
//
// Determinism contract (pinned by tests/core/test_association.cc): the
// event stream is a pure function of the report stream -- reports are
// processed in order, idle closes scan tracks in EPC order, and nothing
// here consults a clock or RNG.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/motion.h"
#include "core/motion_front_end.h"
#include "core/preprocess.h"
#include "rfid/tag_report.h"
#include "rfid/window_clock.h"

namespace polardraw::core {

struct AssociatorConfig {
  /// Stream-time report gap that closes a pen's session. Within a shorter
  /// gap the track emits empty (phaseless) windows, exactly as the batch
  /// pipeline does for dropped reads.
  double idle_close_s = 1.0;
};

enum class PenEventType { kOpen, kObservation, kClose };

/// One associator output event. Apply in order (SessionServer::ingest):
///   kOpen         -> SessionServer::open(session_id)
///   kObservation  -> SessionServer::submit(session_id, obs)
///   kClose        -> SessionServer::close(session_id), then Eq. 10 by
///                    azimuth_correction_rad on the trajectory it returns
struct PenEvent {
  PenEventType type = PenEventType::kObservation;
  std::uint64_t session_id = 0;
  std::uint32_t epc = 0;
  double t_s = 0.0;  // window center (observation) or report time
  TrackObservation obs;  // kObservation only
  /// kClose only: the track's Eq. 10 initial-azimuth correction
  /// (MotionFrontEnd::azimuth_correction_rad), radians.
  double azimuth_correction_rad = 0.0;
  /// Causal flow id (kObservation only): the serial of a flow-sampled
  /// report that fed this observation's window, 0 when none was sampled.
  /// Observational only -- carried so SessionServer can link the
  /// decoder-commit flow event; never read by tracking math.
  std::uint64_t flow_id = 0;
};

class TagTrackAssociator {
 public:
  /// `calibration` is copied; pass the reader's known offsets to enable
  /// calibrated-hop phase continuation (see PhaseCalibration).
  explicit TagTrackAssociator(const PolarDrawConfig& cfg,
                              AssociatorConfig acfg = {},
                              const PhaseCalibration* calibration = nullptr);
  ~TagTrackAssociator();

  TagTrackAssociator(const TagTrackAssociator&) = delete;
  TagTrackAssociator& operator=(const TagTrackAssociator&) = delete;
  TagTrackAssociator(TagTrackAssociator&&) = default;
  TagTrackAssociator& operator=(TagTrackAssociator&&) = default;

  /// Routes one report; reports must arrive in non-decreasing timestamp
  /// order (the reader's native order). A report that fails
  /// rfid::admit_report() is dropped first; its track's window clock drops
  /// and counts late and far reads (rfid/window_clock.h). Returns the
  /// events it triggered: idle closes of stale tracks first (EPC order),
  /// then this report's own open/observations.
  std::vector<PenEvent> push(const rfid::TagReport& report);

  /// Convenience: pushes a whole (time-ordered) stream.
  std::vector<PenEvent> push(const rfid::TagReportStream& reports);

  /// Finalizes every open track: flushes partial windows through the
  /// pipelines and emits the trailing observation + close events. The
  /// associator is reusable afterwards (a returning EPC starts a new
  /// generation).
  std::vector<PenEvent> flush();

  /// Session id for an EPC's n-th appearance (generation starts at 0).
  static std::uint64_t make_session_id(std::uint32_t epc,
                                       std::uint32_t generation) {
    return static_cast<std::uint64_t>(epc) |
           (static_cast<std::uint64_t>(generation) << 32);
  }

  [[nodiscard]] std::size_t open_tracks() const { return tracks_.size(); }

 private:
  struct Track;

  Track& open_track(std::uint32_t epc, double t_s, std::vector<PenEvent>& out);
  void route(const rfid::TagReport& r, std::vector<PenEvent>& out);
  /// Closes every track whose last report is older than idle_close_s at
  /// stream time `t_s`; scans in EPC order for determinism.
  void close_stale(double t_s, std::vector<PenEvent>& out);
  /// Finalizes a window the track's clock finished: gate it, push it
  /// through the front end and emit what that releases.
  void finalize_window(Track& track, const rfid::ClockWindow& finished,
                       std::vector<PenEvent>& out);
  /// Emits a released observation; it carries the held window's flow id.
  static void emit_observation(const Track& track,
                               const TimedObservation& released,
                               std::vector<PenEvent>& out);
  void close_track(Track& track, std::vector<PenEvent>& out);

  PolarDrawConfig cfg_;
  AssociatorConfig acfg_;
  PhaseCalibration calibration_;
  /// Ordered by EPC so stale-track closes emit in a stream-derived order.
  std::map<std::uint32_t, std::unique_ptr<Track>> tracks_;
  /// Next generation per EPC (survives closes within this associator).
  std::map<std::uint32_t, std::uint32_t> generations_;
};

}  // namespace polardraw::core
