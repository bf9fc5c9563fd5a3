#pragma once
// Adaptive overload control for TACTIC routers (docs/OVERLOAD.md,
// "Adaptive control & face quarantine").
//
// PR 3's overload layer sheds load against *static* thresholds
// (`queue_capacity`, `shed_watermark`) that have to be hand-tuned to one
// attack intensity.  This header replaces them with two measured-signal
// controllers in the style of Envoy's adaptive-concurrency filter and
// outlier-detection monitors:
//
//  - GradientController: windows the sojourn time of validation-queue
//    jobs, periodically re-measures a minRTT baseline, and each window
//    derives a concurrency limit (the effective queue capacity) and shed
//    watermark from gradient = minRTT * (1 + headroom) / sampled_p50.
//  - FaceOutlierDetector: consecutive invalid-tag verdicts from one
//    downstream face eject (quarantine) that face for exponentially
//    increasing, deterministically jittered intervals with re-admission
//    probes — one compromised AP cannot drag the whole edge below the
//    shed line.
//
// Determinism contract: no wall clock; state advances only from the
// simulated timestamps callers pass in, and all RNG draws (probe-cadence
// jitter, ejection-interval jitter) come from one dedicated stream the
// ValidationEngine forks only when the layer is enabled — with
// `enabled == false` nothing here is ever constructed and the router is
// bit-identical to the static overload layer (ci/parity.sh).

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "event/time.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tactic::core {

/// Knobs for the adaptive overload-control layer.  Only meaningful on
/// top of an enabled OverloadConfig (the controllers read and replace
/// its admission thresholds); with `enabled` false the static
/// `queue_capacity` / `shed_watermark` constants stay in force.
struct AdaptiveConfig {
  bool enabled = false;

  // --- gradient admission controller ---
  /// Sample-window length; the limit updates once per closed window.
  event::Time sample_window = 200 * event::kMillisecond;
  /// Windows with fewer sojourn samples than this carry no signal and
  /// close without updating the gradient.
  std::size_t min_window_samples = 8;
  /// Re-measure the minRTT baseline every `probe_interval_windows` +
  /// uniform(0, probe_jitter_windows] informative windows.
  std::uint32_t probe_interval_windows = 12;
  std::uint32_t probe_jitter_windows = 4;
  /// Acceptable latency headroom over the baseline before the gradient
  /// starts shrinking the limit.
  double headroom = 0.1;
  /// Per-window gradient clamp (Envoy clamps to [0.5, 2.0] so one noisy
  /// window cannot halve or double the limit more than once).
  double gradient_min = 0.5;
  double gradient_max = 2.0;
  /// Concurrency-limit clamp.  The limit starts at the static
  /// queue_capacity fallback and walks within [min_limit, max_limit].
  std::size_t min_limit = 4;
  std::size_t max_limit = 256;
  /// Effective shed watermark as a fraction of the current limit.
  double watermark_fraction = 0.5;

  // --- per-face outlier quarantine ---
  /// Consecutive invalid-tag verdicts that eject a face; 0 disables the
  /// quarantine half while keeping the gradient controller.
  std::size_t quarantine_consecutive = 5;
  /// First ejection interval; each re-ejection multiplies the interval
  /// by `quarantine_factor` up to `quarantine_max`.
  event::Time quarantine_base = 2 * event::kSecond;
  double quarantine_factor = 2.0;
  event::Time quarantine_max = 60 * event::kSecond;
  /// Deterministic jitter on each ejection interval (+/- fraction), so
  /// quarantined faces do not re-probe in lockstep.
  double quarantine_jitter = 0.25;
};

/// Windowed gradient concurrency controller over validation-queue
/// sojourn times (wait + service, the delay ValidationQueue::admit
/// returns).  Sojourn rather than pure wait because the uncongested
/// baseline of pure wait is identically zero.
///
/// Probe windows tighten only the *unvouched* shed watermark down to
/// `min_limit` (so the queue drains toward the baseline) while the hard
/// capacity stays at the current limit — vouched legitimate traffic is
/// never probe-shed.  This deviates from Envoy, which drops the whole
/// limit to the minimum during probes; a forwarding plane cannot afford
/// to NACK known-good traffic every probe period.
class GradientController {
 public:
  /// `rng` must outlive the controller (the engine owns both).
  GradientController(const AdaptiveConfig& config, std::size_t initial_limit,
                     util::Rng* rng);

  /// Feeds one sojourn sample at `now`; lazily closes elapsed windows.
  void record(event::Time now, event::Time sojourn);

  /// Effective hard admission limit (replaces static queue_capacity).
  std::size_t concurrency_limit() const { return limit_; }
  /// Effective unvouched shed watermark (replaces static
  /// shed_watermark); min_limit during a minRTT probe window.
  std::size_t shed_watermark() const;

  double gradient() const { return gradient_; }
  double min_rtt_s() const { return min_rtt_s_; }
  bool probing() const { return probing_; }
  /// Lifetime counters: survive reset() so harvested totals stay
  /// cumulative across crash-restarts.
  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t minrtt_probes() const { return minrtt_probes_; }

  /// Crash recovery: back to the initial limit with no baseline; the
  /// lifetime counters above are preserved.
  void reset();

 private:
  void close_window();
  void schedule_next_probe();

  AdaptiveConfig config_;
  std::size_t initial_limit_;
  util::Rng* rng_;

  std::size_t limit_;
  double gradient_ = 1.0;
  double min_rtt_s_ = 0.0;
  bool have_min_rtt_ = false;
  bool probing_ = false;
  std::uint32_t windows_until_probe_ = 0;
  event::Time window_start_ = -1;  // -1: no window open yet
  util::QuantileHistogram window_;  // sojourn seconds, current window

  std::uint64_t windows_closed_ = 0;
  std::uint64_t minrtt_probes_ = 0;
};

/// Per-face outlier ejection, in the style of Envoy's consecutive-error
/// outlier monitors.  A face's state machine:
///
///   healthy --(N consecutive bad verdicts)--> quarantined(until)
///   quarantined --(now >= until)--> probation (traffic admitted again)
///   probation --(good verdict)--> healthy (ejection count decays by 1)
///   probation --(bad verdict)--> quarantined (interval *= factor)
///
/// Verdicts arrive from the owning policy's observation points: edge
/// Interest verdicts (no-tag, validation reject/vouch) and per-PIT-record
/// data-path verdicts — including verdicts whose *delivery* was deferred
/// by the batching layer, since the crypto outcome is known at
/// verification time.
class FaceOutlierDetector {
 public:
  /// `rng` must outlive the detector (the engine owns both).
  FaceOutlierDetector(const AdaptiveConfig& config, util::Rng* rng);

  /// Whether traffic from `face` is admitted at `now`.  A quarantined
  /// face whose interval elapsed enters probation and is admitted (the
  /// re-admission probe).
  bool admits(std::uint64_t face, event::Time now);

  void on_bad_verdict(std::uint64_t face, event::Time now);
  void on_good_verdict(std::uint64_t face, event::Time now);

  /// Lifetime counters (survive reset()).
  std::uint64_t ejections() const { return ejections_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t readmissions() const { return readmissions_; }
  /// Faces currently inside an ejection interval at `now` (gauge).
  std::size_t quarantined_faces(event::Time now) const;

  /// Crash recovery: all per-face memory dies with the router; the
  /// lifetime counters are preserved.
  void reset();

 private:
  struct FaceState {
    std::uint32_t consecutive_bad = 0;
    std::uint32_t ejection_count = 0;
    event::Time until = 0;  // 0: healthy; otherwise ejection boundary
    bool probing = false;   // probation probe admitted, verdict pending
  };

  void eject(FaceState& state, event::Time now);

  AdaptiveConfig config_;
  util::Rng* rng_;
  std::unordered_map<std::uint64_t, FaceState> faces_;

  std::uint64_t ejections_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace tactic::core
