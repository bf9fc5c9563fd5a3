#pragma once
// Point-to-point links with bandwidth, propagation delay, and a drop-tail
// queue — the ns-3 point-to-point substitute.
//
// A `Link` is one direction of a channel.  Transmission of a frame of S
// bytes occupies the transmitter for S*8/bandwidth seconds ("busy-until"
// model); frames arriving while the transmitter is busy wait in a FIFO.
// After serialization the frame propagates for `propagation_delay` and is
// handed to the receiver callback.  `max_queue` bounds every frame sent
// and not yet arrived, the propagating ones included; a frame over the
// bound is dropped.
//
// An optional seeded `LinkFaultParams` model makes the wire lossy: i.i.d.
// frame loss, Gilbert–Elliott two-state burst loss, and per-frame bit
// corruption.  Loss is silent — the transmitter still spends the airtime
// and the sender gets no failure signal, matching wireless semantics.
// Corrupted frames still arrive; the receiver learns the fate and a
// deterministic corruption seed so upper layers can flip real wire bytes.
//
// The layer is payload-agnostic: a frame is a byte count plus a
// refcounted opaque cookie (the shared packet) and a kind tag the receiver
// uses to reconstruct the payload type — no per-frame closure, no
// allocation — so `net` has no dependency on the NDN packet types.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "event/scheduler.hpp"
#include "event/time.hpp"
#include "util/rng.hpp"

namespace tactic::net {

/// Link configuration.
struct LinkParams {
  double bits_per_second = 500e6;                     // paper core: 500 Mbps
  event::Time propagation_delay = event::kMillisecond;  // paper core: 1 ms
  // Frames sent and not yet arrived: queued, in service or propagating.
  std::size_t max_queue = 100;
};

/// Paper presets (Section 8.A).
LinkParams core_link_params();  // 500 Mbps, 1 ms
LinkParams edge_link_params();  // 10 Mbps, 2 ms

/// Stochastic fault model for one link direction.  All probabilities are
/// per-frame; the Gilbert–Elliott chain advances once per transmitted
/// frame (good --p_enter_burst--> bad, bad --p_exit_burst--> good) and
/// frames sent in the bad state are lost with probability `burst_loss`.
struct LinkFaultParams {
  double loss = 0.0;           // i.i.d. frame loss probability
  double corruption = 0.0;     // per-frame bit-corruption probability
  double p_enter_burst = 0.0;  // GE chain: good -> bad
  double p_exit_burst = 0.0;   // GE chain: bad -> good
  double burst_loss = 1.0;     // loss probability while in the bad state

  bool any() const {
    return loss > 0.0 || corruption > 0.0 || p_enter_burst > 0.0;
  }
};

/// Traffic counters for one link direction.  `dropped_queue_full` and
/// `refused_link_down` are refusals visible to the sender (send() returned
/// false); `frames_lost` and `frames_corrupted` are fault-model fates of
/// frames the sender believes it transmitted.
struct LinkCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t refused_link_down = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_corrupted = 0;

  /// Combined refusal count (the pre-split `frames_dropped` semantics).
  std::uint64_t frames_dropped() const {
    return dropped_queue_full + refused_link_down;
  }
};

/// Fate of one delivered frame, as decided by the fault model.
struct FrameFate {
  bool corrupted = false;
  std::uint64_t corruption_seed = 0;  // deterministic per-frame flip seed
};

/// The payload of one in-flight frame: a shared opaque cookie (the
/// packet) plus a kind tag the receiver uses to restore the type.
struct Frame {
  std::shared_ptr<const void> payload;
  std::uint32_t kind = 0;
};

/// One direction of a point-to-point channel.
class Link {
 public:
  /// Receiver installed once at wiring time; runs for every arriving
  /// Frame (including corrupted ones — the fate says so).
  using ReceiveFn = std::function<void(const FrameFate&, Frame&&)>;

  Link(event::Scheduler& scheduler, LinkParams params);

  const LinkParams& params() const { return params_; }
  const LinkCounters& counters() const { return counters_; }

  /// Installs (or replaces) the frame receiver.  One per link direction,
  /// registered at wiring time — frames then carry only the refcounted
  /// payload, never a closure.
  void set_receiver(ReceiveFn receiver) { receiver_ = std::move(receiver); }

  /// Enqueues a frame of `size_bytes` carrying `frame`; arrival runs the
  /// installed receiver.  Returns false (and drops) when the link is down
  /// or the queue is full — the sender may fail over to another face.  A
  /// frame the fault model loses still returns true: wireless loss is
  /// silent at the sender.
  bool send(std::size_t size_bytes, Frame frame);

  /// Installs (or replaces) the fault model.  `rng` should be a dedicated
  /// fork so fault draws never perturb other subsystems' streams.
  void set_fault_model(const LinkFaultParams& faults, util::Rng rng);
  const LinkFaultParams& fault_params() const { return faults_; }

  /// Administrative / failure state.  A down link refuses frames; frames
  /// already in flight still arrive (they are on the wire).
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Frames sent and not yet arrived: those waiting for the transmitter,
  /// the one in service and those still propagating.
  std::size_t queue_depth() const { return in_flight_; }

  /// Gilbert–Elliott chain state (true while in the bursty/bad state).
  bool in_burst() const { return in_burst_; }

 private:
  event::Time serialization_delay(std::size_t size_bytes) const;

  /// Advances the GE chain and draws this frame's fate.  Returns false if
  /// the frame is lost on the wire.
  bool draw_fate(FrameFate& fate);

  /// send()'s admission: queue/up checks, airtime accounting, fate draw.
  /// Returns false when refused; otherwise fills the arrival time.
  bool admit(std::size_t size_bytes, event::Time& arrival, FrameFate& fate,
             bool& arrives);

  ReceiveFn receiver_;
  event::Scheduler& scheduler_;
  LinkParams params_;
  LinkCounters counters_;
  LinkFaultParams faults_;
  util::Rng fault_rng_{0};
  event::Time busy_until_ = 0;
  std::size_t in_flight_ = 0;
  bool up_ = true;
  bool in_burst_ = false;
};

}  // namespace tactic::net
