#include "net/link.hpp"

#include <algorithm>
#include <utility>

namespace tactic::net {

LinkParams core_link_params() {
  return LinkParams{500e6, event::kMillisecond, 100};
}

LinkParams edge_link_params() {
  return LinkParams{10e6, 2 * event::kMillisecond, 100};
}

Link::Link(event::Scheduler& scheduler, LinkParams params)
    : scheduler_(scheduler), params_(params) {}

event::Time Link::serialization_delay(std::size_t size_bytes) const {
  const double seconds =
      static_cast<double>(size_bytes) * 8.0 / params_.bits_per_second;
  return std::max<event::Time>(1, event::from_seconds(seconds));
}

void Link::set_fault_model(const LinkFaultParams& faults, util::Rng rng) {
  faults_ = faults;
  fault_rng_ = rng;
  in_burst_ = false;
}

bool Link::draw_fate(FrameFate& fate) {
  if (!faults_.any()) return true;
  // One GE step per transmitted frame, then the loss and corruption draws.
  // Fixed draw order keeps the stream identical across runs.
  if (in_burst_) {
    if (fault_rng_.bernoulli(faults_.p_exit_burst)) in_burst_ = false;
  } else if (faults_.p_enter_burst > 0.0) {
    if (fault_rng_.bernoulli(faults_.p_enter_burst)) in_burst_ = true;
  }
  bool lost = false;
  if (faults_.loss > 0.0 && fault_rng_.bernoulli(faults_.loss)) lost = true;
  if (in_burst_ && fault_rng_.bernoulli(faults_.burst_loss)) lost = true;
  if (lost) return false;
  if (faults_.corruption > 0.0 && fault_rng_.bernoulli(faults_.corruption)) {
    fate.corrupted = true;
    fate.corruption_seed = fault_rng_();
  }
  return true;
}

bool Link::admit(std::size_t size_bytes, event::Time& arrival,
                 FrameFate& fate, bool& arrives) {
  if (!up_) {
    ++counters_.refused_link_down;
    return false;
  }
  if (in_flight_ >= params_.max_queue) {
    ++counters_.dropped_queue_full;
    return false;
  }
  const event::Time now = scheduler_.now();
  const event::Time start = std::max(busy_until_, now);
  const event::Time tx_done = start + serialization_delay(size_bytes);
  busy_until_ = tx_done;
  ++in_flight_;
  ++counters_.frames_sent;
  counters_.bytes_sent += size_bytes;

  arrives = draw_fate(fate);
  if (!arrives) {
    ++counters_.frames_lost;
  } else if (fate.corrupted) {
    ++counters_.frames_corrupted;
  }
  arrival = tx_done + params_.propagation_delay;
  return true;
}

bool Link::send(std::size_t size_bytes, Frame frame) {
  event::Time arrival = 0;
  FrameFate fate;
  bool arrives = false;
  if (!admit(size_bytes, arrival, fate, arrives)) return false;
  scheduler_.schedule_at(
      arrival, [this, arrives, fate, f = std::move(frame)]() mutable {
        --in_flight_;
        if (arrives && receiver_) receiver_(fate, std::move(f));
      });
  return true;
}

}  // namespace tactic::net
