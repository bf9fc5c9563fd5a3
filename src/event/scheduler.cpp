#include "event/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace tactic::event {

EventId Scheduler::schedule(Time delay, Handler handler) {
  if (delay < 0) throw std::invalid_argument("Scheduler: negative delay");
  return schedule_at(now_ + delay, std::move(handler));
}

EventId Scheduler::schedule_at(Time when, Handler handler) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: scheduling in the past");
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t rec = recs_.acquire();
  Rec& slot = recs_[rec];
  slot.handler = std::move(handler);
  slot.seq = seq;
  queue_.push(Entry{when, seq, rec});
  ++pending_;
  return EventId{seq, rec};
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid() || id.rec_ >= recs_.size()) return false;
  Rec& rec = recs_[id.rec_];
  if (rec.seq != id.seq_) return false;  // already ran, cancelled, or reused
  // Lazy cancellation: free the record now; the heap entry is skipped at
  // dispatch time by its stale seq.
  rec.seq = 0;
  rec.handler = nullptr;
  recs_.release(id.rec_);
  --pending_;
  ++cancelled_;
  return true;
}

void Scheduler::dispatch(const Entry& entry) {
  now_ = entry.when;
  Rec& rec = recs_[entry.rec];
  if (rec.seq != entry.seq) return;  // was cancelled
  Handler handler = std::move(rec.handler);
  rec.seq = 0;
  rec.handler = nullptr;
  recs_.release(entry.rec);
  --pending_;
  ++executed_;
  handler();
}

Time Scheduler::run() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    dispatch(entry);
  }
  return now_;
}

Time Scheduler::run_until(Time until) {
  if (until < now_) {
    throw std::invalid_argument("Scheduler: running until the past");
  }
  while (!queue_.empty() && queue_.top().when <= until) {
    const Entry entry = queue_.top();
    queue_.pop();
    dispatch(entry);
  }
  now_ = until;
  return now_;
}

void Wakeup::arm(Time when) {
  if (at_) {
    if (*at_ <= when) return;
    scheduler_.cancel(event_);
  }
  at_ = when;
  event_ = scheduler_.schedule_at(when, [this] {
    at_.reset();
    fire_();
  });
}

void Wakeup::disarm() {
  if (at_) scheduler_.cancel(event_);
  at_.reset();
}

}  // namespace tactic::event
