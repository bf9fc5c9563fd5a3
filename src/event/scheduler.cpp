#include "event/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace tactic::event {

void Scheduler::schedule(Time delay, Handler handler) {
  if (delay < 0) throw std::invalid_argument("Scheduler: negative delay");
  schedule_at(now_ + delay, std::move(handler));
}

void Scheduler::schedule_at(Time when, Handler handler) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: scheduling in the past");
  }
  const std::uint32_t slot = handlers_.acquire();
  handlers_[slot] = std::move(handler);
  queue_.push(Entry{when, next_seq_++, slot});
}

void Scheduler::dispatch(const Entry& entry) {
  now_ = entry.when;
  Handler handler = std::move(handlers_[entry.slot]);
  handlers_.release(entry.slot);
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
  if (at_ && *at_ <= when) return;
  at_ = when;
  scheduler_.schedule_at(when, [this, generation = ++generation_] {
    if (generation != generation_) return;  // moved earlier or disarmed
    at_.reset();
    fire_();
  });
}

void Wakeup::disarm() {
  ++generation_;
  at_.reset();
}

}  // namespace tactic::event
