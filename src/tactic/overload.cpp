#include "tactic/overload.hpp"

#include <algorithm>

namespace tactic::core {

void ValidationQueue::prune(event::Time now) {
  while (head_ < completions_.size() && completions_[head_] <= now) ++head_;
  // Compact once the dead prefix is at least half the vector: each kept
  // entry moves at most once per pop, and the capacity stays.
  if (head_ > 0 && head_ * 2 >= completions_.size()) {
    completions_.erase(completions_.begin(),
                       completions_.begin() +
                           static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

event::Time ValidationQueue::admit(event::Time now, event::Time service) {
  prune(now);  // so depth reflects live backlog
  const event::Time start = std::max(now, busy_until_);
  const event::Time done = start + service;
  busy_until_ = done;
  completions_.push_back(done);
  total_wait_ += start - now;
  peak_depth_ = std::max(peak_depth_, completions_.size() - head_);
  return done - now;
}

std::size_t ValidationQueue::depth(event::Time now) {
  prune(now);
  return completions_.size() - head_;
}

void ValidationQueue::reset() {
  completions_.clear();
  head_ = 0;
  busy_until_ = 0;
}

void ValidationLanes::configure(std::size_t lanes) {
  lanes_.assign(std::max<std::size_t>(1, lanes), ValidationQueue{});
  steals_ = 0;
}

event::Time ValidationLanes::admit(std::size_t home, event::Time now,
                                   event::Time service) {
  std::size_t lane = home;
  if (lanes_.size() > 1 && lanes_[home].busy_at(now)) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (i != home && !lanes_[i].busy_at(now)) {
        lane = i;
        ++steals_;
        break;
      }
    }
  }
  return lanes_[lane].admit(now, service);
}

std::size_t ValidationLanes::depth(event::Time now) {
  std::size_t total = 0;
  for (ValidationQueue& lane : lanes_) total += lane.depth(now);
  return total;
}

event::Time ValidationLanes::total_wait() const {
  event::Time total = 0;
  for (const ValidationQueue& lane : lanes_) total += lane.total_wait();
  return total;
}

std::size_t ValidationLanes::peak_depth() const {
  std::size_t peak = 0;
  for (const ValidationQueue& lane : lanes_) {
    peak = std::max(peak, lane.peak_depth());
  }
  return peak;
}

void ValidationLanes::reset() {
  for (ValidationQueue& lane : lanes_) lane.reset();
}

bool NegativeTagCache::contains(const util::Bytes& key, event::Time now) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (it->second->expires <= now) {
    order_.erase(it->second);
    index_.erase(it);
    return false;
  }
  return true;
}

void NegativeTagCache::insert(const util::Bytes& key, event::Time now) {
  if (capacity_ == 0) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: newest verdict moves to the back of the eviction order.
    it->second->expires = now + ttl_;
    order_.splice(order_.end(), order_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    ++evictions_;
    index_.erase(order_.front().key);
    order_.pop_front();
  }
  order_.push_back(Entry{key, now + ttl_});
  index_[key] = std::prev(order_.end());
}

void NegativeTagCache::clear() {
  order_.clear();
  index_.clear();
}

bool TokenBucket::try_take(event::Time now) {
  tokens_ = std::min(
      burst_, tokens_ + rate_ * event::to_seconds(now - last_));
  last_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

}  // namespace tactic::core
