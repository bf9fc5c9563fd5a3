#include "workload/user_app.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace tactic::workload {

util::ZipfDist popularity_law(const std::vector<ProviderApp*>& providers,
                              double alpha) {
  std::size_t n = 0;
  for (const ProviderApp* p : providers) n += p->catalog().object_count();
  return util::ZipfDist(n == 0 ? 1 : n, alpha);
}

UserApp::UserApp(ndn::Forwarder& node, std::vector<ProviderApp*> providers,
                 const UserConfig& loop, util::ZipfDist popularity,
                 util::Rng rng)
    : node_(node),
      providers_(std::move(providers)),
      loop_(loop),
      rng_(rng),
      popularity_(std::move(popularity)),
      wakeup_(node.scheduler(), [this] { serve_deadlines(); }) {
  face_ = node_.add_app_face(ndn::AppSink{
      nullptr,
      [this](const ndn::Data& data) { on_data(data); },
      [this](const ndn::Nack& nack) { on_nack(nack); }});
}

void UserApp::start() {
  running_ = true;
  const event::Time jitter =
      loop_.start_jitter > 0
          ? static_cast<event::Time>(
                rng_.uniform(static_cast<std::uint64_t>(loop_.start_jitter)))
          : 0;
  for (std::size_t slot = 0; slot < loop_.window; ++slot) {
    node_.scheduler().schedule(jitter + think_sample(),
                               [this] { fill_slot(); });
  }
}

UserApp::Target UserApp::draw_target() {
  const std::size_t rank = popularity_.sample(rng_);
  return Target{rank % providers_.size(), rank / providers_.size()};
}

event::Time UserApp::think_sample() {
  if (loop_.think_time_mean <= 0) return 0;
  // Exponential via inverse transform.
  const double u = rng_.uniform_double();
  const double mean = static_cast<double>(loop_.think_time_mean);
  return static_cast<event::Time>(-mean * std::log1p(-u));
}

void UserApp::schedule_slot_fill() {
  if (!running_) return;
  node_.scheduler().schedule(think_sample(), [this] { fill_slot(); });
}

void UserApp::fill_slot() {
  if (!running_ || in_flight_ >= loop_.window) return;
  if (loop_.max_chunks > 0 && chunks_started_ >= loop_.max_chunks) {
    return;  // closed-loop cap reached: the slot retires
  }
  request_next();
}

UserApp::Request* UserApp::find(const ndn::Name& name) {
  for (Request& request : requests_) {
    if (request.live && request.name == name) return &request;
  }
  return nullptr;
}

UserApp::Request& UserApp::track(const ndn::Name& name) {
  auto slot = std::find_if(requests_.begin(), requests_.end(),
                           [](const Request& r) { return !r.live; });
  if (slot == requests_.end()) slot = requests_.emplace(requests_.end());
  Request& request = *slot;
  request.name = name;
  request.live = true;
  request.retries = 0;
  request.first_sent_at = node_.scheduler().now();
  ++in_flight_;
  ++chunks_started_;
  return request;
}

std::shared_ptr<ndn::Interest> UserApp::make_interest(const ndn::Name& name) {
  auto interest = node_.pool().make_interest();
  interest->name = name;
  interest->nonce = rng_();  // fresh per attempt, so PITs see no duplicate
  interest->lifetime = loop_.interest_lifetime;
  return interest;
}

void UserApp::send_attempt(Request& request, core::TagPtr tag) {
  auto interest = make_interest(request.name);
  interest->tag = std::move(tag);
  interest->tag_wire_size = interest->tag ? interest->tag->wire_size() : 0;
  request.sent_at = node_.scheduler().now();
  request.backoff = false;
  arm(request, request.sent_at + loop_.interest_lifetime);
  ++counters_.chunks_requested;
  node_.inject_from_app(face_, std::move(interest));
}

void UserApp::arm(Request& request, event::Time deadline) {
  request.deadline = deadline;
  request.armed = next_arming_++;
  wakeup_.arm(deadline);
}

void UserApp::end(Request& request) {
  request.live = false;
  request.armed = 0;
  --in_flight_;
  schedule_slot_fill();
}

void UserApp::count_nack(ndn::NackReason reason) {
  ++counters_.nacks_received;
  ++counters_.nacks_by_reason[static_cast<std::size_t>(reason)];
}

void UserApp::serve_deadlines() {
  const event::Time now = node_.scheduler().now();
  // Deadlines armed from here on wait for a later event, as a timer
  // scheduled for the current instant would.
  const std::uint64_t horizon = next_arming_;
  for (;;) {
    Request* due = nullptr;
    std::optional<event::Time> next;
    for (Request& r : requests_) {
      if (!r.live || r.armed == 0) continue;
      if (r.armed < horizon && r.deadline <= now &&
          (due == nullptr || std::pair(r.deadline, r.armed) <
                                 std::pair(due->deadline, due->armed))) {
        due = &r;
      }
      if (!next || r.deadline < *next) next = r.deadline;
    }
    if (due == nullptr) {
      if (next) wakeup_.arm(*next);
      return;
    }
    due->armed = 0;
    on_deadline(*due);
  }
}

void UserApp::on_deadline(Request& request) {
  ++counters_.timeouts;
  end(request);
}

void UserApp::on_data(const ndn::Data& data) {
  Request* request = find(data.name);
  if (request == nullptr) return;  // late duplicate
  if (data.nack_attached) {
    count_nack(data.nack_reason);
  } else {
    ++counters_.chunks_received;
  }
  end(*request);
}

void UserApp::on_nack(const ndn::Nack& nack) {
  Request* request = find(nack.name);
  if (request == nullptr) return;
  count_nack(nack.reason);
  end(*request);
}

}  // namespace tactic::workload
