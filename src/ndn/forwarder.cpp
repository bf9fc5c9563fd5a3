#include "ndn/forwarder.hpp"

#include <utility>

#include "util/log.hpp"

namespace tactic::ndn {

std::size_t wire_size(const PacketVariant& packet) {
  return std::visit([](const auto& p) { return p->wire_size(); }, packet);
}

PacketVariant make_packet(Interest&& interest) {
  return PacketVariant(
      InterestPtr(std::make_shared<Interest>(std::move(interest))));
}

PacketVariant make_packet(Data&& data) {
  return PacketVariant(DataPtr(std::make_shared<Data>(std::move(data))));
}

PacketVariant make_packet(Nack&& nack) {
  return PacketVariant(NackPtr(std::make_shared<Nack>(std::move(nack))));
}

namespace {

/// Frame kind tags mirror the PacketVariant alternative index.
net::Frame to_frame(PacketVariant&& packet) {
  net::Frame frame;
  frame.kind = static_cast<std::uint32_t>(packet.index());
  std::visit(
      [&](auto&& p) {
        frame.payload =
            std::static_pointer_cast<const void>(std::move(p));
      },
      std::move(packet));
  return frame;
}

PacketVariant from_frame(net::Frame&& frame) {
  switch (frame.kind) {
    case 0:
      return PacketVariant(InterestPtr(
          std::static_pointer_cast<const Interest>(std::move(frame.payload))));
    case 1:
      return PacketVariant(DataPtr(
          std::static_pointer_cast<const Data>(std::move(frame.payload))));
    default:
      return PacketVariant(NackPtr(
          std::static_pointer_cast<const Nack>(std::move(frame.payload))));
  }
}

}  // namespace

Forwarder::Forwarder(event::Scheduler& scheduler, net::NodeInfo info,
                     std::size_t cs_capacity)
    : scheduler_(scheduler),
      info_(std::move(info)),
      expiry_wakeup_(scheduler, [this] {
        counters_.pit_expirations += pit_.erase_expired(scheduler_.now());
        if (const auto next = pit_.min_expiry()) expiry_wakeup_.arm(*next);
      }),
      cs_(cs_capacity),
      policy_(std::make_unique<NullPolicy>()) {}

void Forwarder::set_policy(std::unique_ptr<AccessControlPolicy> policy) {
  policy_ = policy ? std::move(policy) : std::make_unique<NullPolicy>();
}

void Forwarder::add_tracer(TraceFn tracer) {
  if (!tracer) return;
  if (!tracer_) {
    tracer_ = std::move(tracer);
    return;
  }
  tracer_ = [first = std::move(tracer_), second = std::move(tracer)](
                const Forwarder& node, const PacketVariant& packet,
                FaceId face, bool is_rx) {
    first(node, packet, face, is_rx);
    second(node, packet, face, is_rx);
  };
}

FaceId Forwarder::add_link_face(
    net::Link* tx_link, std::function<void(PacketVariant&&)> deliver) {
  Face face;
  face.id = static_cast<FaceId>(faces_.size());
  face.tx = tx_link;
  faces_.push_back(std::move(face));
  // Register the receiver once: per-frame state on the wire is just the
  // shared packet handle.  Corrupted frames stay a *sender*-side event
  // (`this` is the transmitting node): the probe sees the packet, the
  // counter ticks here, and the receiver never observes the frame.
  tx_link->set_receiver([this, deliver = std::move(deliver)](
                            const net::FrameFate& fate, net::Frame&& frame) {
    PacketVariant packet = from_frame(std::move(frame));
    if (fate.corrupted) {
      if (corruption_probe_) corruption_probe_(packet, fate.corruption_seed);
      ++counters_.corrupt_frames_rejected;
      return;
    }
    deliver(std::move(packet));
  });
  return faces_.back().id;
}

FaceId Forwarder::add_app_face(AppSink sink) {
  Face face;
  face.id = static_cast<FaceId>(faces_.size());
  face.is_app = true;
  face.sink = std::move(sink);
  faces_.push_back(std::move(face));
  return faces_.back().id;
}

void Forwarder::receive(FaceId in_face, PacketVariant&& packet) {
  if (!alive_) {
    // A crashed node neither observes nor processes traffic.
    ++counters_.dropped_while_down;
    return;
  }
  if (tracer_) tracer_(*this, packet, in_face, /*is_rx=*/true);
  std::visit(
      [&](auto&& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, InterestPtr>) {
          on_interest(in_face, std::move(p));
        } else if constexpr (std::is_same_v<T, DataPtr>) {
          on_data(in_face, std::move(p));
        } else {
          on_nack(in_face, std::move(p));
        }
      },
      std::move(packet));
}

void Forwarder::inject_from_app(FaceId app_face, PacketVariant&& packet) {
  receive(app_face, std::move(packet));
}

void Forwarder::send(FaceId face_id, PacketVariant packet,
                     event::Time delay) {
  if (tracer_) tracer_(*this, packet, face_id, /*is_rx=*/false);
  Face& face = faces_.at(face_id);
  if (face.is_app) {
    // Local delivery to the application, after the compute delay.
    scheduler_.schedule(delay, [this, face_id, epoch = epoch_,
                                p = std::move(packet)]() {
      if (epoch != epoch_) return;  // node crashed since scheduling
      const Face& face = faces_.at(face_id);
      std::visit(
          [&](const auto& pkt) {
            using T = std::decay_t<decltype(pkt)>;
            if constexpr (std::is_same_v<T, InterestPtr>) {
              if (face.sink.on_interest) face.sink.on_interest(face.id, *pkt);
            } else if constexpr (std::is_same_v<T, DataPtr>) {
              if (face.sink.on_data) face.sink.on_data(*pkt);
            } else {
              if (face.sink.on_nack) face.sink.on_nack(*pkt);
            }
          },
          p);
    });
    return;
  }

  auto transmit = [this, face_id, epoch = epoch_,
                   p = std::move(packet)]() mutable {
    if (epoch != epoch_) return;  // node crashed since scheduling
    Face& face = faces_.at(face_id);
    const std::size_t size = wire_size(p);
    const bool sent = face.tx->send(size, to_frame(std::move(p)));
    if (!sent) ++counters_.link_send_failures;
  };
  if (delay == 0) {
    transmit();
  } else {
    scheduler_.schedule(delay, std::move(transmit));
  }
}

void Forwarder::do_send_interest(const std::vector<Fib::NextHop>& next_hops,
                                 InterestPtr&& p) {
  for (std::size_t i = 0; i < next_hops.size(); ++i) {
    Face& face = faces_.at(next_hops[i].face);
    if (face.is_app) {
      // Local application face (a producer): always deliverable, via
      // the scheduler so handlers never reenter the pipeline.
      if (i > 0) ++counters_.interest_failovers;
      const FaceId face_id = face.id;
      scheduler_.schedule(0, [this, face_id, epoch = epoch_,
                              pkt = std::move(p)]() {
        if (epoch != epoch_) return;
        const Face& app_face = faces_.at(face_id);
        if (app_face.sink.on_interest) {
          app_face.sink.on_interest(face_id, *pkt);
        }
      });
      return;
    }
    const std::size_t size = p->wire_size();
    const bool sent =
        face.tx->send(size, to_frame(PacketVariant(InterestPtr(p))));
    if (sent) {
      if (i > 0) ++counters_.interest_failovers;
      return;
    }
    ++counters_.link_send_failures;
  }
  ++counters_.interests_unsent;  // every candidate refused
}

void Forwarder::send_interest(const std::vector<Fib::NextHop>& next_hops,
                              InterestPtr interest, event::Time delay) {
  if (tracer_ && !next_hops.empty()) {
    tracer_(*this, PacketVariant(InterestPtr(interest)),
            next_hops.front().face,
            /*is_rx=*/false);
  }
  if (delay == 0) {
    do_send_interest(next_hops, std::move(interest));
    return;
  }
  scheduler_.schedule(delay, [this, next_hops, epoch = epoch_,
                              p = std::move(interest)]() mutable {
    if (epoch != epoch_) return;  // node crashed since scheduling
    do_send_interest(next_hops, std::move(p));
  });
}

void Forwarder::set_pit_expiry(PitEntry& entry, event::Time expiry) {
  pit_.set_expiry(entry, expiry);  // updates expiry_time + the expiry heap
  expiry_wakeup_.arm(expiry);
}

void Forwarder::on_interest(FaceId in_face, InterestPtr&& packet) {
  ++counters_.interests_received;

  CowInterest interest(std::move(packet), pool_);
  auto decision = policy_->on_interest(*this, in_face, interest);
  event::Time compute = decision.compute;
  using Action = AccessControlPolicy::InterestDecision::Action;
  if (decision.action == Action::kDrop) {
    ++counters_.interests_dropped;
    return;
  }
  if (decision.action == Action::kDropWithNack) {
    ++counters_.interests_nacked;
    ++counters_.nacks_sent;
    auto nack = pool_.make_nack();
    nack->name = interest->name;
    nack->reason = decision.nack_reason;
    send(in_face, PacketVariant(NackPtr(std::move(nack))), compute);
    return;
  }

  // Content Store: a hit makes this node a content router for the request.
  if (const ContentStore::Entry* cached = cs_.find(interest->name)) {
    // The cache holds content only: the response is built in a fresh
    // pool slot and carries this request's envelope.
    auto fresh = pool_.make_data();
    cs_.respond(*cached, *interest, *fresh);
    CowData response(DataPtr(std::move(fresh)), pool_);
    auto hit = policy_->on_cache_hit(*this, in_face, *interest, response);
    compute += hit.compute;
    if (hit.respond) {
      if (hit.deferred) {
        // Batched validation: the verdict leaves when the batch flushes.
        // The epoch guard kills it if the router crashed in between.
        hit.deferred->bind([this, in_face, epoch = epoch_, base = compute,
                            packet = response.take()](
                               event::Time extra) mutable {
          if (epoch != epoch_) return;
          ++counters_.data_sent;
          send(in_face, PacketVariant(std::move(packet)), base + extra);
        });
        return;
      }
      ++counters_.data_sent;
      send(in_face, PacketVariant(response.take()), compute);
      return;
    }
    // Policy suppressed cache reuse; continue as a miss.
  }

  // PIT: aggregate onto an in-flight request when possible.
  const event::Time record_expiry = scheduler_.now() + interest->lifetime;
  if (PitEntry* entry = pit_.find(interest->name);
      entry != nullptr && entry->forwarded) {
    if (Pit::has_nonce(*entry, interest->nonce)) {
      ++counters_.duplicate_interests;
      return;
    }
    entry->in_records.push_back(PitInRecord{
        in_face, interest->nonce, interest->tag, interest->tag_wire_size,
        interest->flag_f, interest->access_path, record_expiry});
    ++counters_.interests_aggregated;
    if (record_expiry > entry->expiry_time) {
      set_pit_expiry(*entry, record_expiry);
    }
    return;
  }

  // New PIT entry; forward by longest-prefix match with failover across
  // the route's next hops.
  const Fib::Entry* route = fib_.lookup(interest->name);
  if (route == nullptr || route->next_hops.empty()) {
    ++counters_.no_route;
    ++counters_.nacks_sent;
    auto nack = pool_.make_nack();
    nack->name = interest->name;
    nack->reason = NackReason::kNoRoute;
    send(in_face, PacketVariant(NackPtr(std::move(nack))), compute);
    return;
  }
  // Bounded PIT: evict the least-recently-used entry before a *new* one
  // would push the table past its capacity.  (At this point the entry
  // either does not exist or exists un-forwarded, so find() == nullptr
  // is exactly the "this creates a new entry" case.)
  if (pit_capacity_ > 0 && pit_.size() >= pit_capacity_ &&
      pit_.find(interest->name) == nullptr) {
    if (PitEntry* victim = pit_.lru_victim()) {
      pit_.erase(victim->name);
      ++counters_.pit_evictions;
    }
  }
  PitEntry& entry = pit_.get_or_create(interest->name);
  entry.in_records.push_back(PitInRecord{
      in_face, interest->nonce, interest->tag, interest->tag_wire_size,
      interest->flag_f, interest->access_path, record_expiry});
  entry.forwarded = true;
  set_pit_expiry(entry, record_expiry);
  ++counters_.interests_forwarded;
  send_interest(route->next_hops, interest.take(), compute);
}

void Forwarder::on_data(FaceId in_face, DataPtr&& packet) {
  ++counters_.data_received;

  const DataPtr data = std::move(packet);
  event::Time compute = policy_->on_data(*this, in_face, *data);

  PitEntry* entry = pit_.find(data->name);
  if (entry == nullptr) {
    ++counters_.unsolicited_data;
    return;
  }

  // The CS copies the content fields out; the envelope stays behind.
  if (policy_->may_cache(*this, *data)) cs_.insert(*data);

  const event::Time now = scheduler_.now();
  for (const PitInRecord& record : entry->in_records) {
    if (record.expiry < now) continue;  // stale aggregate
    // Second handle on the incoming packet: untouched records forward
    // the packet itself; policy edits clone via the COW seam.
    CowData outgoing(DataPtr(data), pool_);
    auto decision =
        policy_->on_data_to_downstream(*this, record, *data, outgoing);
    if (!decision.forward) continue;
    if (decision.attach_nack) {
      Data& mutated = outgoing.edit();
      mutated.nack_attached = true;
      mutated.nack_reason = decision.nack_reason;
    }
    if (decision.deferred) {
      decision.deferred->bind([this, face = record.face, epoch = epoch_,
                               base = compute + decision.compute,
                               packet = outgoing.take()](
                                  event::Time extra) mutable {
        if (epoch != epoch_) return;
        ++counters_.data_sent;
        send(face, PacketVariant(std::move(packet)), base + extra);
      });
      continue;
    }
    ++counters_.data_sent;
    send(record.face, PacketVariant(outgoing.take()),
         compute + decision.compute);
  }
  pit_.erase(data->name);
}

void Forwarder::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;  // deferred sends scheduled before this instant die silently
  ++counters_.crashes;
  // Volatile forwarding state is lost: every PIT entry (with the expiry
  // wakeup waiting on their deadlines), the whole Content Store, and the
  // pool's recycled packet buffers (live packets belong to other nodes /
  // in-flight frames).
  expiry_wakeup_.disarm();
  pit_.clear();
  cs_.clear();
  pool_.wipe_volatile();
}

void Forwarder::restart() {
  if (alive_) return;
  alive_ = true;
  ++counters_.restarts;
  policy_->on_restart(*this);
}

void Forwarder::on_nack(FaceId /*in_face*/, NackPtr&& packet) {
  ++counters_.nacks_received;
  // Standalone NACKs propagate to every downstream requester and clear
  // the pending state (hop-by-hop error semantics).  One shared packet
  // serves every downstream (the NACK carries only name + reason).
  const NackPtr nack = std::move(packet);
  PitEntry* entry = pit_.find(nack->name);
  if (entry == nullptr) return;
  for (const PitInRecord& record : entry->in_records) {
    ++counters_.nacks_sent;
    send(record.face, PacketVariant(NackPtr(nack)), 0);
  }
  pit_.erase(nack->name);
}

}  // namespace tactic::ndn
