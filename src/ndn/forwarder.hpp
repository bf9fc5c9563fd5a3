#pragma once
// The per-node NDN forwarding engine (the NFD substitute).
//
// Pipeline on Interest arrival: policy inspection -> Content Store ->
// PIT (aggregate or create) -> FIB longest-prefix match -> upstream face.
// Data consumes its PIT entry and flows down the reverse paths, with the
// node's AccessControlPolicy deciding per-downstream forwarding.  Every
// node in a scenario — clients, APs, routers, providers — runs one
// Forwarder; applications attach through app faces.
//
// Packet memory model (docs/ARCHITECTURE.md, "Packet memory model"): a
// packet is allocated once — in the origin node's PacketPool — and flows
// as a shared immutable handle (InterestPtr/DataPtr/NackPtr) through
// every hop: link frames, the Content Store, and the reverse-path
// fan-out all share the same object.  Mutation happens only through the
// COW seam (Cow::edit), in place when the packet is uniquely held.
//
// Compute charging: policies report the (sampled) CPU time their checks
// consumed; the forwarder defers all sends triggered by that packet by the
// accumulated amount, mirroring how the paper injects benchmarked
// BF/signature latencies into ndnSIM.

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "event/scheduler.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "ndn/cs.hpp"
#include "ndn/fib.hpp"
#include "ndn/packet.hpp"
#include "ndn/packet_pool.hpp"
#include "ndn/pit.hpp"
#include "ndn/policy.hpp"

namespace tactic::ndn {

/// Shared immutable packet handles — see packet.hpp for the aliases.
using PacketVariant = std::variant<InterestPtr, DataPtr, NackPtr>;

/// Wire size of any packet variant.
std::size_t wire_size(const PacketVariant& packet);

/// Wraps a by-value packet in a (non-pooled) shared handle.  Convenience
/// for tests and tools; the forwarding plane uses PacketPool.
PacketVariant make_packet(Interest&& interest);
PacketVariant make_packet(Data&& data);
PacketVariant make_packet(Nack&& nack);

/// Callbacks through which an application receives packets from its app
/// face.  Unset members mean "drop".
struct AppSink {
  std::function<void(FaceId, const Interest&)> on_interest;
  std::function<void(const Data&)> on_data;
  std::function<void(const Nack&)> on_nack;
};

/// Forwarding-plane event counters for one node.
struct ForwarderCounters {
  std::uint64_t interests_received = 0;
  std::uint64_t interests_forwarded = 0;
  std::uint64_t interests_aggregated = 0;
  std::uint64_t interests_dropped = 0;   // policy drops
  std::uint64_t interests_nacked = 0;    // policy drop-with-NACK
  std::uint64_t duplicate_interests = 0;
  std::uint64_t data_received = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t unsolicited_data = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t no_route = 0;
  std::uint64_t pit_expirations = 0;
  /// Entries evicted (LRU) to admit a new one under a PIT capacity.
  std::uint64_t pit_evictions = 0;
  std::uint64_t link_send_failures = 0;  // drop-tail overflow / link down
  /// Interests sent on a non-primary next hop because the primary's link
  /// refused the frame (down or full).
  std::uint64_t interest_failovers = 0;
  /// Interests dropped because every candidate next hop refused.
  std::uint64_t interests_unsent = 0;
  /// Crash/restart bookkeeping (fault injection).
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  /// Packets that arrived (or were injected) while the node was crashed.
  std::uint64_t dropped_while_down = 0;
  /// Corrupted frames rejected at this node's outgoing faces (the L2 CRC
  /// stand-in; the receiver never sees the payload).
  std::uint64_t corrupt_frames_rejected = 0;
};

/// A node's view of wall-clock time: the simulator's true time plus a
/// fixed boot offset and a linear drift rate (parts of a second gained
/// per second of true time).  The default is the identity — every node
/// reads the scheduler directly — so the clock-skew fault layer is
/// bit-free when uninstalled.  Skew affects only *interpretation* of
/// timestamps (tag expiries, issuance stamps); the event scheduler
/// itself always runs on true time.
struct LocalClock {
  event::Time offset = 0;
  double drift = 0.0;

  bool identity() const { return offset == 0 && drift == 0.0; }
  event::Time local(event::Time true_now) const {
    if (identity()) return true_now;
    return true_now + offset +
           static_cast<event::Time>(static_cast<double>(true_now) * drift);
  }
};

class Forwarder {
 public:
  Forwarder(event::Scheduler& scheduler, net::NodeInfo info,
            std::size_t cs_capacity);

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  const net::NodeInfo& info() const { return info_; }
  event::Scheduler& scheduler() { return scheduler_; }
  const event::Scheduler& scheduler() const { return scheduler_; }
  Fib& fib() { return fib_; }
  Pit& pit() { return pit_; }
  const Pit& pit() const { return pit_; }
  ContentStore& cs() { return cs_; }
  const ContentStore& cs() const { return cs_; }
  const ForwarderCounters& counters() const { return counters_; }

  /// The node's packet pool — applications build their packets here so
  /// injection is allocation-free at steady state.
  PacketPool& pool() { return pool_; }
  const PacketPool& pool() const { return pool_; }

  /// The node's (possibly skewed) local clock.  Installed by the fault
  /// layer; identity by default.
  void set_clock(const LocalClock& clock) { clock_ = clock; }
  const LocalClock& clock() const { return clock_; }
  /// True scheduler time translated through this node's clock — the
  /// timestamp source for everything this node *interprets* (tag
  /// expiries) or *stamps* (tag issuance).
  event::Time local_now() const { return clock_.local(scheduler_.now()); }

  /// Caps the PIT at `capacity` entries (0 = unbounded, the default).
  /// When a new entry would exceed the cap, the least-recently-used
  /// entry is evicted — erased with its deadline, `pit_evictions`
  /// incremented — so an Interest flood can no longer grow router state
  /// without bound.
  void set_pit_capacity(std::size_t capacity) { pit_capacity_ = capacity; }
  std::size_t pit_capacity() const { return pit_capacity_; }

  /// Installs the node's access-control policy (owned).  Defaults to
  /// NullPolicy (plain NDN).
  void set_policy(std::unique_ptr<AccessControlPolicy> policy);
  AccessControlPolicy& policy() { return *policy_; }

  /// Adds a face transmitting into `tx_link` (non-owning); frames
  /// arriving at the other end run `deliver` there.  The forwarder
  /// registers the link's receiver once here — per-frame state is just
  /// the shared packet handle.  Returns the new face id.
  FaceId add_link_face(net::Link* tx_link,
                       std::function<void(PacketVariant&&)> deliver);

  /// Adds a local application face.
  FaceId add_app_face(AppSink sink);

  /// Entry point for packets arriving from a link (bound into the peer's
  /// deliver closure by the wiring helper) or from local apps.
  void receive(FaceId in_face, PacketVariant&& packet);

  /// Optional packet tracer, invoked for every packet this node receives
  /// (direction=rx) and transmits (direction=tx).  Costs one branch per
  /// packet when unset.  See sim::PacketTrace for a CSV sink.
  using TraceFn =
      std::function<void(const Forwarder&, const PacketVariant&, FaceId,
                         bool /*is_rx*/)>;
  void set_tracer(TraceFn tracer) { tracer_ = std::move(tracer); }

  /// Adds a tracer without displacing one already installed; all added
  /// tracers run, in installation order.  Lets an invariant checker
  /// observe the packet stream alongside a PacketTrace CSV sink.
  void add_tracer(TraceFn tracer);

  /// Application transmit: treat `packet` as if it arrived on `app_face`.
  /// Used by clients to issue Interests and by producers to answer them.
  void inject_from_app(FaceId app_face, PacketVariant&& packet);
  /// Shared-handle conveniences (the pool-built fast path).
  void inject_from_app(FaceId app_face, std::shared_ptr<Interest> packet) {
    inject_from_app(app_face, PacketVariant(InterestPtr(std::move(packet))));
  }
  void inject_from_app(FaceId app_face, std::shared_ptr<Data> packet) {
    inject_from_app(app_face, PacketVariant(DataPtr(std::move(packet))));
  }
  void inject_from_app(FaceId app_face, std::shared_ptr<Nack> packet) {
    inject_from_app(app_face, PacketVariant(NackPtr(std::move(packet))));
  }
  /// By-value conveniences (tests/tools): moved into a pool slot.
  void inject_from_app(FaceId app_face, Interest&& packet) {
    auto p = pool_.make_interest();
    *p = std::move(packet);
    inject_from_app(app_face, std::move(p));
  }
  void inject_from_app(FaceId app_face, Data&& packet) {
    auto p = pool_.make_data();
    *p = std::move(packet);
    inject_from_app(app_face, std::move(p));
  }
  void inject_from_app(FaceId app_face, Nack&& packet) {
    auto p = pool_.make_nack();
    *p = std::move(packet);
    inject_from_app(app_face, std::move(p));
  }

  /// Crash semantics: a crashed node drops all in-flight deferred work,
  /// refuses arriving packets, and loses its volatile state (PIT with its
  /// expiry wakeup, Content Store, pooled packet slots).  Policy state is
  /// wiped on restart via AccessControlPolicy::on_restart — for TACTIC
  /// that means the Bloom filter, forcing the F=0 "cannot vouch" fallback
  /// until it refills.
  bool alive() const { return alive_; }
  void crash();
  void restart();

  /// Hook for the corruption path: called with the would-be-delivered
  /// packet and the frame's deterministic corruption seed whenever a link
  /// delivers a corrupted frame from this node.  The sim layer installs a
  /// probe that encodes the packet, flips real wire bytes, and feeds the
  /// result to the wire decoders; the frame is then dropped regardless
  /// (L2 CRC detects the damage before the payload handler runs).
  using CorruptionProbe =
      std::function<void(const PacketVariant&, std::uint64_t /*seed*/)>;
  void set_corruption_probe(CorruptionProbe probe) {
    corruption_probe_ = std::move(probe);
  }

 private:
  struct Face {
    FaceId id = kInvalidFace;
    bool is_app = false;
    net::Link* tx = nullptr;  // link faces
    AppSink sink;             // app faces
  };

  void on_interest(FaceId in_face, InterestPtr&& interest);
  void on_data(FaceId in_face, DataPtr&& data);
  void on_nack(FaceId in_face, NackPtr&& nack);

  /// Sends `packet` out of `face` after `delay` (compute charging).
  void send(FaceId face, PacketVariant packet, event::Time delay);

  /// Sends an Interest upstream, trying `next_hops` in cost order and
  /// failing over when a link refuses the frame (down or queue-full).
  void send_interest(const std::vector<Fib::NextHop>& next_hops,
                     InterestPtr interest, event::Time delay);
  /// The delay-elapsed body of send_interest (no capture when delay==0).
  void do_send_interest(const std::vector<Fib::NextHop>& next_hops,
                        InterestPtr&& interest);

  /// Records `entry`'s deadline in the PIT's expiry heap and re-arms the
  /// expiry wakeup when the deadline is earlier than the pending one.
  void set_pit_expiry(PitEntry& entry, event::Time expiry);
  /// Schedules the wakeup that erases every PIT entry due at `when` and
  /// re-arms at the next deadline.
  void arm_expiry_wakeup(event::Time when);

  event::Scheduler& scheduler_;
  net::NodeInfo info_;
  Fib fib_;
  Pit pit_;
  std::size_t pit_capacity_ = 0;  // 0 = unbounded
  /// The one pending PIT-expiry wakeup, at or before the PIT's earliest
  /// deadline, and its time — empty when none is pending, which the id
  /// cannot tell: it stays valid after its event ran.
  event::EventId expiry_wakeup_;
  std::optional<event::Time> expiry_wakeup_at_;
  ContentStore cs_;
  PacketPool pool_;
  std::unique_ptr<AccessControlPolicy> policy_;
  std::vector<Face> faces_;
  ForwarderCounters counters_;
  TraceFn tracer_;
  CorruptionProbe corruption_probe_;
  LocalClock clock_;
  bool alive_ = true;
  /// Bumped on every crash; deferred send closures capture the epoch at
  /// scheduling time and die silently if it moved (in-flight work is lost
  /// with the node).
  std::uint64_t epoch_ = 0;
};

}  // namespace tactic::ndn
