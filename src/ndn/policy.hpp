#pragma once
// Access-control policy hooks.
//
// The Forwarder implements plain NDN (CS -> PIT -> FIB pipeline, reverse-
// path data forwarding).  Everything access-control-specific — TACTIC's
// Protocols 1-4 as well as the baseline mechanisms of Table II — plugs in
// through this interface.  One policy object is instantiated *per node*,
// because TACTIC state (the router's Bloom filter, operation counters) is
// per-router.

#include <functional>
#include <memory>
#include <utility>

#include "event/time.hpp"
#include "ndn/packet.hpp"
#include "ndn/packet_pool.hpp"
#include "ndn/pit.hpp"

namespace tactic::ndn {

class Forwarder;

/// Asynchronous verdict delivery for batched validation (see
/// docs/ARCHITECTURE.md, "Batched validation").  A validation that
/// joined a batch hands one of these back through its decision; the
/// forwarder binds the deferred send closure, and the batch flush fires
/// it with the batch's completion delay.  The two calls may arrive in
/// either order: a size-cap flush can fire the handle inside the same
/// policy call that created it (before the forwarder had a chance to
/// bind), so fire() buffers until bind().  drop() kills the verdict
/// outright (router crash mid-batch); the node-epoch guard inside the
/// bound closure is the second line of defence.
class DeferredVerdict {
 public:
  /// `extra_delay` is the batch-completion delay, measured from the
  /// instant fire() ran.
  using SendFn = std::function<void(event::Time extra_delay)>;

  void bind(SendFn send) {
    if (dropped_) return;
    if (fired_) {
      send(extra_);
      return;
    }
    send_ = std::move(send);
  }

  void fire(event::Time extra_delay) {
    if (dropped_ || fired_) return;
    fired_ = true;
    extra_ = extra_delay;
    if (send_) {
      SendFn send = std::move(send_);
      send_ = nullptr;
      send(extra_);
    }
  }

  void drop() {
    dropped_ = true;
    send_ = nullptr;
  }

  /// Neither fired nor dropped yet (still waiting in a batch).
  bool pending() const { return !fired_ && !dropped_; }
  bool dropped() const { return dropped_; }

 private:
  SendFn send_;
  event::Time extra_ = 0;
  bool fired_ = false;
  bool dropped_ = false;
};

class AccessControlPolicy {
 public:
  virtual ~AccessControlPolicy() = default;

  /// Outcome of inspecting an arriving Interest.
  struct InterestDecision {
    enum class Action {
      kContinue,       // proceed with the normal CS/PIT/FIB pipeline
      kDrop,           // silently drop
      kDropWithNack,   // drop and send a standalone NACK on the in-face
    };
    Action action = Action::kContinue;
    NackReason nack_reason = NackReason::kNone;
    /// Compute time consumed by the inspection (pre-check, BF lookup,
    /// signature verification); delays everything this packet triggers.
    event::Time compute = 0;
  };

  /// Called for every Interest arriving at the node, before CS lookup.
  /// The policy may mutate the Interest through the COW handle (stamp
  /// flag F, accumulate the access path) — edit() is in place for the
  /// uniquely-held arriving packet, a pool clone otherwise.  Default:
  /// continue untouched.
  virtual InterestDecision on_interest(Forwarder& node, FaceId in_face,
                                       CowInterest& interest);

  /// Outcome of serving an Interest from the local Content Store — i.e.
  /// this node is acting as a *content router* for this request.
  struct CacheHitDecision {
    /// False suppresses the response entirely (the baseline "no cache
    /// reuse for protected content" behaviour); the Interest then
    /// continues to PIT/FIB as a miss.
    bool respond = true;
    event::Time compute = 0;
    /// Set when a batched validation deferred the verdict: the
    /// forwarder must bind the response send to this handle instead of
    /// sending after `compute`.  Null on the synchronous path.
    std::shared_ptr<DeferredVerdict> deferred;
  };

  /// Called on a CS hit.  `response` is a pool clone of the cached data
  /// already carrying the request's tag echo; the policy may set
  /// flag_f / nack_attached on it (TACTIC Protocol 3).  Default: respond.
  virtual CacheHitDecision on_cache_hit(Forwarder& node, FaceId in_face,
                                        const Interest& interest,
                                        CowData& response);

  /// Called once per arriving Data packet, before PIT consumption.  Edge
  /// routers use this for Protocol 2's "On Content" Bloom-filter
  /// bookkeeping.  Default: no-op.
  virtual event::Time on_data(Forwarder& node, FaceId in_face,
                              const Data& data);

  /// Outcome of forwarding arriving Data to one aggregated downstream
  /// request (one PIT in-record).
  struct DownstreamDecision {
    bool forward = true;
    /// Forward with a NACK attached (content-tag-NACK tuple), so the
    /// downstream edge router suppresses delivery to that client while
    /// still being able to satisfy other aggregated requests.
    bool attach_nack = false;
    NackReason nack_reason = NackReason::kNone;
    event::Time compute = 0;
    /// See CacheHitDecision::deferred.
    std::shared_ptr<DeferredVerdict> deferred;
  };

  /// Called for each PIT in-record when Data is consumed (TACTIC
  /// Protocol 4 lines 11-26).  `outgoing` starts as a second handle on
  /// `incoming` (no copy); a policy that must mutate (re-stamp the tag
  /// echo, change F) calls edit(), which clones because the incoming
  /// packet is aliased.  Untouched records forward the incoming packet
  /// itself — the zero-copy reverse-path fan-out.  Default: forward
  /// as-is.
  virtual DownstreamDecision on_data_to_downstream(Forwarder& node,
                                                   const PitInRecord& record,
                                                   const Data& incoming,
                                                   CowData& outgoing);

  /// Whether this node may cache `data`.  Default: cache everything except
  /// registration responses.
  virtual bool may_cache(const Forwarder& node, const Data& data);

  /// Called when the node restarts after a crash.  Volatile policy state
  /// (a TACTIC router's Bloom filter, cached validations) must be wiped —
  /// crash-surviving tag caches would let a rebooted router vouch for
  /// tags it can no longer prove it validated.  Default: no-op.
  virtual void on_restart(Forwarder& node);
};

/// The no-op policy: plain NDN with no access control.
class NullPolicy : public AccessControlPolicy {};

}  // namespace tactic::ndn
