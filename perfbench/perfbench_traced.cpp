// Traced runner: one workload run with per-layer instrumentation from
// outside the simulator, then replay loops that time each layer's public
// calls on inputs captured during the run.  Links the allocation probe,
// so its wall times are never used as end-to-end figures.  Prints one
// JSON line and writes its spans as JSON lines to --spans.
//
//   perfbench_traced --workload NAME --seed N --spans PATH
//
// During the run a Forwarder tracer on every node counts received
// packets and samples router Interest names and tags into buffers
// reserved up front, so the tracer itself allocates nothing.  After
// harvest() the replay loops call Scheduler, Fib::lookup,
// ContentStore::find, Name::id_hash, Pit, BloomFilter,
// verify_tag_signature, issue_tag and RSA keygen/verify on those inputs,
// against the run's own post-run tables and PKI.  Replayed ns/op are
// estimates of in-run cost: caches are warmer and inputs fewer.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "crypto/rsa.hpp"
#include "ndn/pit.hpp"
#include "probe.hpp"
#include "tactic/tag.hpp"
#include "testing/alloc_probe.hpp"
#include "testing/fingerprint.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace tactic;
using namespace tactic::perfbench;

/// Keeps a computed value alive so replay loops are not optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Packet counts and input samples gathered by the tracers.  Buffers are
/// reserved before the run and never grow inside it.
struct Capture {
  static constexpr std::size_t kMaxNames = 4096;
  static constexpr std::size_t kMaxIds = kMaxNames * 8;
  static constexpr std::size_t kMaxTags = 1024;
  static constexpr std::uint64_t kNameStride = 61;
  static constexpr std::uint64_t kTagStride = 29;

  std::uint64_t interests_rx = 0;
  std::uint64_t data_rx = 0;
  std::uint64_t nacks_rx = 0;
  std::uint64_t router_interests = 0;
  std::uint64_t router_tagged = 0;
  std::vector<net::NodeId> name_nodes;
  std::vector<std::size_t> name_ends;  // end offset of each name in ids
  std::vector<ndn::ComponentId> ids;
  std::vector<core::TagPtr> tags;

  Capture() {
    name_nodes.reserve(kMaxNames);
    name_ends.reserve(kMaxNames);
    ids.reserve(kMaxIds);
    tags.reserve(kMaxTags);
  }

  void on_router_interest(net::NodeId node, const ndn::Interest& interest) {
    if (++router_interests % kNameStride == 0 &&
        name_nodes.size() < kMaxNames) {
      const auto& name_ids = interest.name.component_ids();
      if (ids.size() + name_ids.size() <= kMaxIds) {
        ids.insert(ids.end(), name_ids.begin(), name_ids.end());
        name_ends.push_back(ids.size());
        name_nodes.push_back(node);
      }
    }
    if (interest.tag && ++router_tagged % kTagStride == 0 &&
        tags.size() < kMaxTags) {
      tags.push_back(interest.tag);
    }
  }

  std::vector<ndn::Name> names() const {
    std::vector<ndn::Name> out;
    std::size_t begin = 0;
    for (const std::size_t end : name_ends) {
      out.push_back(ndn::Name::from_ids(
          std::vector<ndn::ComponentId>(ids.begin() + begin, ids.begin() + end)));
      begin = end;
    }
    return out;
  }
};

void install_tracers(sim::Scenario& scenario, Capture& capture) {
  topology::Network& network = scenario.network();
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    network.node(id).add_tracer(
        [&capture](const ndn::Forwarder& node,
                   const ndn::PacketVariant& packet, ndn::FaceId,
                   bool is_rx) {
          if (!is_rx) return;
          switch (packet.index()) {
            case 0:
              ++capture.interests_rx;
              if (net::is_router(node.info().kind)) {
                capture.on_router_interest(node.info().id,
                                           *std::get<0>(packet));
              }
              break;
            case 1:
              ++capture.data_rx;
              break;
            default:
              ++capture.nacks_rx;
              break;
          }
        });
  }
}

/// Runs `pass` (which performs `ops_per_pass` operations) until at least
/// `min_seconds` of wall time have passed; returns ns per operation.
template <typename Pass>
double ns_per_op(std::size_t ops_per_pass, double min_seconds, Pass&& pass) {
  if (ops_per_pass == 0) return 0.0;
  std::size_t ops = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    ops += ops_per_pass;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(ops);
}

/// Handler that re-schedules itself at a pre-drawn delay, so the queue
/// depth stays constant while events are dispatched.
struct Respawn {
  event::Scheduler* scheduler;
  const std::vector<event::Time>* delays;
  std::size_t* next;
  void operator()() const {
    const event::Time delay = (*delays)[(*next)++ % delays->size()];
    scheduler->schedule(delay, Respawn{scheduler, delays, next});
  }
};

double replay_scheduler(std::size_t depth, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<event::Time> delays(4096);
  for (event::Time& delay : delays) {
    delay = static_cast<event::Time>(rng.uniform(event::kSecond));
  }
  event::Scheduler scheduler;
  std::size_t next = 0;
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    Respawn{&scheduler, &delays, &next}();
  }
  std::uint64_t ops = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    const std::uint64_t before = scheduler.executed_count();
    scheduler.run_until(scheduler.now() + 10 * event::kMillisecond);
    ops += scheduler.executed_count() - before;
    elapsed = seconds_since(start);
  } while (elapsed < 0.3);
  return ops == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(ops);
}

int run(const util::Flags& flags) {
  const std::string workload = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string spans_path = flags.get_string("spans", "");
  const sim::ScenarioConfig config = make_workload(workload, seed);
  SpanRecorder spans(workload + "-" + std::to_string(seed));
  JsonLine out;

  const std::size_t root = spans.begin("perfbench.traced");
  std::size_t span = spans.begin("sim.setup");
  const std::uint64_t setup_allocs_before = testing::alloc_count();
  sim::Scenario scenario(config);
  const std::uint64_t setup_allocs =
      testing::alloc_count() - setup_allocs_before;
  spans.end(span);

  Capture capture;
  install_tracers(scenario, capture);

  span = spans.begin("sim.run");
  const std::uint64_t loop_allocs_before = testing::alloc_count();
  const LoopStats loop = run_sliced(scenario, &spans);
  const std::uint64_t loop_allocs = testing::alloc_count() - loop_allocs_before;
  spans.end(span);

  span = spans.begin("sim.harvest");
  const sim::Metrics metrics = scenario.harvest();
  spans.end(span);
  const Counters counters = collect_counters(scenario, metrics);
  const double delivered = counter(counters, "workload.client_delivered");

  out.add("digest", testing::fingerprint_digest(metrics));
  out.add("loop_s", loop.loop_s);
  out.add("event.events",
          static_cast<double>(scenario.scheduler().executed_count()));
  out.add("ndn.interests_rx", static_cast<double>(capture.interests_rx));
  out.add("ndn.data_rx", static_cast<double>(capture.data_rx));
  out.add("ndn.nacks_rx", static_cast<double>(capture.nacks_rx));
  out.add("sim.setup_allocs", static_cast<double>(setup_allocs));
  out.add("sim.allocs_per_chunk",
          delivered > 0 ? static_cast<double>(loop_allocs) / delivered : 0.0);
  out.add("captured_names", static_cast<double>(capture.name_nodes.size()));
  out.add("captured_tags", static_cast<double>(capture.tags.size()));

  // --- Replay loops (estimates), after harvest. ---
  const std::size_t replay = spans.begin("replay");
  const std::vector<ndn::Name> names = capture.names();
  topology::Network& network = scenario.network();

  span = spans.begin("replay.event.schedule_dispatch");
  out.add("event.replay_ns_per_op", replay_scheduler(loop.pending_peak, seed));
  spans.end(span);

  span = spans.begin("replay.ndn.fib_lookup");
  out.add("ndn.fib_lookup_ns", ns_per_op(names.size(), 0.2, [&] {
            for (std::size_t i = 0; i < names.size(); ++i) {
              keep(network.node(capture.name_nodes[i]).fib().lookup(names[i]));
            }
          }));
  spans.end(span);

  span = spans.begin("replay.ndn.cs_find");
  out.add("ndn.cs_find_ns", ns_per_op(names.size(), 0.2, [&] {
            for (std::size_t i = 0; i < names.size(); ++i) {
              keep(network.node(capture.name_nodes[i]).cs().find(names[i]));
            }
          }));
  spans.end(span);

  span = spans.begin("replay.ndn.name_id_hash");
  out.add("ndn.name_id_hash_ns", ns_per_op(names.size(), 0.2, [&] {
            for (const ndn::Name& name : names) keep(name.id_hash());
          }));
  spans.end(span);

  span = spans.begin("replay.ndn.pit_insert_erase");
  {
    ndn::Pit pit;
    out.add("ndn.pit_insert_ns", ns_per_op(names.size(), 0.2, [&] {
              for (const ndn::Name& name : names) {
                keep(&pit.get_or_create(name));
                pit.erase(name);
              }
            }));
  }
  spans.end(span);

  std::vector<util::Bytes> bloom_keys;
  for (const core::TagPtr& tag : capture.tags) {
    bloom_keys.push_back(tag->bloom_key());
  }
  span = spans.begin("replay.bloom.insert");
  bloom::BloomFilter filter(config.tactic.bloom);
  out.add("bloom.insert_ns", ns_per_op(bloom_keys.size(), 0.2, [&] {
            filter.reset();
            for (const util::Bytes& key : bloom_keys) filter.insert(key);
          }));
  spans.end(span);
  span = spans.begin("replay.bloom.contains");
  out.add("bloom.contains_ns", ns_per_op(bloom_keys.size(), 0.2, [&] {
            for (const util::Bytes& key : bloom_keys) {
              keep(filter.contains(key));
            }
          }));
  spans.end(span);

  span = spans.begin("replay.tactic.verify_tag");
  const crypto::Pki& pki = scenario.anchors().pki;
  out.add("tactic.verify_tag_us",
          ns_per_op(capture.tags.size(), 0.3, [&] {
            for (const core::TagPtr& tag : capture.tags) {
              keep(core::verify_tag_signature(*tag, pki));
            }
          }) / 1e3);
  spans.end(span);

  span = spans.begin("replay.crypto.keygen");
  util::Rng key_rng(seed ^ 0x5EEDC0DEULL);
  std::vector<double> keygen_ms;
  crypto::RsaKeyPair key;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    key = crypto::generate_rsa_keypair(key_rng, config.provider.key_bits);
    keygen_ms.push_back(seconds_since(start) * 1e3);
  }
  out.add("crypto.keygen_ms", median(keygen_ms));
  spans.end(span);

  core::Tag::Fields fields;
  if (!capture.tags.empty()) fields = capture.tags.front()->fields();
  span = spans.begin("replay.crypto.sign");
  core::TagPtr signed_tag;
  out.add("crypto.sign_us", ns_per_op(1, 0.3, [&] {
            signed_tag = core::issue_tag(fields, key.private_key);
          }) / 1e3);
  spans.end(span);
  span = spans.begin("replay.crypto.verify");
  const util::Bytes message = core::Tag::serialize_fields(fields);
  out.add("crypto.verify_us", ns_per_op(1, 0.2, [&] {
            keep(key.public_key.verify_pkcs1_sha256(message,
                                                    signed_tag->signature()));
          }) / 1e3);
  spans.end(span);
  spans.end(replay);
  spans.end(root);

  out.add(counters);
  if (!spans_path.empty()) spans.write(spans_path);
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(tactic::util::Flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_traced: %s\n", error.what());
    return 2;
  }
}
