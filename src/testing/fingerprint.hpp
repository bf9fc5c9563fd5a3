#pragma once
// Canonical, lossless textual fingerprint of a Metrics harvest.
//
// Two runs of the same ScenarioConfig must produce byte-identical
// fingerprints — the metrics half of the fuzz harness's reproducibility
// check.  Doubles are rendered as C99 hexfloats so the comparison is
// exact, not rounded.

#include <string>

#include "sim/metrics.hpp"

namespace tactic::sim {
class Scenario;
}  // namespace tactic::sim

namespace tactic::testing {

/// Every counter, series bucket, and vector element, one per line.
std::string fingerprint(const sim::Metrics& metrics);

/// SHA-256 hex of fingerprint() — compact form for logs.
std::string fingerprint_digest(const sim::Metrics& metrics);

/// Order-insensitive per-user verdict multiset of a finished scenario:
/// one line per client/attacker (sorted by label) with its delivered
/// chunk count and per-NACK-reason verdict counts.  Timeouts and
/// kRouterOverloaded back-pressure NACKs are excluded — they are load
/// and timing signals, not access-control verdicts.  Batched and
/// unbatched runs of the same closed-loop scenario must produce
/// identical multisets (tests/batching_test.cpp; docs/ARCHITECTURE.md,
/// "Batched validation").
std::string verdict_multiset(sim::Scenario& scenario);

/// SHA-256 hex of verdict_multiset() — the form tests/golden/verdicts.txt
/// pins.
std::string verdict_digest(sim::Scenario& scenario);

}  // namespace tactic::testing
