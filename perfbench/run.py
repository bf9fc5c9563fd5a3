#!/usr/bin/env python3
"""Simulator benchmark: builds the runners, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are relative to the repository root, the parent of perfbench/.  The
first call configures and builds perfbench/ (and the simulator sources
under src/) into .bench_build/.

--trace 0 prints the end-to-end metrics.  Each timed repetition is a fresh
perfbench_run process (so peak RSS is that run's own), repeated one at a
time until S seconds have passed (at least MIN_REPS); repetitions cycle
through MIN_REPS scenario seeds derived from N.  Every metric is the
median over the repetitions.

--trace 1 prints the per-layer metrics from three runs at seed N: an
unsliced Scenario::run() (the self-check), a sliced perfbench_run process
with stand-alone topology builds, and a perfbench_traced process (packet
tracers, allocation counts, replay loops).  Spans are written to
.bench_build/spans/.

Both modes gate correctness and exit 1 on failure: runs of one scenario
seed must give the same fingerprint digest and event count (with --trace 1
that includes sliced against unsliced, and traced against untraced), and
attackers must never receive a chunk.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  An operation is a simulated client chunk request; a failure is a
wrong access-control outcome: a legitimate client refused by a NACK, or an
attacker served a chunk.  Simulated timeouts are simulation results and
show in client_delivery_ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = ("paper_t4", "rsa1024_t2", "flood_10x")
MIN_REPS = 4
SEED_STRIDE = 1_000_003
TOPOLOGY_BUILDS = 5
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_per_sim_s": "s/s",
    "peak_rss_mb": "MB",
    "client_delivery_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "event.events": "count",
    "event.ns_per_event": "ns",
    "event.pending_peak": "count",
    "event.replay_ns_per_op": "ns",
    "ndn.interests_rx": "count",
    "ndn.data_rx": "count",
    "ndn.nacks_rx": "count",
    "ndn.fib_lookups": "count",
    "ndn.fib_nodes_per_lookup": "nodes/lookup",
    "ndn.pit_inserts": "count",
    "ndn.pit_expirations": "count",
    "ndn.cs_hit_ratio": "ratio",
    "ndn.pool_reuse_ratio": "ratio",
    "ndn.cow_clones": "count",
    "ndn.fib_lookup_ns": "ns",
    "ndn.cs_find_ns": "ns",
    "ndn.name_id_hash_ns": "ns",
    "ndn.pit_insert_ns": "ns",
    "crypto.tags_issued": "count",
    "crypto.sign_us": "us",
    "crypto.verify_us": "us",
    "crypto.keygen_ms": "ms",
    "crypto.est_share": "ratio",
    "tactic.bf_lookups": "count",
    "tactic.bf_insertions": "count",
    "tactic.sig_verifications": "count",
    "tactic.neg_cache_hits": "count",
    "tactic.sheds": "count",
    "tactic.sig_valid_ratio": "ratio",
    "tactic.verify_tag_us": "us",
    "bloom.insert_ns": "ns",
    "bloom.contains_ns": "ns",
    "net.bytes_sent": "bytes",
    "net.frames_dropped": "count",
    "workload.client_requests": "count",
    "workload.attacker_requests": "count",
    "workload.tags_requested": "count",
    "workload.timeouts": "count",
    "sim.harvest_s": "s",
    "sim.rss_growth_mb_per_sim_min": "MB/min",
    "sim.allocs_per_chunk": "allocs/chunk",
    "sim.setup_allocs": "count",
    "topology.build_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both runners; raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench_run", "perfbench_traced"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def child(binary, *args):
    """Runs one runner process to completion; returns its JSON line."""
    command = [str(BUILD / binary)] + [str(a) for a in args]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{binary} timed out: {command}")
    if done.returncode != 0:
        raise BenchError(f"{binary} exited {done.returncode}: {command}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{binary} printed nothing: {command}")
    return json.loads(lines[-1])


def check_runs(runs):
    """Gates: runs of one scenario seed agree on their fingerprint digest
    and event count, and no attacker ever receives a chunk.  Returns the
    digest of each seed."""
    first = {}
    for run in runs:
        if run["workload.attacker_delivered"] != 0:
            raise BenchError(f"{run['label']} run, seed {run['seed']}: "
                             f"attackers received "
                             f"{run['workload.attacker_delivered']} chunks")
        reference = first.setdefault(run["seed"], run)
        for key in ("digest", "event.events"):
            if run[key] != reference[key]:
                raise BenchError(
                    f"seed {run['seed']}: {key} differs: "
                    f"{reference['label']} run {reference[key]}, "
                    f"{run['label']} run {run[key]}")
    return {seed: run["digest"] for seed, run in first.items()}


def run_at(seed, label, binary, args, *extra):
    run = child(binary, "--workload", args.workload, "--seed", seed, *extra)
    run.update(seed=seed, label=label)
    return run


def ops(run):
    """(attempted, failed) for one run; see the module docstring."""
    failed = run["workload.client_refusals"] + run["workload.attacker_delivered"]
    return int(run["workload.client_requests"]), int(failed)


def end_to_end(args):
    # Repetitions cycle through MIN_REPS seeds derived from --seed: set-up
    # cost (RSA prime search), topology and memory depend on the seed, so
    # medians over several seeds do not hinge on one seed's luck.  Seeds
    # that recur must reproduce their digest.
    seeds = [args.seed + i * SEED_STRIDE for i in range(MIN_REPS)]
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_REPS or time.monotonic() - start < args.seconds:
        seed = seeds[len(runs) % len(seeds)]
        runs.append(run_at(seed, "timed", "perfbench_run", args))
    digests = check_runs(runs)
    if min(r["peak_rss_mb"] for r in runs) <= 0:
        raise BenchError("peak RSS unreadable from /proc/self/status")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s_per_sim_s": statistics.median(
            (r["loop_s"] + r["sim.harvest_s"]) / r["sim_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "client_delivery_ratio": statistics.median(
            r["client_delivery_ratio"] for r in runs),
    }
    attempted = sum(ops(r)[0] for r in runs)
    failed = sum(ops(r)[1] for r in runs)
    return digests, len(runs), attempted, failed, metrics, END_TO_END_UNITS


def per_layer(args):
    SPANS.mkdir(parents=True, exist_ok=True)
    spans = SPANS / f"{args.workload}-seed{args.seed}.jsonl"
    # The one-time self-check: slicing the event loop, and tracing it, must
    # not perturb the simulation.
    unsliced = run_at(args.seed, "unsliced", "perfbench_run", args,
                      "--unsliced", "1")
    plain = run_at(args.seed, "sliced", "perfbench_run", args,
                   "--topology-builds", TOPOLOGY_BUILDS)
    traced = run_at(args.seed, "traced", "perfbench_traced", args,
                    "--spans", spans)
    digests = check_runs([unsliced, plain, traced])
    if not traced["captured_names"] or not traced["captured_tags"]:
        raise BenchError("the tracers captured no router Interest names or "
                         "tags to replay")

    loop_s = plain["loop_s"]
    metrics = {name: plain[name] for name in PER_LAYER_UNITS if name in plain}
    for name in PER_LAYER_UNITS:
        if name in traced and name not in metrics:
            metrics[name] = traced[name]
    metrics["event.ns_per_event"] = loop_s * 1e9 / plain["event.events"]
    crypto_s = (plain["crypto.tags_issued"] * traced["crypto.sign_us"] +
                plain["crypto.verifications"] * traced["crypto.verify_us"]
                ) * 1e-6
    metrics["crypto.est_share"] = crypto_s / loop_s
    metrics["trace.overhead_ratio"] = traced["loop_s"] / loop_s
    # In-run count x replayed cost per op, summed over the replayed layers.
    attributed_ns = (
        plain["event.events"] * traced["event.replay_ns_per_op"] +
        plain["ndn.fib_lookups"] * traced["ndn.fib_lookup_ns"] +
        plain["ndn.cs_lookups"] * traced["ndn.cs_find_ns"] +
        plain["ndn.pit_inserts"] * traced["ndn.pit_insert_ns"] +
        plain["tactic.bf_lookups"] * traced["bloom.contains_ns"] +
        plain["tactic.bf_insertions"] * traced["bloom.insert_ns"] +
        plain["crypto.verifications"] * traced["tactic.verify_tag_us"] * 1e3 +
        plain["crypto.tags_issued"] * traced["crypto.sign_us"] * 1e3)
    metrics["trace.attributed_share"] = attributed_ns * 1e-9 / loop_s
    missing = sorted(set(PER_LAYER_UNITS) - set(metrics))
    if missing:
        raise BenchError(f"per-layer metrics not produced: {missing}")
    attempted, failed = ops(plain)
    log(f"spans written to {spans.relative_to(ROOT)}")
    return digests, 3, attempted, failed, metrics, PER_LAYER_UNITS


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        mode = per_layer if args.trace else end_to_end
        digests, runs, attempted, failed, metrics, units = mode(args)
    except BenchError as error:
        log(f"perfbench: FAILED: {error}")
        return 1

    print(f"workload {args.workload} seed {args.seed}: {runs} runs")
    for seed, digest in digests.items():
        print(f"  scenario seed {seed}: fingerprint digest {digest}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
