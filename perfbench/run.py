#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload skeap-steady --seed 1 --seconds 20 --trace 0

It builds perfbench/pass.exe with dune (into .bench_build/), then runs
passes of the workload, each in a fresh process so that the peak-heap
figure belongs to one pass.  Each pass generates its operations from a
sub-seed of --seed; a run pools a fixed number of sub-seeds (SUBSEEDS) and
goes on repeating them while the next pass would end within --seconds.

--trace 0  untraced passes only; prints the end-to-end metrics.
--trace 1  one untraced and one traced pass per sub-seed; prints the
           per-layer metrics: wall time and minor words around the
           benchmark's own calls into each layer (untraced), event counts
           folded from the Dpq_obs.Trace sink (traced), and the
           traced/untraced wall ratio.

Every run checks the online checker's verdict and that all passes of a
sub-seed agree on the oplog digest and on every simulated figure; traced
runs also check that the trace's span totals equal the untraced result
sums and that the per-layer times add up to the wall time.  The last line of
standard output is one JSON object.  When a check fails the JSON says
"correct": false and the exit code is 1; when the run cannot be made (no
checkout, failed build or pass) nothing is printed and the exit code is 1.

--workload all runs the four workloads one after another and prefixes each
metric with its workload's name.

perfbench/layers.json maps each per-layer metric to the end-to-end metric
and workload it should move, and records the default and held-out seeds.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time

# Passes per run, each on its own sub-seed of the workload seed: enough
# pooled work that the simulated figures barely move from seed to seed.
# skeap-burst-faults needs its full 4,096-tick arrival span in one pass.
SUBSEEDS = {"skeap-steady": 3, "seap-shallow": 4, "seap-deep": 3, "skeap-burst-faults": 1}
WORKLOADS = list(SUBSEEDS)
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "pass.exe")
BUILD_TIMEOUT_S = 840
PASS_TIMEOUT_S = 150

# Figures of the simulation and of the allocator that depend only on the
# seed: every pass of one run must reproduce them exactly.
DETERMINISTIC = [
    "digest", "ops", "lost", "completed", "rounds", "messages", "bits",
    "max_msg_bits", "max_congestion", "lat_p50", "lat_p999", "lat_hist",
    "makespan", "peak_live",
]

# Outside-timed layers of one untraced pass; with run.other_s they cover
# the measured wall time exactly once.
TIMED_LAYERS = [
    "workloads.gen_s", "core.inject_s", "core.process_s", "semantics.take_s",
    "semantics.check_s", "explore.digest_s", "workloads.run_open_s",
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("dune-project and lib/ not found: run from the root of a checkout")
    # Keep dune's temporary and cache files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "perfbench-tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/pass.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def run_pass(workload, seed, mode):
    try:
        r = subprocess.run([EXE, workload, str(seed), mode], capture_output=True,
                           text=True, timeout=PASS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("%s pass failed: %s" % (mode, e))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("%s pass exited with %d" % (mode, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(passes, traced, workload):
    """Every broken cross-check, as one line each."""
    errors = []
    for p in passes + traced:
        if not p["ok"]:
            errors.append("seed %d %s pass: online checker verdict failed" % (p["seed"], p["mode"]))
    first = {}
    for p in passes + traced:
        f = first.setdefault(p["seed"], p)
        for k in DETERMINISTIC:
            if p[k] != f[k]:
                errors.append("seed %d: %s differs between passes: %s vs %s" % (p["seed"], k, f[k], p[k]))
        if p["mode"] == "untraced" and p["minor_words"] != f["minor_words"]:
            errors.append("seed %d: minor words differ between untraced passes" % p["seed"])
    for p in passes:
        times = [p[k] for k in TIMED_LAYERS] + [p["run.other_s"]]
        if min(times) < -1e-9 or abs(sum(times) - p["wall_s"]) > 1e-6 * p["wall_s"]:
            errors.append("seed %d: per-layer times do not add up to the wall time" % p["seed"])
    for t in traced:
        # Repair traffic is reported in the trace but not charged to
        # Dpq_heap.result, so it is taken out before comparing.
        for k in ["rounds", "messages", "bits"]:
            spans = t["trace." + k] - t["dht.repair." + k]
            if spans != first[t["seed"]][k]:
                errors.append("seed %d: trace %s %d != untraced result sum %d" % (
                    t["seed"], k, spans, first[t["seed"]][k]))
        if workload.startswith("skeap") and t["kselect.selections"] != 0:
            errors.append("KSelect ran on a Skeap workload")
        if workload != "skeap-burst-faults" and (t["simrt.retransmits"] or t["dht.repair.sessions"]):
            errors.append("retransmits or repair on a fault-free workload")
    return errors


def ratio(a, b):
    return a / b if b else 0.0


def total(pooled, k):
    return sum(p[k] for p in pooled)


def latency(pooled, q):
    """Nearest-rank percentile over the pooled per-op latencies."""
    if not pooled[0]["lat_hist"]:  # open loop: one pass, percentiles from Runner
        return pooled[0]["lat_p50" if q == 0.5 else "lat_p999"]
    hist = collections.Counter()
    for p in pooled:
        for item in p["lat_hist"].split():
            lat, count = item.split(":")
            hist[int(lat)] += int(count)
    rank = max(1, math.ceil(q * sum(hist.values())))
    for lat in sorted(hist):
        rank -= hist[lat]
        if rank <= 0:
            return lat


def end_to_end(passes, pooled):
    done = total(pooled, "completed")
    return {
        "ops_per_s": (statistics.median(ratio(q["completed"], q["wall_s"]) for q in passes), "1/s"),
        "minor_words_per_op": (ratio(total(pooled, "minor_words"), done), "words/op"),
        "peak_heap_mb": (statistics.median(q["peak_heap_bytes"] for q in passes) / 2**20, "MiB"),
        "setup_s": (statistics.median(q["setup_s"] for q in passes), "s"),
        "sim_latency_p50": (latency(pooled, 0.5), "rounds"),
        "sim_latency_p999": (latency(pooled, 0.999), "rounds"),
        "sim_ops_per_round": (ratio(done, total(pooled, "makespan")), "ops/round"),
        "bits_per_op": (ratio(total(pooled, "bits"), done), "bits/op"),
        "max_msg_bits": (max(q["max_msg_bits"] for q in pooled), "bits"),
        "max_congestion": (max(q["max_congestion"] for q in pooled), "msgs"),
    }


def per_layer(pooled, traced):
    done = total(pooled, "completed")
    batches = total(pooled, "core.batches")
    m = {k: (total(pooled, k), "s") for k in TIMED_LAYERS + ["run.other_s"]}
    m.update({
        "core.process_words": (ratio(total(pooled, "core.process_words"), done), "words/op"),
        "core.process_ms_p50": (statistics.median(q["core.process_ms_p50"] for q in pooled), "ms"),
        "core.process_ms_p99": (max(q["core.process_ms_p99"] for q in pooled), "ms"),
        "core.batches": (batches, "count"),
        "core.ops_per_batch": (ratio(total(pooled, "ops"), batches), "ops"),
        "semantics.check_words": (ratio(total(pooled, "semantics.check_words"), done), "words/op"),
        "semantics.peak_live": (max(q["peak_live"] for q in pooled), "elements"),
    })
    for k in ["aggtree.up", "aggtree.down", "aggtree.broadcast", "dht", "kselect.sort"]:
        m[k + ".rounds"] = (total(traced, k + ".rounds"), "rounds")
        m[k + ".messages"] = (total(traced, k + ".messages"), "msgs")
        m[k + ".bits"] = (total(traced, k + ".bits"), "bits")
    maxima = {"dht.max_congestion": "msgs", "kselect.sort.max_msg_bits": "bits",
              "simrt.max_congestion": "msgs"}
    for k, unit in maxima.items():
        m[k] = (max(q[k] for q in traced), unit)
    counts = {
        "dht.puts": "count", "dht.gets": "count", "kselect.selections": "count",
        "kselect.messages": "msgs", "kselect.phase1_iters": "count",
        "kselect.phase2_iters": "count", "kselect.hint_hits": "count",
        "skeap.anchor.batches": "count", "gossip.exchanges": "count",
        "gossip.messages": "msgs", "gossip.batch_ctl.window_changes": "count",
        "simrt.messages": "msgs", "simrt.retransmits": "msgs",
        "simrt.faults_injected": "count", "dht.repair.sessions": "count",
        "dht.repair.keys_pulled": "count", "dht.repair.messages": "msgs",
        "dht.repair.bits": "bits",
    }
    for k, unit in counts.items():
        m[k] = (total(traced, k), unit)
    m["skeap.anchor.ops_per_batch"] = (
        ratio(total(traced, "skeap.anchor.ops"), total(traced, "skeap.anchor.batches")), "ops")
    msgs = total(traced, "simrt.messages")
    m["simrt.retransmit_amplification"] = (
        ratio(msgs + total(traced, "simrt.retransmits"), msgs), "x")
    m["obs.trace_overhead"] = (ratio(total(traced, "wall_s"), total(pooled, "wall_s")), "x")
    return m


def run_workload(workload, seed, seconds, trace):
    """Run passes of one workload, print its report; return the JSON parts.

    Pass i runs sub-seed i mod K of the workload seed, K = SUBSEEDS[workload].
    Simulated figures pool the first K passes, one per sub-seed; host
    timings are medians over every pass.  A traced run makes exactly K
    untraced/traced pairs; an untraced run goes on cycling the sub-seeds
    while the next pass would still end within --seconds, and the repeats
    must reproduce their sub-seed's figures exactly."""
    k = SUBSEEDS[workload]
    subseeds = [seed * 16 + i for i in range(k)]
    passes, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        sub = subseeds[len(passes) % k]
        passes.append(run_pass(workload, sub, "untraced"))
        if trace:
            traced.append(run_pass(workload, sub, "traced"))
        took = time.monotonic() - t0
        if len(passes) >= k and (trace or time.monotonic() - start + took > seconds):
            break

    pooled = passes[:k]
    errors = check(passes, traced, workload)
    runs = passes + traced
    attempted = sum(q["ops"] for q in runs)
    failed = attempted if errors else sum(q["ops"] - q["completed"] for q in runs)
    e2e = end_to_end(passes, pooled)
    layers = per_layer(pooled, traced) if trace else {}

    samples = total(pooled, "completed")
    print("workload %s  seed %d  sub-seeds %s  %d untraced + %d traced passes" % (
        workload, seed, subseeds, len(passes), len(traced)))
    print("  ops %d  completed %d  lost to killed nodes %d  latency samples %d (%d beyond p999)" % (
        total(pooled, "ops"), total(pooled, "completed"), total(pooled, "lost"), samples,
        samples // 1000))
    if "arrival_ticks" in pooled[0]:
        print("  makespan / arrival span  %.4f" % (
            total(pooled, "makespan") / total(pooled, "arrival_ticks")))
    for name, (value, unit) in list(e2e.items()) + list(layers.items()):
        print("  %-34s %.6g %s" % (name, value, unit))
    for e in errors:
        print("  CHECK FAILED: " + e)
    return errors, attempted, failed, (layers if trace else e2e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    errors, attempted, failed, metrics = [], 0, 0, {}
    for name in names:
        e, a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        errors += e
        attempted += a
        failed += f
        prefix = name + "/" if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if errors:
        sys.exit(1)


if __name__ == "__main__":
    main()
