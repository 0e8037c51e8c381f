#!/usr/bin/env python3
"""Benchmark entry point: builds the simulator from ../src, runs one workload,
and prints the metrics as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).  --trace 0 reports the end-to-end metrics;
--trace 1 runs one round untraced and one round in the traced binary, checks
that both simulate the same thing, and reports the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig2_arrivals", "fig4_failures", "torus_failures", "srlg_recovery")

# The one known fault a workload trips on fixed inputs: counted as a failed
# operation, not as a wrong result.
KNOWN_FAULTS = {
    ("srlg_recovery", "segment"): "invariant: segment backup not spliceable",
}

# Layers each workload's mechanism must call; zero calls in the traced run
# means a wrapper no longer sees its function (renamed, inlined, removed).
COMMON_LAYERS = (
    "net.request_connection", "net.terminate_connection", "net.route.primary",
    "net.route.backup", "net.backup.update", "sim.event_queue", "sim.recorder",
    "core.analyze", "matrix.gth", "topology.generate", "net.network_ctor",
)
FAILURE_LAYERS = ("net.fail_link", "net.repair_link")
REQUIRED_LAYERS = {
    "fig2_arrivals": COMMON_LAYERS,
    "fig4_failures": COMMON_LAYERS + FAILURE_LAYERS,
    "torus_failures": COMMON_LAYERS + FAILURE_LAYERS,
    "srlg_recovery": COMMON_LAYERS + FAILURE_LAYERS
    + ("net.recovery", "sim.recovery.dispatch"),
}
REQUIRED_COUNTS = {
    "fig2_arrivals": (),
    "fig4_failures": ("net.backup.reservation.calls",),
    "torus_failures": ("net.backup.reservation.calls",),
    "srlg_recovery": ("net.backup.reservation.calls",),
}

# Per-layer metrics taken from the traced binary, with units.
TRACED_METRICS = (
    ("net.request_connection.calls", "count"),
    ("net.request_connection.self_s", "s"),
    ("net.request_connection.p99_us", "us"),
    ("net.terminate_connection.calls", "count"),
    ("net.terminate_connection.self_s", "s"),
    ("net.fail_link.calls", "count"),
    ("net.fail_link.self_s", "s"),
    ("net.fail_link.p99_us", "us"),
    ("net.repair_link.calls", "count"),
    ("net.repair_link.self_s", "s"),
    ("net.recovery.calls", "count"),
    ("net.recovery.self_s", "s"),
    ("net.route.primary.calls", "count"),
    ("net.route.primary.found", "count"),
    ("net.route.primary.self_s", "s"),
    ("net.route.backup.calls", "count"),
    ("net.route.backup.found", "count"),
    ("net.route.backup.self_s", "s"),
    ("net.backup.reservation.calls", "count"),
    ("net.backup.update.calls", "count"),
    ("net.backup.update.self_s", "s"),
    ("sim.event_queue.events", "count"),
    ("sim.event_queue.self_s", "s"),
    ("sim.recorder.calls", "count"),
    ("sim.recorder.self_s", "s"),
    ("sim.recovery.dispatch.calls", "count"),
    ("sim.recovery.dispatch.self_s", "s"),
    ("core.analyze.calls", "count"),
    ("core.analyze.self_s", "s"),
    ("matrix.gth.self_s", "s"),
    ("topology.generate.self_s", "s"),
    ("net.network_ctor.self_s", "s"),
)
# Exact work counts summed over the untraced run's cells.
CELL_COUNTS = (
    ("net.stats.requests", "requests"),
    ("net.stats.accepted", "accepted"),
    ("net.stats.backups_activated", "backups_activated"),
    ("net.stats.connections_dropped", "connections_dropped"),
    ("net.stats.quanta_adjustments", "quanta_adjustments"),
    ("sim.stats.churn_events", "churn_events"),
    ("sim.recovery.signals_sent", "signals_sent"),
    ("sim.recovery.retries", "retries"),
    ("sim.recovery.fallbacks", "fallbacks"),
)

RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds both drivers; returns the build directory."""
    if not os.path.isfile(os.path.join(root, "src", "net", "network.hpp")):
        log("no simulator sources under ./src; run from the root of a checkout")
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for cmd in steps:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                log("build failed: " + " ".join(cmd))
                sys.exit(1)
    return build_dir


def run_driver(binary, workload, seed, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + extra
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        sys.exit(1)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("driver failed (exit %d): %s" % (result.returncode, " ".join(cmd)))
        sys.exit(1)
    return json.loads(lines[-1])


def tally(workload, run):
    """(attempted, failed, unexpected failures) over a run's cells."""
    failed = 0
    unexpected = []
    for cell in run["cells"]:
        if cell["ok"]:
            continue
        failed += 1
        known = KNOWN_FAULTS.get((workload, cell["name"]))
        if known is not None and any(known in f for f in cell["failures"]):
            log("cell %s (round %d) failed on the known fault: %s"
                % (cell["name"], cell["round"], "; ".join(cell["failures"])))
        else:
            unexpected.append(cell)
            log("cell %s (round %d) FAILED: %s"
                % (cell["name"], cell["round"], "; ".join(cell["failures"])))
    return len(run["cells"]), failed, unexpected


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    cells = run["cells"]
    populate_s = sum(c["populate_s"] for c in cells)
    churn_s = sum(c["churn_s"] for c in cells)
    return {
        "setup_s": metric(run["setup_s"], "s"),
        "wall_s": metric(statistics.median(run["round_wall_s"]), "s"),
        "populate_conns_per_s": metric(
            sum(c["populate_attempts"] for c in cells) / populate_s, "1/s"),
        "churn_events_per_s": metric(
            sum(c["churn_events"] for c in cells) / churn_s, "1/s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }


def per_layer(workload, plain, traced):
    """Layer metrics plus the traced-run guards; exits on a broken wrapper."""
    layers = traced["layers"]
    missing = [name for name in REQUIRED_LAYERS[workload]
               if layers.get(name + ".calls", 0) == 0]
    missing += [name for name in REQUIRED_COUNTS[workload] if layers.get(name, 0) == 0]
    if missing:
        log("traced run saw no calls to: " + ", ".join(missing))
        sys.exit(1)
    out = {name: metric(layers[name], unit) for name, unit in TRACED_METRICS}
    for name, key in CELL_COUNTS:
        out[name] = metric(sum(c[key] for c in plain["cells"]), "count")
    out["trace.overhead_s"] = metric(
        sum(traced["round_wall_s"]) - sum(plain["round_wall_s"]), "s")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build(os.getcwd())
    plain_bin = os.path.join(build_dir, "perfbench")
    if args.trace == 0:
        run = run_driver(plain_bin, args.workload, args.seed,
                         ["--seconds", str(args.seconds)])
        attempted, failed, unexpected = tally(args.workload, run)
        correct = not unexpected
        metrics = end_to_end(run)
    else:
        plain = run_driver(plain_bin, args.workload, args.seed, ["--rounds", "1"])
        traced = run_driver(os.path.join(build_dir, "perfbench_traced"),
                            args.workload, args.seed, ["--rounds", "1"])
        a1, f1, u1 = tally(args.workload, plain)
        a2, f2, u2 = tally(args.workload, traced)
        attempted, failed = a1 + a2, f1 + f2
        same = [(c["name"], c["ok"], c["digest"]) for c in plain["cells"]] == \
               [(c["name"], c["ok"], c["digest"]) for c in traced["cells"]]
        if not same:
            log("traced run simulated different outputs than the untraced run")
        correct = not u1 and not u2 and same
        metrics = per_layer(args.workload, plain, traced)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
