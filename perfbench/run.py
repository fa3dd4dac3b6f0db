#!/usr/bin/env python3
"""Campaign benchmark for the xpipes lite library.

Builds the harness (perfbench/CMakeLists.txt, linked against the
repository's own `xpipes` library), runs one workload for a fixed
window, checks the campaign's exports and prints:

  * one JSON record line: host header, every metric with its median,
    quartiles and sample count, the correctness details;
  * as the last line, the result object
    {"correct", "attempted", "failed", "metrics"} — the end-to-end
    metrics with --trace 0, the per-layer metrics with --trace 1.

Usage (from the repository root):

  python3 perfbench/run.py --workload saturated_scan --seed 1 \\
      --seconds 10 --trace 0

perfbench/README.md describes the workloads and metrics.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lowload_scan", "saturated_scan", "tune_knee")
PINS = BENCH_DIR / "reference.json"
HARNESS_TIMEOUT_S = 170

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "topology.routes_s": "s",
    "topology.deadlock_s": "s",
    "compiler.build_s": "s",
    "synth.estimate_s": "s",
    "traffic.inject_s": "s",
    "traffic.collect_s": "s",
    "noc.drain_s": "s",
    "sim.leapt_frac": "ratio",
    "sim.walked_cycles": "cycles",
    "sim.ns_per_walked_cycle": "ns",
    "sim.ns_per_flit_hop": "ns",
    "link.flits": "count",
    "link.retx": "count",
    "link.useful_frac": "ratio",
    "link.credit_stalls": "count",
    "switchlib.flits_switched": "count",
    "switchlib.active_frac": "ratio",
    "ni.packets": "count",
    "ni.credit_stalls": "count",
    "traffic.txns_issued": "count",
    "ocp.txns_completed": "count",
    "noc.drain_cycles": "cycles",
    "noc.wedged_points": "count",
    "sweep.busy_frac": "ratio",
    "tune.evals": "count",
    "tune.probes_to_knee": "count",
    "tune.proposer_s": "s",
    "trace.overhead_s": "s",
}


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative to
    # the repository root).
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no xpipes sources next to perfbench/ "
                         "(expected CMakeLists.txt and src/ in " + str(ROOT) + ")")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(out), "-j", str(cpu_count())],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "campaign_bench"


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def host_header(out):
    cpu = "unknown"
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = {}
    for line in (read_text(out / "CMakeCache.txt") or "").splitlines():
        m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if f)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "cpu_model": cpu,
        "nproc": cpu_count(),
        "cgroup_cpu_max": (read_text("/sys/fs/cgroup/cpu.max") or "absent").strip(),
        "compiler": version,
        "compiler_path": compiler,
        "flags": flags,
        "build_type": build_type,
        "git_sha": sha,
    }


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def tail(values):
    """Highest percentile with at least ten samples beyond it (nearest
    rank); the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, n
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil
    return ordered[rank - 1], pct, n


def end_to_end(raw):
    # Percentiles are taken over the points of one repetition, then the
    # median over repetitions: a per-point median followed by a single
    # order statistic over points moved twice as much from seed to seed.
    reps = raw["point_s"]
    tails = [tail(rep) for rep in reps]
    _, tail_pct, tail_points = tails[0]
    stats = {
        "setup_s": summary(raw["setup_s"]),
        "wall_s": summary(raw["wall_s"]),
        "cpu_s": summary(raw["cpu_s"]),
        "point_s_p50": dict(summary(statistics.median(rep) for rep in reps),
                            points=len(reps[0])),
        "point_s_tail": dict(summary(value for value, _, _ in tails),
                             points=tail_points, percentile=tail_pct),
        "peak_rss_mb": summary([raw["peak_rss_mb"]]),
    }
    return stats


def per_layer(raw):
    layers, c, jobs = raw["layers"], raw["counters"], raw["jobs"]
    med = lambda key: statistics.median(layers[key])  # noqa: E731
    stage = {name: layers["stage." + name] for name in
             ("routes", "deadlock", "build", "inject", "drain", "collect",
              "estimate")}
    sim_s = [i + d for i, d in zip(stage["inject"], stage["drain"])]
    walked = c["cycles"] - c["leapt_cycles"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    busy = [b / (jobs * w) for b, w in zip(layers["traced_busy_s"],
                                           layers["traced_wall_s"])]
    samples = {
        "topology.routes_s": stage["routes"],
        "topology.deadlock_s": stage["deadlock"],
        "compiler.build_s": stage["build"],
        "synth.estimate_s": stage["estimate"],
        "traffic.inject_s": stage["inject"],
        "traffic.collect_s": stage["collect"],
        "noc.drain_s": stage["drain"],
        "sim.leapt_frac": [ratio(c["leapt_cycles"], c["cycles"])],
        "sim.walked_cycles": [walked],
        "sim.ns_per_walked_cycle": [1e9 * s / walked for s in sim_s],
        "sim.ns_per_flit_hop": [1e9 * ratio(s, c["link_flits"]) for s in sim_s],
        "link.flits": [c["link_flits"]],
        "link.retx": [c["link_retx"]],
        "link.useful_frac": [ratio(c["link_flits"] - c["link_retx"], c["link_flits"])],
        "link.credit_stalls": [c["switch_credit_stalls"]],
        "switchlib.flits_switched": [c["flits_switched"]],
        "switchlib.active_frac": [ratio(c["switch_active_cycles"], c["switch_cycles"])],
        "ni.packets": [c["ni_packets"]],
        "ni.credit_stalls": [c["ni_credit_stalls"]],
        "traffic.txns_issued": [c["txns_issued"]],
        "ocp.txns_completed": [c["txns_completed"]],
        "noc.drain_cycles": [c["drain_cycles"]],
        "noc.wedged_points": [c["wedged_points"]],
        "sweep.busy_frac": busy,
        "tune.evals": [c["points"] if raw["tune"] else 0],
        "tune.probes_to_knee": [c["probes_to_knee"]],
        "tune.proposer_s": layers["proposer_s"],
        "trace.overhead_s": [med("traced_wall_s") - statistics.median(raw["wall_s"])],
    }
    return {name: summary(values) for name, values in samples.items()}


def check_pins(raw, workload, seed, write):
    """Compares the export digest (and each row's) with the pinned
    reference for this workload and seed. Returns (status, bad_rows)."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    mine = {"export": raw["export_digest"], "rows": raw["row_digests"]}
    if write:
        pins.setdefault(workload, {})[str(seed)] = mine
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return "written", set()
    pin = pins.get(workload, {}).get(str(seed))
    if pin is None:
        return "unpinned", set()
    if pin == mine:
        return "match", set()
    rows = pin["rows"]
    bad = {i for i in range(len(raw["row_digests"]))
           if i >= len(rows) or rows[i] != raw["row_digests"][i]}
    if len(rows) != len(raw["row_digests"]) or not bad:
        bad = set(range(len(raw["row_digests"])))
    return "mismatch", bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="record this run's export digests as the reference")
    args = ap.parse_args()

    out = build_dir()
    try:
        harness = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")

    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(cpu_count()),
           "--spec-dir", str(BENCH_DIR / "workloads")]
    spans = None
    if args.trace:
        spans = out / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: harness timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["tune"] = args.workload == "tune_knee"

    pin_status, pin_bad = check_pins(raw, args.workload, args.seed, args.pin)
    attempted = raw["attempted"]
    failed = len(set(raw["failed_rows"]) | pin_bad)
    correct = (failed == 0 and raw["deterministic"] and raw["replica_match"]
               and pin_status != "mismatch")

    if args.trace:
        stats, units = per_layer(raw), PER_LAYER
    else:
        stats, units = end_to_end(raw), END_TO_END
    record = {
        "host": host_header(out),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": raw["jobs"],
        "metrics": {name: dict(stats[name], unit=units[name]) for name in units},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "deterministic": raw["deterministic"],
        "replica_match": raw["replica_match"],
        "pin": pin_status,
        "export_digest": raw["export_digest"],
        "errors": raw["errors"],
    }
    if args.trace:
        record["wedged_points"] = raw["wedged"]
        record["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
