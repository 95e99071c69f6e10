#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and measures one workload.

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from the root of a checkout. The program is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
The last line of standard output is the result:

    {"correct": ..., "attempted": <cells run>, "failed": <cells failed>,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. A cell is one scheme at one cache size, and it fails when any of
its runs fails: the simulator returns an error, its reconciliation
identities break, a re-run of it gives other simulated statistics, or its
digest differs from the one recorded for that workload and seed in
perfbench/digests.json (not compared with --record-digests, which stores
the digests of a run whose other checks pass). The line before the result is
the run's provenance record (git sha, host, build type, host-speed probe).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("fig9_sweep", "enroute_drift_mapped", "hier_overload")
DEFAULT_SEED = 20030305

END_TO_END = {
    "setup_s": "s",
    "replay_rps": "req/s",
    "peak_rss_mb": "MiB",
    "challenger_byte_hit_vs_lru": "ratio",
    "challenger_latency_vs_lru": "ratio",
}

SPANS = (
    "setup", "trace.generate", "trace.map_open", "topology.network_build",
    "sim.runner_create", "cell", "sim.configure", "sim.warmup",
    "sim.measure", "layers", "layer.trace.write", "layer.trace.map_open",
    "layer.trace.scan", "layer.cache.lru", "layer.cache.ncl",
    "layer.cache.dcache", "layer.cache.freq", "layer.core.dp",
    "layer.sim.event",
)

PER_LAYER = {
    "trace.generate_s": "s",
    "trace.write_mb_per_s": "MB/s",
    "trace.map_open_s": "s",
    "trace.scan_rps": "req/s",
    "topology.network_build_s": "s",
    "sim.configure_s": "s",
    "sim.warmup_rps": "req/s",
    "sim.measure_rps": "req/s",
    "sim.cell_s_p50": "s",
    "sim.cell_s_max": "s",
    "cache.lru.ns_per_op": "ns",
    "cache.lru.hit_ratio": "ratio",
    "cache.ncl.ns_per_op": "ns",
    "cache.ncl.evictions_per_insert": "ratio",
    "cache.dcache.ns_per_op": "ns",
    "cache.dcache.hit_ratio": "ratio",
    "cache.freq.ns_per_op": "ns",
    "core.dp.ns_per_solve": "ns",
    "sim.event.ops_per_s": "ops/s",
    "sim.event.shed_share.lru": "ratio",
    "sim.event.shed_share.coordinated": "ratio",
    "sim.event.queue_wait_s": "s",
    "cache.tier.ram_hit_share": "ratio",
    "cache.sibling.hit_share": "ratio",
    **{f"schemes.{s}.{m}": unit
       for s in ("lru", "modulo", "lncr", "coordinated")
       for m, unit in (("rps", "req/s"), ("byte_hit", "ratio"),
                       ("insertions_per_request", "ratio"))},
    **{f"self_s.{name}": "s" for name in SPANS},
    "tracing.overhead_share": "ratio",
}

# The first run in a checkout builds the program and may take 900 s;
# every other run must end within 180 s.
BUILD_RUN_LIMIT_S = 880
RUN_LIMIT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    """Configures and builds perfbench; returns (binary, built_now)."""
    out = build_dir()
    binary = out / "perfbench"
    built_now = not binary.exists()
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return binary, built_now


def source_digest():
    """sha256 over the simulator's sources: identifies the code measured
    when the checkout is not a git repository."""
    src = Path("src")
    if not src.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not Path(".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_digests():
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


def run_workload(binary, workload, seed, seconds, trace, deadline):
    """Runs perfbench on one workload; returns its parsed report."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={build_dir() / 'work'}"]
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {done.returncode}")
    return json.loads(lines[-1])


def check_digests(report, recorded):
    """Fails every cell whose digest differs from the recorded one; returns
    (newly failed cells, whether a record existed)."""
    failed = 0
    expected = recorded.get(report["workload"], {}).get(str(report["seed"]))
    if expected is None:
        return 0, False
    for cell in report["cells"]:
        want = expected.get(cell["label"])
        if want is not None and cell["digest"] != want:
            failed += cell["failures"] == 0
            report["errors"].append(
                f"{cell['label']}: digest {cell['digest']} != recorded {want}")
    return failed, True


def record_digests(report):
    recorded = load_digests()
    recorded.setdefault(report["workload"], {})[str(report["seed"])] = {
        cell["label"]: cell["digest"] for cell in report["cells"]}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def measure(binary, workload, seed, seconds, trace, deadline, record):
    """One workload in its own process: (result, provenance record)."""
    report = run_workload(binary, workload, seed, seconds, trace, deadline)
    attempted, failed = report["attempted"], report["failed"]
    digests_checked = False
    if not record:
        digest_failed, digests_checked = check_digests(report, load_digests())
        failed += digest_failed
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = report["metrics"].get(name)
        if value is None or not math.isfinite(value):
            report["errors"].append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and len(metrics) == len(units) and attempted > 0
    if record and correct:
        record_digests(report)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": git_sha(),
        "source_sha256": source_digest(), "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": report["build_type"],
        "probe": report["probe"],
        "digests_checked": digests_checked,
        "cells": report["cells"], "setup_seconds": report["setup_seconds"],
        "errors": report["errors"],
        "spans_file": report["spans_file"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, provenance


def print_human(workload, result):
    log(f"== {workload}: failed cells {result['failed']} / "
        f"attempted {result['attempted']}")
    for name, m in result["metrics"].items():
        log(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's cell digests as the reference "
                             "for (workload, seed), without comparing them to "
                             "the stored ones, when every other check passed")
    args = parser.parse_args()

    start = time.monotonic()
    try:
        binary, built_now = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench build failed: {err}")
        return 2
    limit = BUILD_RUN_LIMIT_S if built_now else RUN_LIMIT_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = start + limit * len(workloads)

    results = {}
    try:
        for workload in workloads:
            result, provenance = measure(binary, workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         deadline, args.record_digests)
            for error in provenance["errors"]:
                log(f"  check failed: {error}")
            print("perfbench-record: " + json.dumps(provenance), flush=True)
            with open(build_dir() / "runs.jsonl", "a") as runs:
                runs.write(json.dumps({"record": provenance,
                                       "result": result}) + "\n")
            print_human(workload, result)
            results[workload] = result
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"perfbench run failed: {err}")
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
        log(f"all workloads: failed cells {final['failed']} / "
            f"attempted {final['attempted']}")
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
