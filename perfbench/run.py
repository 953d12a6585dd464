"""matgauss benchmark: one seeded workload, checked exactly, metrics as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kloosterman-sl --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (perfbench/worker.py), so no
library cache carries work between workloads or runs.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are measured untraced; with --trace 1
one round runs untraced and then traced, and the per-layer metrics come from
its spans.  The last line of standard output is the result object; the line
before it is a report with provenance, per-cell latencies and the failures.
Exits 2, printing no result, if the checkout has no matgauss sources or a
worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 21
# the whole run, every worker included, must end within 180 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile).  With 10 samples or fewer there is no such
    percentile, and the maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Metrics over the whole rounds of a run; each round is the mix once.

    A round takes a second or a few and draws fresh inputs, so a run holds
    about ten rounds or more and each cell is measured many times.
    Throughput is taken per round and its median across rounds reported;
    the median and the tail latency are taken over all requests of the run.
    The slowest cell of each mix has well over ten samples in a run (two
    requests per round, or one in the short rounds of oracle-check), so the
    tail falls inside that cell's samples whatever the number of rounds.
    """
    rounds = run["rounds"]
    per_round_ms = [[ns / 1e6 for ns in r["latency_ns"]] for r in rounds]
    all_ms = [ms for r in per_round_ms for ms in r]
    tail_ms, percentile = tail(all_ms)
    metrics = {
        "throughput_rps": statistics.median(len(r) / (sum(r) / 1e3) for r in per_round_ms),
        "latency_p50_ms": statistics.median(all_ms),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(s["timing"]["setup_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    detail = {
        "rounds": len(rounds),
        "requests_per_round": len(per_round_ms[0]),
        "latency_samples": len(all_ms),
        "tail_percentile": percentile,
        "setup_samples_s": [s["timing"]["setup_s"] for s in setups],
    }
    return metrics, detail


def cell_latencies(rounds: list[dict]) -> dict:
    """Median latency in ms of each (cell, case) over all rounds."""
    by_cell: dict[str, list[float]] = {}
    for r in rounds:
        for cell, case, ns in zip(r["cells"], r["cases"], r["latency_ns"]):
            by_cell.setdefault(f"{cell} {case}", []).append(ns / 1e6)
    return {k: statistics.median(v) for k, v in sorted(by_cell.items())}


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": args.seed,
        "traced": bool(args.trace),
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matgauss benchmark")
    parser.add_argument("--workload", choices=mix.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny mix, for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "matgauss" / "__init__.py").is_file():
        print(f"error: no matgauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        if args.trace:
            res = worker("trace", args, deadline)
            values = res["per_layer"]
            wanted = spec["per_layer"]
            detail = {"spans_file": res["spans_file"]}
        else:
            setups = [worker("setup", args, deadline) for _ in range(SETUP_REPEATS)]
            res = worker("run", args, deadline)
            values, detail = end_to_end(res, setups)
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["latency_ns"]) for r in res["rounds"])
    failures = [f for r in res["rounds"] for f in r["failures"]]
    report = {
        "workload": args.workload,
        "provenance": provenance(args),
        "caches_start_empty": res["caches_start_empty"],
        "threads": res["threads"],
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "peak_rss_mb": res["peak_rss_mb"],
        "rings": res["rings"],
        # traced: from the untraced pass of the round only
        "cells_ms": cell_latencies(res["rounds"][:1] if args.trace else res["rounds"]),
        **detail,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
