"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload and seed it runs ``perfbench/run.py`` one after another
and records, per end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, plus the median latency of each
(cell, case) over all runs.  Then one traced run per workload, on the first
seed, records the latency of every cell of the traced round, the cells only
that round runs included (``traced_cells_ms``).  Seeds are "a-b" or
comma-separated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(mix.WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)

    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        cells: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            report, result = run_once(workload, seed, spec["run_seconds"])
            doc.setdefault("provenance", report["provenance"])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            for cell, ms in report["cells_ms"].items():
                cells.setdefault(cell, []).append(ms)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        doc["workloads"][workload] = {
            "failed": failed,
            "metrics": {k: summarise(v) for k, v in metrics.items()},
            "cells_ms": {k: statistics.median(v) for k, v in sorted(cells.items())},
        }
    for workload in args.workloads.split(","):
        report, _result = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
        doc["workloads"][workload]["traced_cells_ms"] = report["cells_ms"]
    doc["provenance"].pop("seed", None)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
