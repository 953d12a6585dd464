"""The benchmark's own tests: result shape, seeding and the correctness gate.

Run from the root of the repository: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mix  # noqa: E402
from matgauss import AdditiveCharacter, MultiplicativeCharacter, random_invertible  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_workload(name: str, seed: int = 5) -> workloads.Workload:
    fields, tables, _rings, _empty, _timing = worker.setup(mix.fields(name, smoke=True))
    return workloads.Workload(name, seed, fields, tables, smoke=True)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(mix.WORKLOADS)


@pytest.mark.parametrize("workload", mix.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name

    report = json.loads(report_line)
    assert report["error_rate"] == 0
    assert all(report["caches_start_empty"].values())
    assert report["threads"] == 1
    prov = report["provenance"]
    assert {"git_commit", "src_sha256", "python", "nproc", "cpu_model", "seed", "traced"} <= set(prov)
    assert prov["seed"] == 3 and prov["traced"] is bool(trace)
    assert all("row_entries" in ring for ring in report["rings"])


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("kloosterman-sl", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", mix.WORKLOADS)
def test_seed_draws_inputs_but_not_the_mix(workload):
    first = smoke_workload(workload, seed=5).next_round()
    again = smoke_workload(workload, seed=5).next_round()
    other = smoke_workload(workload, seed=6).next_round()

    def key(req):
        return (req.cell, req.case, req.U, req.lam, req.chi, req.beta, [key(p) for p in req.parts])

    assert [key(r) for r in first] == [key(r) for r in again]
    assert [key(r) for r in first] != [key(r) for r in other]
    assert sorted((r.cell, r.case) for r in first) == sorted((r.cell, r.case) for r in other)


@pytest.mark.parametrize("workload", mix.WORKLOADS)
def test_traced_round_appends_the_slow_cells(workload):
    plain = mix.blocks(workload)
    traced = mix.blocks(workload, traced=True)
    assert traced[:len(plain)] == plain and len(traced) > len(plain)
    assert set(mix.fields(workload)) < set(mix.fields(workload, traced=True))


def test_small_gl_fields_use_every_full_order_character_whatever_the_seed():
    def indices(seed):
        wl = smoke_workload("gauss-gl", seed)
        return [wl._gl_pair((31, 1), 2)[0].index for _ in range(8)]

    full_order = {j for j in range(1, 30) if math.gcd(j, 30) == 1}
    assert set(indices(5)) == set(indices(6)) == full_order
    assert indices(5) != indices(6)


@pytest.mark.parametrize("workload", mix.WORKLOADS)
def test_corrupted_value_counts_as_a_failure(workload):
    wl = smoke_workload(workload)
    reqs = wl.next_round()
    workloads.reset_caches(wl.fields.values())
    checker = workloads.Checker()
    for req in reqs:
        value = workloads.evaluate(req)
        assert checker(req, value) is None, req.cell
        assert checker(req, workloads.corrupt(value)) is not None, req.cell

    bad = reqs[len(reqs) // 2]

    def evaluate_one_wrong(req):
        value = workloads.evaluate(req)
        return workloads.corrupt(value) if req is bad else value

    workloads.reset_caches(wl.fields.values())
    record = worker.run_round(reqs, evaluate_one_wrong, checker)
    assert [f["request"] for f in record["failures"]] == [reqs.index(bad)]


def test_norm_check_catches_what_the_magnitude_check_cannot():
    # |value| = 243^8: a unit error is far below the float tolerance
    fields, tables, _rings, _empty, _timing = worker.setup([(3, 5)])
    f = fields[(3, 5)]
    chi = MultiplicativeCharacter(tables[(3, 5)], 1)
    lam = AdditiveCharacter(f.element(1))
    U = random_invertible(f, 4, random.Random(0))
    req = workloads.Request("gl", "gl q=243 n=4", "full-rank", f, 4, U, lam, chi)
    checker = workloads.Checker()
    value = workloads.evaluate(req)
    assert checker(req, value) is None
    assert checker(req, workloads.corrupt(value)) == "value * conj(value) != q^(2C+n)"
