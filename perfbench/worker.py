"""One benchmark process: set up one workload, run it, print one JSON object.

run.py starts this script in a fresh interpreter for every measurement, so
no library cache carries work from one workload or run into another.

Modes:
  setup  import matgauss and build the workload's fields, mult tables and
         value rings, timed; nothing else.
  run    set up, then run whole rounds of the workload untraced until the
         next round would end past --seconds of request time (at least one).
  trace  set up, run one round with the traced-only cells of mix.py
         untraced and then the same round traced, then the per-layer
         probes: field micro-operations and the CLI replay.

Usage: python3 perfbench/worker.py --mode run --workload gauss-gl --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("finite_field", "characters", "cyclotomic", "matrix_fq", "gauss_sums")


def setup(field_list):
    """Import matgauss from this checkout and build what the workload uses."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import matgauss
    t1 = time.perf_counter()
    if not Path(matgauss.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported matgauss from {matgauss.__file__}, not from this checkout")
    empty = caches_empty()
    t2 = time.perf_counter()
    fields, tables = {}, {}
    for p, e in field_list:
        fields[(p, e)] = f = matgauss.make_field(p, e)
        tables[(p, e)] = matgauss.build_mult_table(f)
    t3 = time.perf_counter()
    rings = {pe: matgauss.value_ring(f) for pe, f in fields.items()}
    t4 = time.perf_counter()
    timing = {"setup_s": (t1 - t0) + (t4 - t2), "import_s": t1 - t0,
              "fields_s": t3 - t2, "rings_s": t4 - t3}
    return fields, tables, rings, empty, timing


def caches_empty() -> dict:
    """Whether each module-level cache a workload fills is still empty.

    Field lookup tables live on Field objects, which only make_field's cache
    holds, so they are empty whenever that cache is.  None marks a cache the
    library no longer has.
    """
    from matgauss import characters, cyclotomic, finite_field, matrix_fq
    out = {}
    for name, fn in (("make_field", getattr(finite_field, "_make_field_cached", None)),
                     ("get_ring", getattr(cyclotomic, "get_ring", None)),
                     ("kloosterman_levels", getattr(characters, "_kloosterman_levels", None))):
        info = getattr(fn, "cache_info", None)
        out[name] = None if info is None else info().currsize == 0
    gl = getattr(matrix_fq, "_GL_CACHE", None)
    out["gl_members"] = None if gl is None else not gl
    out["field_luts"] = out["make_field"]
    return out


def member_cache() -> dict:
    from matgauss import matrix_fq
    return getattr(matrix_fq, "_GL_CACHE", {})


def run_round(reqs, evaluate, checker):
    """Time each request closed-loop; check it after the clock stops."""
    latency, failures = [], []
    for i, req in enumerate(reqs):
        start = time.perf_counter_ns()
        try:
            value = evaluate(req)
        except Exception as exc:  # a request that raises is a failed request
            latency.append(time.perf_counter_ns() - start)
            failures.append({"request": i, "cell": req.cell, "why": f"{type(exc).__name__}: {exc}"})
            continue
        latency.append(time.perf_counter_ns() - start)
        why = checker(req, value)
        if why is not None:
            failures.append({"request": i, "cell": req.cell, "why": why})
    return round_record(reqs, latency, failures)


def run_traced_round(reqs, tracer, checker):
    """Each request as its sequence of public calls, one span per call.

    The decomposed closed form must equal the direct call's value, and the
    result passes the same checks as in an untraced round.  Returns the round
    and, per request, whether its group's member list was cached before and
    after the request (None for requests that do not enumerate).
    """
    from workloads import closed_forms, evaluate_closed, evaluate_traced

    cache = member_cache()
    latency, failures, members = [], [], []
    for i, req in enumerate(reqs):
        tracer.request = i
        key = (req.field, req.n)
        before = key in cache if req.kind == "oracle" else None
        try:
            with tracer.span("request") as root:
                value = evaluate_traced(req, tracer)
        except Exception as exc:  # a request that raises is a failed request
            latency.append(root[5] - root[4])
            failures.append({"request": i, "cell": req.cell, "why": f"{type(exc).__name__}: {exc}"})
            members.append((before, None))
            continue
        latency.append(root[5] - root[4])
        members.append((before, key in cache if before is not None else None))
        why = None
        if closed_forms(value) != evaluate_closed(req):
            why = "decomposed closed form differs from the direct call"
        why = why or checker(req, value)
        if why is not None:
            failures.append({"request": i, "cell": req.cell, "why": why})
    return round_record(reqs, latency, failures), members


def round_record(reqs, latency, failures) -> dict:
    return {"cells": [r.cell for r in reqs], "cases": [r.case for r in reqs],
            "latency_ns": latency, "failures": failures}


def field_op_ns(fields, rng, operands=128, repeats=5) -> dict:
    """Median ns per mul_enc, inv_enc and trace_enc call over the fields.

    Per field: the median of ``repeats`` timed loops over seeded nonzero
    operands, loop overhead included.  Then the median across fields.
    """
    per_op = {"mul": [], "inv": [], "trace": []}
    for f in fields:
        xs = [rng.randrange(1, f.q) for _ in range(operands)]
        pairs = list(zip(xs, [rng.randrange(1, f.q) for _ in range(operands)]))
        mul, inv, trace = f.mul_enc, f.inv_enc, f.trace_enc

        def run_mul():
            for a, b in pairs:
                mul(a, b)

        def run_inv():
            for a in xs:
                inv(a)

        def run_trace():
            for a in xs:
                trace(a)

        for op, fn in (("mul", run_mul), ("inv", run_inv), ("trace", run_trace)):
            samples = []
            for _ in range(repeats):
                start = time.perf_counter_ns()
                fn()
                samples.append((time.perf_counter_ns() - start) / operands)
            per_op[op].append(statistics.median(samples))
    return {op: statistics.median(v) for op, v in per_op.items()}


def cli_argv(req) -> list[str]:
    f = req.field
    base = ["--p", str(f.p), "--e", str(f.e), "--n", str(req.n)]
    if req.kind == "oracle-count":
        return ["count-trace", *base, "--beta", str(req.beta.enc), "--check"]
    matrix = json.dumps(req.U.to_int_rows())
    if req.kind in ("sl", "oracle-sl"):
        argv = ["eval-sl", *base, "--matrix", matrix]
    else:
        argv = ["eval-gl", *base, "--matrix", matrix, "--chi", str(req.chi.index)]
    argv += ["--lambda", str(req.lam.a.enc)]
    if req.kind.startswith("oracle"):
        argv.append("--check")
    return argv


def cli_overhead_ms(reqs, workload, out_path, repeats=3) -> float:
    """Median of cli.main(...) time minus the library calls it wraps.

    Replays the requests of one fixed block back to back with warm caches.
    """
    from matgauss import cli
    from workloads import evaluate

    pe = mix.CLI_FIELD[workload]
    diffs = []
    for req in (leaf for r in reqs for leaf in (r.parts or (r,))):
        if (req.field.p, req.field.e) != pe:
            continue
        argv = cli_argv(req) + ["--output", str(out_path)]
        for _ in range(repeats):
            start = time.perf_counter_ns()
            evaluate(req)
            if req.U is not None:
                req.U.rank()
            lib = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            code = cli.main(argv)
            took = time.perf_counter_ns() - start
            if code != 0:
                raise RuntimeError(f"matgauss {' '.join(argv)} exited with {code}")
            diffs.append((took - lib) / 1e6)
    return statistics.median(diffs)


def per_layer(reqs, tracer, untraced, traced, members, ops, cli_ms, timing, rings) -> dict:
    from matgauss import gl_order
    from spans import layer

    own = tracer.self_ns()
    durations: dict[str, list[int]] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    for (_sid, _parent, _req, name, start, end), s in zip(tracer.spans, own):
        durations.setdefault(name, []).append(end - start)
        if name != "request":
            self_ns[layer(name)] += s

    def total_s(*names):
        return sum(sum(durations.get(n, ())) for n in names) / 1e9

    def median_us(name):
        got = durations.get(name)
        return statistics.median(got) / 1e3 if got else 0.0

    kl_calls = len(durations.get("characters.kloosterman", ()))
    leaves = [leaf for r in reqs for leaf in (r.parts or (r,))]
    dp_reqs = [r for r in leaves if r.kind in ("sl", "oracle-sl") and r.U.rank() == r.n]
    dp_hits = sum(r.dp_hit for r in dp_reqs)

    # enumeration: a request whose group was not cached enumerates it once
    # into the cache, or, over the cache cap, streams it once per check
    cache = member_cache()
    enumerate_ns = oracle_ns = oracle_members = 0
    candidates = members_made = hits = oracle_reqs = 0
    spans_of = {}
    for (_sid, _parent, req_id, name, start, end) in tracer.spans:
        spans_of.setdefault(req_id, []).append((name, end - start))
    for i, (req, (before, after)) in enumerate(zip(reqs, members)):
        if before is None:
            continue
        oracle_reqs += 1
        group = gl_order(req.field, req.n)
        if before:
            hits += 1
        else:
            passes = 1 if after else len(req.parts)
            candidates += passes * req.field.q ** (req.n * req.n)
            cached = cache.get((req.field, req.n))
            members_made += len(cached) if after and cached is not None else passes * group
        for name, ns in spans_of.get(i, ()):
            if name == "matrix_fq.gl_members" and not before and after:
                enumerate_ns += ns
            if name in ("gauss_sums.gl_gauss_bruteforce", "gauss_sums.sl_gauss_bruteforce") and after:
                oracle_ns += ns
                oracle_members += group
    request_ns = sum(durations.get("request", ())) or 1
    untraced_ns, traced_ns = sum(untraced["latency_ns"]), sum(traced["latency_ns"])
    out = {
        "finite_field.mul_ns": ops["mul"],
        "finite_field.inv_ns": ops["inv"],
        "finite_field.trace_ns": ops["trace"],
        "finite_field.setup_ms": timing["fields_s"] * 1e3,
        "characters.kloosterman_s": total_s("characters.kloosterman"),
        "characters.kloosterman_calls": kl_calls,
        "characters.kloosterman_hit_share": dp_hits / kl_calls if kl_calls else 0.0,
        "characters.dp_pairs": sum((r.n - 1) * (r.field.q - 1) ** 2 for r in dp_reqs if not r.dp_hit),
        "characters.gauss_sum_s": total_s("characters.classical_gauss_sum"),
        "cyclotomic.mul_s": total_s("cyclotomic.mul", "cyclotomic.pow"),
        "cyclotomic.mul_calls": len(durations.get("cyclotomic.mul", ())) + len(durations.get("cyclotomic.pow", ())),
        "cyclotomic.degree_max": max(r.degree for r in rings.values()),
        "cyclotomic.row_entries": sum((r.m - r.degree) * r.degree for r in rings.values()),
        "cyclotomic.ring_setup_ms": timing["rings_s"] * 1e3,
        "matrix_fq.enumerate_s": enumerate_ns / 1e9,
        "matrix_fq.candidates": candidates,
        "matrix_fq.members": members_made,
        "matrix_fq.member_hit_share": hits / oracle_reqs if oracle_reqs else 0.0,
        "matrix_fq.rank_us": median_us("matrix_fq.rank"),
        "matrix_fq.det_us": median_us("matrix_fq.det"),
        "gauss_sums.oracle_s": oracle_ns / 1e9,
        "gauss_sums.members_per_s": oracle_members / (oracle_ns / 1e9) if oracle_ns else 0.0,
        "gauss_sums.count_trace_s": total_s("gauss_sums.count_trace_bruteforce"),
        "cli.overhead_ms": cli_ms,
        "trace.overhead_share": (traced_ns - untraced_ns) / untraced_ns,
    }
    for name in LAYERS:
        out[f"{name}.self_share"] = self_ns[name] / request_ns
    return out


def ring_sizes(rings) -> list[dict]:
    """Reduction-row table size (m - d) * d of every value ring."""
    return [{"q": pe[0] ** pe[1], "m": r.m, "degree": r.degree,
             "row_entries": (r.m - r.degree) * r.degree} for pe, r in rings.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=mix.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny mix, for the benchmark's own test")
    args = parser.parse_args(argv)

    traced = args.mode == "trace"
    fields, tables, rings, empty, timing = setup(mix.fields(args.workload, args.smoke, traced))
    doc = {"mode": args.mode, "timing": timing}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    import workloads
    from spans import Tracer

    wl = workloads.Workload(args.workload, args.seed, fields, tables, args.smoke)
    checker = workloads.Checker()
    doc["caches_start_empty"] = empty
    doc["rings"] = ring_sizes(rings)
    if args.mode == "run":
        rounds = []
        busy = 0.0
        while True:
            reqs = wl.next_round()
            workloads.reset_caches(fields.values())
            rounds.append(run_round(reqs, workloads.evaluate, checker))
            took = sum(rounds[-1]["latency_ns"]) / 1e9
            busy += took
            if busy + took > args.seconds:
                break
        doc["rounds"] = rounds
    else:
        reqs = wl.next_round(traced=True)
        workloads.reset_caches(fields.values())
        untraced = run_round(reqs, workloads.evaluate, checker)
        workloads.reset_caches(fields.values())
        tracer = Tracer()
        traced, members = run_traced_round(reqs, tracer, checker)
        ops = field_op_ns(fields.values(), wl.rng)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        cli_ms = cli_overhead_ms(reqs, args.workload, out_dir / f"cli-{args.workload}.json")
        doc["rounds"] = [untraced, traced]
        doc["per_layer"] = per_layer(reqs, tracer, untraced, traced, members, ops, cli_ms, timing, rings)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "requests": traced["cells"], "spans": tracer.to_json()}))
        doc["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    doc["threads"] = threading.active_count()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
