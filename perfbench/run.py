#!/usr/bin/env python3
"""Benchmark of the matpress package: three workloads, one process each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generic2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A run writes the workload's measures as JSON documents, times a fresh-process
``import matpress`` plus ``cli.parse_input`` of those documents (set-up), then
repeats the workload's fixed call list on fresh measure objects for about
``--seconds`` (at least once), checks every call's result
(outside the timed region), and writes a per-call result record under
``perfbench/out/``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
additionally runs traced repetitions and reports the per-layer split.  The
end-to-end times are in reference-speed seconds (class ``Reference``), which
divide out the machine's current speed.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``failed`` counts calls that raised or failed their check, over all
repetitions, so fail_frac = failed / attempted.  The two ROADMAP item-1
reproducers are expected to fail until item 1 is fixed: they are counted in
``failed`` and reported, but only an unexpected failure, or repetitions that
disagree bit for bit, make ``correct`` false.

See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 11
# Seconds the reference kernel takes when the machine runs at full speed:
# the fastest of its timings on a 2-vCPU x86-64 VM at 2.1 GHz (Python 3.11,
# numpy 2.4) ranged from 0.0105 to 0.0111 s.  Any constant would do; this one
# makes reference-speed seconds read close to wall seconds on that VM.
REF_SECONDS = 0.011
# The same for set-up, whose reference is a fresh process importing numpy:
# its fastest time on that VM was 0.085 s.
IMPORT_REF_SECONDS = 0.09
CHILD_TIMEOUT = 170  # seconds, per workload process under --workload all

# name, unit, direction (the order of the report)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("certified_ok", "count", "higher"),
    ("affdim_width", "dim", "lower"),
    ("jsr_log_width", "log", "lower"),
]

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import matpress
from matpress import cli
for path in sys.argv[2:]:
    cli.parse_input(path)
print(repr(time.perf_counter() - t0))
"""

# Most of set-up is importing numpy: shared libraries mapped and faulted in,
# modules unmarshalled.  A process doing only that tracks the machine's
# speed at this kind of work, which the in-process Reference kernel does not.
_IMPORT_REF_CHILD = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""


def _median(values):
    return statistics.median(values)


def _hex(x):
    return float(x).hex()


def _write_docs(workload, seed, fams):
    """One JSON measure document per family; returns {family: path}."""
    folder = OUT / f"{workload}-seed{seed}-docs"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (weights, mats) in fams.items():
        doc = {
            "d": int(mats.shape[1]),
            "atoms": [
                {"weight": float(w), "matrix": [[float(x) for x in row] for row in m]}
                for w, m in zip(weights, mats)
            ],
        }
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = path
    return paths


class Reference:
    """A fixed kernel that measures how fast the machine runs right now.

    On a machine whose cores are shared with other tenants, speed can drift
    by up to 2x for tens of seconds at a time, longer than a run, so raw wall
    times of the same work spread too widely between runs.  Each timed
    interval is therefore divided by the mean of this kernel's time just
    before and just after it.  The kernel does what the engine does, on fixed
    inputs and with numpy and Python only, so no change to the package
    changes its time: batched 2x2 products, batched 3x3 singular values, a
    row dedup and a Python loop.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.pairs = rng.standard_normal((8192, 2, 2))
        self.right = rng.standard_normal((2, 2))
        self.cubes = rng.standard_normal((2000, 3, 3))
        self.rows = np.round(rng.standard_normal((8192, 5)), 1)
        for _ in range(5):  # warm-up
            self.time()
        self.mark()

    def time(self):
        np = self.np
        t0 = time.perf_counter()
        (self.pairs @ self.right).sum()
        np.linalg.svd(self.cubes, compute_uv=False)
        np.unique(self.rows, axis=0)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - t0

    def mark(self):
        """Time the reference right before an interval."""
        self.last = self.time()

    def ratio(self, seconds):
        """``seconds`` just measured, over the reference time around it."""
        before = self.last
        self.mark()
        return seconds / ((before + self.last) / 2.0)


def _child_seconds(code, *args):
    """Run ``code`` in a fresh interpreter; it prints the seconds it measured."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_ratios(paths):
    """Fresh-process import plus parse of the workload's documents.

    Returns the seconds of each repetition, and each divided by the mean of
    the numpy-import reference processes run just before and just after it.
    """
    args = [str(SRC), *map(str, paths.values())]
    times, ratios = [], []
    before = _child_seconds(_IMPORT_REF_CHILD)
    for _ in range(SETUP_REPS):
        times.append(_child_seconds(_SETUP_CHILD, *args))
        after = _child_seconds(_IMPORT_REF_CHILD)
        ratios.append(times[-1] / ((before + after) / 2.0))
        before = after
    return times, ratios


def _run_rep(mp, calls, atoms, ref, tracer=None):
    """One repetition of the call list on fresh measures.

    Returns the wall time of each call in seconds, its reference ratio, and
    the results.
    """
    measures = [[mp.FiniteMatrixMeasure(atoms[f]) for f in call.families] for call in calls]
    walls, ratios, results = [], [], []
    ref.mark()
    for i, (call, ms) in enumerate(zip(calls, measures)):
        if tracer is not None:
            tracer.call = i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            results.append(call.run(mp, ms))
        except Exception:  # a raising call is a failed call; keep measuring
            results.append(traceback.format_exc(limit=3))
        finally:
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        ratios.append(ref.ratio(walls[-1]))
    return walls, ratios, results


def _ref_wall(call_ratios):
    """Reference-speed seconds of the call list: the sum over calls of each
    call's median reference ratio over the repetitions, times REF_SECONDS."""
    return REF_SECONDS * sum(_median(r) for r in zip(*call_ratios))


def _timed_reps(seconds, rep, summary):
    """Repeat ``rep`` until the time spent plus half a repetition reaches
    ``seconds`` (at least once), so a run overshoots by at most half a rep.

    Returns the per-call walls and the per-call reference ratios of each
    repetition, the first repetition's results, and whether every
    repetition's ``summary`` matched the first.
    """
    call_walls, call_ratios, results, same = [], [], None, True
    start = time.perf_counter()
    while True:
        walls, ratios, res = rep()
        call_walls.append(walls)
        call_ratios.append(ratios)
        if results is None:
            results = res
        else:
            same = same and summary(res) == summary(results)
        rep_median = _median([sum(w) for w in call_walls])
        if time.perf_counter() - start + rep_median / 2 >= seconds:
            return call_walls, call_ratios, results, same


def _record(call, res, fams):
    if isinstance(res, str):
        return {"name": call.name, "status": "error", "error": res}
    if call.kind == "sum":
        lo = hi = res.log
        status, n_used = "value", call.n
        words = len(fams[call.families[0]][1]) ** call.n
    elif call.kind == "affinity":
        lo, hi = res.interval
        status, n_used, words = res.status, None, res.words_evaluated
    else:
        lo, hi = res.lower, res.upper
        status, n_used, words = res.status, res.n_used, res.words_evaluated
    return {
        "name": call.name, "status": status, "lower": _hex(lo), "upper": _hex(hi),
        "n_used": n_used, "words_evaluated": words,
    }


def _check(call, res, fams):
    if isinstance(res, str):
        return [f"raised: {res.strip().splitlines()[-1]}"]
    return call.check(res, [fams[f] for f in call.families])


def _end_to_end(calls, results, checked, call_ratios, setup_ratios, rss_mb):
    certified, affdim, jsr_log = 0, 0.0, 0.0
    for call, res, problems in zip(calls, results, checked):
        if isinstance(res, str):
            continue
        if not problems and getattr(res, "status", None) in ("certified", "minus_infinity"):
            certified += 1
        if call.kind == "affinity":
            affdim += res.interval[1] - res.interval[0]
        elif call.kind == "jsr":
            jsr_log += math.log(res.upper / res.lower)
    return {
        "wall_s": _ref_wall(call_ratios),
        "setup_s": IMPORT_REF_SECONDS * _median(setup_ratios),
        "peak_rss_mb": rss_mb,
        "certified_ok": certified,
        "affdim_width": affdim,
        "jsr_log_width": jsr_log,
    }


def _pool_speedup(mp, calls, atoms):
    """The pool probe call at workers=nproc against workers=1, untraced."""
    call = next(c for c in calls if c.pool_probe)
    times = {}
    for workers in (1, os.cpu_count() or 1):
        ms = [mp.FiniteMatrixMeasure(atoms[f]) for f in call.families]
        t0 = time.perf_counter()
        try:
            call.run(mp, ms, workers=workers)
        except TypeError as exc:
            if "workers" in str(exc):  # the pool and its parameter are gone
                return None
            raise
        times[workers] = time.perf_counter() - t0
    return times[1] / times[os.cpu_count() or 1]


def run_workload(name, seed, seconds, trace):
    import resource

    import matpress as mp
    from matpress import cli

    import tracing
    import workloads

    fams, calls = workloads.WORKLOADS[name](seed)
    paths = _write_docs(name, seed, fams)
    setup, setup_ratios = _setup_ratios(paths)
    ref = Reference()

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    try:
        atoms = {f: cli.parse_input(str(p)).atoms for f, p in paths.items()}
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    parse_split = tracer.layer_split()["cli.parse_s"] if tracer is not None else None

    def summary(res):
        return [_record(c, r, fams) for c, r in zip(calls, res)]

    call_walls, call_ratios, results, same = _timed_reps(
        seconds, lambda: _run_rep(mp, calls, atoms, ref), summary)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems_run = [] if same else ["repetitions differ bit for bit"]

    layer = None
    if tracer is not None:
        splits, traced_ratios = [], []
        tracer.install()
        try:
            for _ in range(len(call_walls)):
                tracer.reset()
                _, ratios, res = _run_rep(mp, calls, atoms, ref, tracer)
                traced_ratios.append(ratios)
                splits.append(tracer.layer_split())
                if summary(res) != summary(results):
                    problems_run.append("traced repetition differs from untraced results")
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"{name}-seed{seed}.spans.jsonl")
        layer = tracing.median_split(splits)
        layer["cli.parse_s"] = parse_split
        layer["engine.pool_speedup"] = _pool_speedup(mp, calls, atoms)
        layer["trace.overhead_frac"] = _ref_wall(traced_ratios) / _ref_wall(call_ratios) - 1.0

    first = summary(results)
    checked = [_check(c, r, fams) for c, r in zip(calls, results)]
    failed_calls = [c for c, p in zip(calls, checked) if p]
    unexpected = [c.name for c in failed_calls if not c.known_defect]

    e2e = _end_to_end(calls, results, checked, call_ratios, setup_ratios, rss_mb)
    reps = len(call_walls)
    rep_walls = [sum(w) for w in call_walls]
    record = {
        "workload": name, "seed": seed, "repetitions": reps,
        "calls": [dict(rec, check=p) for rec, p in zip(first, checked)],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}.record.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {name}  seed {seed}  repetitions {reps}")
    for call, p in zip(calls, checked):
        verdict = "ok" if not p else ("FAILED (known defect)" if call.known_defect else "FAILED")
        print(f"  check {call.name}: {verdict}")
        for line in p:
            print(f"      {line}")
    for line in problems_run:
        print(f"  run problem: {line}")
    print(f"  fail_frac = {len(failed_calls)}/{len(calls)} calls per repetition "
          f"= {len(failed_calls) / len(calls):.4f} ratio")
    print(f"  raw wall of one repetition, over {reps}: median {_median(rep_walls)!r} s, "
          f"max {max(rep_walls)!r} s")
    for call, times, ratios in zip(calls, zip(*call_walls), zip(*call_ratios)):
        print(f"  call {call.name}: raw wall median {_median(times)!r} s, "
              f"reference-speed median {REF_SECONDS * _median(ratios)!r} s")
    print(f"  raw setup, over {len(setup)} processes: median {_median(setup)!r} s")
    for metric, unit, _ in END_TO_END:
        print(f"  {metric} = {e2e[metric]!r} {unit}")
    if layer is not None:
        for metric, unit, _ in tracing.PER_LAYER:
            print(f"  {metric} = {layer[metric]!r} {unit}")

    if trace:
        metrics = {m: {"value": layer[m], "unit": u} for m, u, _ in tracing.PER_LAYER}
    else:
        metrics = {m: {"value": e2e[m], "unit": u} for m, u, _ in END_TO_END}
    values = [v["value"] for v in metrics.values()]
    finite = all(v is None or math.isfinite(v) for v in values)
    print(json.dumps({
        "correct": not unexpected and not problems_run and finite,
        "attempted": len(calls) * reps,
        "failed": len(failed_calls) * reps,
        "metrics": metrics,
    }))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process; prints one table at the end."""
    import workloads

    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
        if not result["correct"]:
            status = 1
    print()
    for name, result in rows:
        print(f"{name}: correct={result['correct']}  "
              f"fail_frac={result['failed']}/{result['attempted']} calls")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']!r} {m['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="generic2, structured2, dense3, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces W1, W2 and W4 exactly")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced repetitions, report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "matpress" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'matpress'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
