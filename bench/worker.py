"""Benchmark worker: runs one workload's ops in a fresh interpreter.

Started by ``run.py`` with the run directory as its working directory and
``src`` on ``PYTHONPATH``.  It times each op and the workload's reference
kernel (``calib.py``) between ops, saves what the checks in ``run.py`` need, and
writes ``result.json``.  It checks nothing itself, so the checks' imports
(sympy) stay out of its memory and its timings.

Untraced (``--trace 0``): whole rounds until ``--seconds`` have passed, then
the once-per-run probe ops.  Traced (``--trace 1``): round 0 and the probes
once untraced and once traced, so the per-layer counts repeat exactly for a
seed and the tracing overhead is the difference of the two passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import time
import traceback

from prime_oracle import cli, nhpp, numtheory
from prime_oracle.specialfn import ErrorBoundModel, IntensityParams

import numpy as np

import calib
import ops
import spans


def _execute(op: dict):
    """Run one op; return what ``_save`` needs, or raise on failure."""
    p = op["params"]
    if op["kind"] == "cli":
        with open(op["stdout"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return None
    if op["kind"] == "simulate":
        stream = nhpp.simulate(ErrorBoundModel.parse(p["model"]),
                               IntensityParams(p["alpha"], p["beta"]), p["horizon"], p["seed"])
        ratios = {
            "pnt": nhpp.pnt_ratio_check(stream, p["pnt_grid"]),
            "nth": nhpp.nth_event_check(stream, p["nth_grid"]),
            "gap": nhpp.gap_window_check(stream, p["theta"], p["gap_grid"]),
        }
        return stream.times, ratios
    if op["kind"] == "sieve":
        return numtheory.primes_up_to(p["limit"]).primes
    raise ValueError(f"unknown op kind {op['kind']!r}")


def _save(op: dict, output) -> None:
    p = op["params"]
    if op["kind"] == "simulate":
        times, ratios = output
        np.save(p["times"], times)
        with open(p["ratios"], "w", encoding="utf-8") as fh:
            json.dump(ratios, fh)
    elif op["kind"] == "sieve":
        step = max(1, len(output) // 64)
        summary = {"count": len(output), "last": [int(v) for v in output[-10:]],
                   "sample": [int(v) for v in output[::step]]}
        with open(p["summary"], "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def run_op(op: dict, tracer: spans.Tracer | None = None) -> dict:
    """Time one op.  An exception is the op's failure; the run goes on."""
    error = None
    output = None
    if tracer is not None:
        first_factor = len(tracer.factors)
        tracer.enter(spans.OP_SPAN)
    start = time.perf_counter()
    try:
        output = _execute(op)
    except (Exception, SystemExit) as exc:  # argparse exits on a bad argv
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - start
    record = {**op, "seconds": seconds, "error": error}
    if tracer is not None:
        tracer.exit(error=error is not None)
        record["factors"] = tracer.factors[first_factor:]
    if error is None:
        _save(op, output)
    return record


def run_ops(plan: list[dict], kind: str, tracer: spans.Tracer | None = None) -> list[dict]:
    """Run ops in order, timing the reference kernel before the first and after each."""
    records = []
    ref_before = calib.reference_kernel(kind)
    for op in plan:
        record = run_op(op, tracer)
        ref_after = calib.reference_kernel(kind)
        record["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    w, seed, smoke = args.workload, args.seed, args.smoke

    kind = ops.REFERENCE[w]
    result: dict = {"workload": w, "seed": seed, "trace": args.trace}
    if args.trace:
        def plan(prefix):
            return (ops.round_ops(w, seed, 0, smoke=smoke, prefix=prefix)
                    + ops.probe_ops(w, seed, smoke=smoke, prefix=prefix))

        untraced = run_ops(plan("untraced-"), kind)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced = run_ops(plan("traced-"), kind, tracer)
        result["ops"] = untraced + traced
        result["rounds"] = 1
        result["per_layer"] = spans.layer_metrics(
            tracer, *(math.fsum(calib.calibrated(r["seconds"], r["ref_s"], kind) for r in rs)
                      for rs in (untraced, traced)))
    else:
        records = []
        start = time.perf_counter()
        rounds = 0
        # Whole rounds only, so each command keeps its share; stop before a
        # round that would likely end past the deadline.
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
            records += run_ops(ops.round_ops(w, seed, rounds, smoke=smoke), kind)
            rounds += 1
        records += run_ops(ops.probe_ops(w, seed, smoke=smoke), kind)
        result["ops"] = records
        result["rounds"] = rounds
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
