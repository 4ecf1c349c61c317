"""The four benchmark workloads as lists of operations.

An operation ("op") is one command a user would run: either a CLI command
driven through ``prime_oracle.cli.main(argv)`` or, where the CLI hides the
output a check needs, the equivalent public library calls.  Ops are plain
dicts so the worker can record them in its JSON result and ``run.py`` can
check them without importing the program.

A run repeats whole rounds of ops until its time is up, so every command
keeps the same share of the run.  Every per-op seed and generated input is
derived from the benchmark seed; the same seed gives the same ops.

Sizes were picked on a 2-core Xeon so that one round takes a few seconds and
a 20-second run holds several rounds:

* ``posterior`` at 3e4: about 0.2 s per ``diagnose`` and 0.4 s per
  ``compare-models``; the per-prime recursion dominates.
* ``nhpp`` at horizon 1e6: about 0.4-1 s and 79k events per replicate.
* ``hunt`` at 1e5 iterations: about 0.5 s for ``hunt`` (two chains) and
  0.2 s for ``mersenne``; every seed tried finds 3-4 primes, so the
  ``mersenne --from-results`` step always has a starting prime.
* ``integer``: the sieve just above the 2**26 segment takes the segmented
  path (about 1.4 s); ``mersenne`` with 38-bit trial factoring spends about
  0.3 s per surviving exponent against 0.1 s for its chain.
"""

from __future__ import annotations

import random

WORKLOADS = ("posterior", "nhpp", "hunt", "integer")

POSTERIOR_MODELS = ("rh-sqrt", "rh-eps:0.1", "x-over-log", "mt")
#: ``simulate`` under ``x-over-log`` raises DomainError whenever an event
#: lands below e (a known defect), so that model runs as a separate probe
#: whose failures are reported on their own instead of in the timed ops.
NHPP_MODELS = ("rh-sqrt", "rh-eps:0.1", "mt")
NHPP_PROBE_MODEL = "x-over-log"
NHPP_ALPHA = 1.0
NHPP_BETA = 0.01
NHPP_THETA = 0.75
HUNT_P0 = 999_983
TF_P0 = 1_000_037
KNOWN_LL_EXPONENTS = (3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
                      2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)

FULL = {
    "posterior_limit": 30_000,
    "equivalence_kmax": 64,
    "nhpp_horizon": 1e6,
    "nhpp_probe_reps": 6,
    "hunt_iters": 100_000,
    "mersenne_burnin": 100_000,
    "mersenne_keep": 100_000,
    "sieve_base": 1 << 26,
    "sieve_extra": 3_000_000,
    "verify_count": 10_000,
    "ll_max": 1500,
    "tf_bits": 38,
    "tf_burnin": 20_000,
    "tf_keep": 20_000,
}

#: Tiny sizes for the benchmark's own tests; the sieve stays unsegmented.
SMOKE = {
    "posterior_limit": 30_000,
    "equivalence_kmax": 8,
    "nhpp_horizon": 2e4,
    "nhpp_probe_reps": 2,
    "hunt_iters": 5000,
    "mersenne_burnin": 2000,
    "mersenne_keep": 2000,
    "sieve_base": 100_000,
    "sieve_extra": 10_000,
    "verify_count": 200,
    "ll_max": 130,
    "tf_bits": 24,
    "tf_burnin": 2000,
    "tf_keep": 2000,
}

#: Integers for ``verify``, generated by ``run.py`` from the seed.
VERIFY_INPUT = "verify-input.txt"

#: The reference kernel each workload's times are calibrated by (``calib.py``):
#: the kind of work its ops spend their time in.
REFERENCE = {
    "posterior": "interpreted",  # per-prime recursion, numpy dispatch on scalars
    "nhpp": "vectorized",        # expi on arrays
    "hunt": "interpreted",       # the chain loop
    "integer": "mixed",          # the sieve's strided writes, Python verdict loops
}

#: Which commands carry each workload's unit of work, and what the unit is.
WORK = {
    "posterior": ("stages", ("diagnose", "compare-models", "equivalence")),
    "nhpp": ("events", ("simulate-nhpp",)),
    "hunt": ("chain_iters", ("hunt", "mersenne")),
    "integer": ("verdicts", ("verify",)),
}


def sizes(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


def op_seed(seed: int, round_no: int, index: int) -> int:
    """Per-op seed; a string seed makes ``random`` hash it with SHA-512."""
    return random.Random(f"{seed}/{round_no}/{index}").getrandbits(31)


def _cli(cmd: str, tag: str, argv: list, **params) -> dict:
    return {"cmd": cmd, "kind": "cli", "argv": [str(a) for a in argv],
            "stdout": f"{tag}.out", "params": params}


def round_ops(workload: str, seed: int, round_no: int, *, smoke: bool = False,
              prefix: str = "") -> list[dict]:
    """The ops of one round; output paths are relative to the run directory."""
    z = sizes(smoke)
    ops: list[dict] = []

    def tag(i: int, cmd: str) -> str:
        return f"{prefix}r{round_no}-{i}-{cmd}"

    if workload == "posterior":
        lim = z["posterior_limit"]
        for model in POSTERIOR_MODELS:
            i = len(ops)
            rng = random.Random(op_seed(seed, round_no, i))
            hyper = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                     rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            t = tag(i, "diagnose")
            ops.append(_cli("diagnose", t, [
                "diagnose", "--model", model, "--limit", lim,
                "--hyper", ",".join(repr(h) for h in hyper), "--out", f"{t}.csv",
            ], model=model, limit=lim, hyper=hyper, csv=f"{t}.csv"))
        t = tag(len(ops), "compare-models")
        ops.append(_cli("compare-models", t, ["compare-models", "--limit", lim, "--out", f"{t}.csv"],
                        limit=lim, csv=f"{t}.csv"))
        t = tag(len(ops), "equivalence")
        kmax = z["equivalence_kmax"]
        ops.append(_cli("equivalence", t, ["equivalence", "--kmax", kmax, "--out", f"{t}.csv"],
                        kmax=kmax, csv=f"{t}.csv"))
    elif workload == "nhpp":
        for model in NHPP_MODELS:
            ops.append(simulate_op(model, op_seed(seed, round_no, len(ops)),
                                   z["nhpp_horizon"], tag(len(ops), "simulate-nhpp")))
    elif workload == "hunt":
        iters = z["hunt_iters"]
        t = tag(0, "hunt")
        records = f"{t}.jsonl"
        hunt_seed = op_seed(seed, round_no, 0)
        ops.append(_cli("hunt", t, [
            "hunt", "--p0", HUNT_P0, "--iters", iters, "--seed", hunt_seed, "--out", records,
        ], p0=HUNT_P0, iters=iters, seed=hunt_seed, records=records))
        t = tag(1, "mersenne")
        ops.append(_cli("mersenne", t, [
            "mersenne", "--from-results", records, "--burnin", z["mersenne_burnin"],
            "--keep", z["mersenne_keep"], "--seed", op_seed(seed, round_no, 1),
            "--out", f"{t}.jsonl",
        ], from_results=records, burnin=z["mersenne_burnin"], keep=z["mersenne_keep"],
            records=f"{t}.jsonl"))
    elif workload == "integer":
        limit = z["sieve_base"] + random.Random(op_seed(seed, round_no, 0)).randrange(
            z["sieve_extra"] // 3, z["sieve_extra"])
        ops.append({"cmd": "sieve", "kind": "sieve", "params": {
            "limit": limit, "summary": f"{tag(0, 'sieve')}.json"}})
        # ``verify`` runs twice per round: it carries the workload's rate.
        for cmd in ("verify", "ll-check", "verify"):
            t = tag(len(ops), cmd)
            if cmd == "verify":
                ops.append(_cli(cmd, t, [cmd, VERIFY_INPUT], input=VERIFY_INPUT))
            else:
                ops.append(_cli(cmd, t, [cmd, "--max-exponent", z["ll_max"]],
                                max_exponent=z["ll_max"]))
        t = tag(len(ops), "mersenne")
        ops.append(_cli("mersenne", t, [
            "mersenne", "--p0", TF_P0, "--burnin", z["tf_burnin"], "--keep", z["tf_keep"],
            "--trial-factor-bits", z["tf_bits"], "--seed", op_seed(seed, round_no, len(ops)),
            "--out", f"{t}.jsonl",
        ], p0=TF_P0, burnin=z["tf_burnin"], keep=z["tf_keep"], bits=z["tf_bits"],
            records=f"{t}.jsonl"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def simulate_op(model: str, seed: int, horizon: float, tag: str, probe: bool = False) -> dict:
    """``simulate-nhpp --reps 1`` as library calls, so the event times can be checked.

    The three ratio checks run on decade grids, as the CLI's does; the
    window grid keeps each window ``(x, x + x**theta]`` inside the horizon.
    """
    decades = [10.0 ** j for j in range(1, 20) if 10.0 ** j < horizon]
    return {"cmd": "simulate-nhpp", "kind": "simulate", "probe": probe, "params": {
        "model": model, "alpha": NHPP_ALPHA, "beta": NHPP_BETA, "horizon": horizon,
        "seed": seed, "theta": NHPP_THETA, "times": f"{tag}.npy", "ratios": f"{tag}.json",
        "pnt_grid": decades + [horizon],
        "nth_grid": [int(x) for x in decades],
        "gap_grid": [x for x in decades if x + x ** NHPP_THETA <= horizon],
    }}


def probe_ops(workload: str, seed: int, *, smoke: bool = False, prefix: str = "") -> list[dict]:
    """Ops run once per run outside the timed rounds: the known-defect probe."""
    if workload != "nhpp":
        return []
    z = sizes(smoke)
    return [
        simulate_op(NHPP_PROBE_MODEL, op_seed(seed, -1, i), z["nhpp_horizon"],
                    f"{prefix}probe-{i}-simulate-nhpp", probe=True)
        for i in range(z["nhpp_probe_reps"])
    ]
