"""Command-line front end.

Exit codes: 0 on success, 2 on a domain/usage error, 3 on an I/O error.
A ``--config`` file of ``key=value`` lines can override the kernel defaults
(move scales, mixing probabilities, seed); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import nhpp, nonrecursive_bayes, pipeline, recursive_bayes
from .errors import DomainError, ResourceError
from .numtheory import (
    LUCAS_LEHMER_CEILING,
    is_prime_u64,
    lucas_lehmer,
    mersenne_digit_count,
    primes_up_to,
)
from .pipeline import FILE_HEADER, HuntPlan, RecordKind
from .recursive_bayes import Hyperparameters
from .specialfn import MT, X_OVER_LOG, ErrorBoundModel, IntensityParams
from .tmcmc import TmcmcConfig

_CONFIG_KEYS = {f.name for f in dataclasses.fields(TmcmcConfig)}

#: Float flags that size a computation; inf or nan would otherwise surface as
#: an OverflowError or ValueError from ``int()`` or the numerics.
_FINITE_FLAGS = ("limit", "horizon")

#: ``ll-check`` trial-factors exponent p below ``2**b``, b the bit length of
#: ``2 * _LL_SCREEN_M * p``: the first 512 to 1023 values of m.  Up to 1500
#: that settles 107 of 238 exponents in about 5 ms and leaves 52% of the
#: Lucas-Lehmer time.  128 settles 98 and 2048 settles 121, but the screen
#: then costs 27 ms, more than the tests it saves.
_LL_SCREEN_M = 512

#: ``ll-check`` screens only exponents from here on.  Below it Lucas-Lehmer
#: costs under 40 us an exponent, and the screen's fixed cost, about 0.5 ms
#: a call, is more than it saves: ``--max-exponent 61`` took 0.79 ms with
#: every exponent screened and 0.20 ms with none; at 1500 the two agree
#: within noise.
_LL_SCREEN_FROM = 64


def _read_config_file(path: str) -> dict:
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{line_no}: unknown config line {line!r}")
            try:
                overrides[key] = int(value) if key == "seed" else float(value)
            except ValueError:
                raise DomainError(
                    f"{path}:{line_no}: bad value for {key}: {value.strip()!r}"
                ) from None
    return overrides


def _kernel_config(args) -> TmcmcConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return TmcmcConfig(**values)


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return sys.stdout


def _emit_csv(args, header: str, rows) -> None:
    fh = _open_out(args)
    try:
        print(FILE_HEADER, file=fh)
        print(header, file=fh)
        for row in rows:
            print(",".join(str(v) for v in row), file=fh)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _parse_hyper(text: str) -> Hyperparameters:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise DomainError("--hyper wants four comma-separated values: a,b,gamma,xi")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise DomainError(f"--hyper values must be numbers, got {text!r}") from None
    return Hyperparameters(*values)


def _decade_checkpoints(limit: float) -> list[float]:
    cps = []
    x = 10.0
    while x < limit:
        cps.append(x)
        x *= 10.0
    cps.append(float(limit))
    return cps


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_hunt(args) -> int:
    config = _kernel_config(args)
    plan = HuntPlan(
        p0=args.p0,
        iterations=args.iters,
        rounds=args.rounds,
        config=config,
        out_path=args.out,
    )
    result = pipeline.hunt_general(plan)
    print(f"{len(result.records)} new prime records (p0={args.p0}, k={plan.k})")
    for rec in result.records:
        print(f"  {rec.value}  via {rec.target_kind} at iteration {rec.iteration_found}")
    report = result.stats.intersection_report()
    if report:
        print(f"target overlap: {report}")
    print(result.stats.summary())
    if args.out:
        print(f"appended to {args.out}")
    return 0


def _cmd_mersenne(args) -> int:
    config = _kernel_config(args)
    if args.from_results:
        generals = [
            r.value
            for r in pipeline.load_records(args.from_results)
            if r.kind is RecordKind.GENERAL_PRIME
        ]
        if not generals:
            raise DomainError(f"no general-prime records in {args.from_results}")
        p0 = max(generals)
    elif args.p0 is not None:
        p0 = args.p0
    else:
        raise DomainError("mersenne needs --p0 or --from-results")
    plan = HuntPlan(
        p0=p0,
        iterations=args.keep,
        burn_in=args.burnin,
        config=config,
        out_path=args.out,
        trial_factor_bits=args.trial_factor_bits,
    )
    result = pipeline.hunt_mersenne(plan)
    print(
        f"{len(result.records)} candidate exponents (p0={p0}, k={plan.k}, "
        f"burn-in {args.burnin}, kept {args.keep})"
    )
    for rec in result.records:
        print(f"  {rec.value}  ({rec.digit_count} digits if Mersenne)")
    if result.stats.factored_out:
        print(f"{result.stats.factored_out} candidates removed by trial factoring")
    print(result.stats.summary())
    if args.out:
        print(f"appended to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    model = ErrorBoundModel.parse(args.model)
    hyper = _parse_hyper(args.hyper) if args.hyper else Hyperparameters()
    table = primes_up_to(int(args.limit))
    rows = recursive_bayes.trajectory(model, table.primes, hyper, _decade_checkpoints(args.limit))
    _emit_csv(
        args,
        "model,k,t_k,mean_alpha,var_alpha,mean_beta,var_beta",
        ((model.label, r.k, int(r.t_last), r.mean_alpha, r.var_alpha, r.mean_beta, r.var_beta)
         for r in rows),
    )
    return 0


def _cmd_compare_models(args) -> int:
    limit = int(args.limit)
    if limit < 5:
        raise DomainError("--limit must be at least 5")
    primes = primes_up_to(limit).primes[1:]  # from 3: both densities positive
    next_prime = int(primes[-1]) + 2
    while not is_prime_u64(next_prime):
        next_prime += 2
    hyper = Hyperparameters()
    n = len(primes)
    rows = []
    for k in sorted({10**j for j in range(1, 10) if 10**j <= n} | {n}):
        t_k = int(primes[k - 1])
        t_next = int(primes[k]) if k < n else next_prime
        rows.append((k, recursive_bayes.model_compare_log_ratio(
            recursive_bayes.state_at(hyper, MT, k, t_k),
            recursive_bayes.state_at(hyper, X_OVER_LOG, k, t_k), t_next)))
    _emit_csv(args, "k,log_ratio", rows)
    return 0


def _cmd_simulate_nhpp(args) -> int:
    if args.reps < 1:
        raise DomainError(f"--reps must be at least 1, got {args.reps}")
    model = ErrorBoundModel.parse(args.model)
    params = IntensityParams(args.alpha, args.beta)
    grid = [x for x in _decade_checkpoints(args.horizon) if x > np.e]
    rows = []
    for rep in range(args.reps):
        stream = nhpp.simulate(model, params, args.horizon, args.seed + rep)
        for x, ratio in nhpp.pnt_ratio_check(stream, grid):
            rows.append((x, stream.count_up_to(x), ratio))
    _emit_csv(args, "x,count,ratio", rows)
    return 0


def _cmd_equivalence(args) -> int:
    if args.kmax < 2:
        raise DomainError(f"--kmax must be at least 2, got {args.kmax}")
    # p_k < k (log k + log log k) for k >= 6 (Rosser and Schoenfeld, 1962)
    k = max(args.kmax, 6)
    table = primes_up_to(int(k * (math.log(k) + math.log(math.log(k)))))
    # k = 1 with the flat default prior is improper (empty error integral at
    # t = 2), so the report starts at stage 2.
    rows = nonrecursive_bayes.equivalence_report(
        table.primes[: args.kmax], Hyperparameters(), range(2, args.kmax + 1)
    )
    _emit_csv(
        args,
        "k,rec_mean_alpha,nonrec_mean_alpha,rec_mean_beta,nonrec_mean_beta,gap_alpha,gap_beta",
        ((r.k, r.rec_mean_alpha, r.nonrec_mean_alpha, r.rec_mean_beta, r.nonrec_mean_beta,
          r.gap_alpha, r.gap_beta) for r in rows),
    )
    return 0


def _cmd_verify(args) -> int:
    """Print one line per line read and a summary, in one write."""
    report = pipeline.verify_file(args.file)
    out = [
        f"line {no}: PARSE ERROR {text!r}" if error is not None
        else f"line {no}: {value} {'prime' if verdict else 'COMPOSITE'}"
        for no, text, value, verdict, error in zip(
            report.line_nos, report.texts, report.values, report.verdicts, report.errors)
    ]
    out.append(report.summary())
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_ll_check(args) -> int:
    """Print each Mersenne prime ``2**p - 1`` for odd prime ``p <= --max-exponent``.

    One :func:`.pipeline.trial_factor_batch` call first screens every
    exponent from :data:`_LL_SCREEN_FROM` on for a factor ``q = 2mp + 1``
    over the first :data:`_LL_SCREEN_M` or more values of ``m``.  Such a
    factor lies below ``isqrt(2**p - 1)``, so it proves ``2**p - 1``
    composite, and :func:`.numtheory.lucas_lehmer` runs only on the
    exponents left: the output is that of the Lucas-Lehmer sweep alone.
    """
    if args.max_exponent > LUCAS_LEHMER_CEILING:
        raise DomainError(f"--max-exponent is capped at {LUCAS_LEHMER_CEILING}")
    if args.max_exponent < 3:
        raise DomainError("--max-exponent must be at least 3: the sweep covers odd prime exponents")
    exponents = primes_up_to(args.max_exponent).primes[1:].tolist()
    screened = [p for p in exponents if p >= _LL_SCREEN_FROM]
    depths = [(2 * _LL_SCREEN_M * p).bit_length() for p in screened]
    factors = pipeline.trial_factor_batch(screened, depths)
    factored = {p for p, q in zip(screened, factors) if q is not None}
    found = []
    for p in exponents:
        if p not in factored and lucas_lehmer(p):
            found.append(p)
            print(f"2^{p}-1 is prime ({mersenne_digit_count(p)} digits)")
    print(f"{len(found)} Mersenne exponents up to {args.max_exponent}: {found}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    ``parse_args`` does not change it (each call fills a fresh namespace, and
    help is formatted at the terminal width in force when it prints), so one
    tree serves every ``main`` call instead of rebuilding it per command.
    """
    parser = argparse.ArgumentParser(
        prog="prime-oracle",
        description="Poisson-process prime modelling, Bayesian diagnostics and TMCMC prime hunting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--config", help="key=value file overriding kernel defaults")
    kernel.add_argument("--seed", type=int, default=None)
    kernel.add_argument("--p-add", dest="p_add", type=float, default=None)
    kernel.add_argument("--p-mult", dest="p_mult", type=float, default=None)
    kernel.add_argument("--add-scale", dest="add_scale", type=float, default=None)
    kernel.add_argument("--mult-scale", dest="mult_scale", type=float, default=None)

    p = sub.add_parser("hunt", parents=[kernel], help="hunt primes above p0")
    p.add_argument("--p0", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("mersenne", parents=[kernel], help="hunt candidate Mersenne exponents")
    p.add_argument("--p0", type=int)
    p.add_argument("--from-results", help="take p0 = largest general prime on file")
    p.add_argument("--burnin", type=int, default=10_000_000)
    p.add_argument("--keep", type=int, default=10_000_000)
    p.add_argument("--trial-factor-bits", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mersenne)

    p = sub.add_parser("diagnose", help="posterior moment trajectory for one error model")
    p.add_argument("--model", required=True, help="rh-sqrt | rh-eps:<eps> | x-over-log | mt")
    p.add_argument("--limit", type=float, required=True)
    p.add_argument("--hyper", help="a,b,gamma,xi (default 0,0,1,1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("compare-models", help="MT vs x/log(x) predictive log ratio")
    p.add_argument("--limit", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compare_models)

    p = sub.add_parser("simulate-nhpp", help="simulate the counting process")
    p.add_argument("--model", default="rh-sqrt")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate_nhpp)

    p = sub.add_parser("equivalence", help="recursive vs exact posterior means")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_equivalence)

    p = sub.add_parser("verify", help="primality verdicts for a file of integers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ll-check", help="Lucas-Lehmer sweep over small exponents")
    p.add_argument("--max-exponent", type=int, required=True)
    p.set_defaults(func=_cmd_ll_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in _FINITE_FLAGS:
            value = getattr(args, flag, None)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"--{flag} must be finite, got {value}")
        return args.func(args)
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
