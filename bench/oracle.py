"""Inputs and output checks that do not depend on the program's implementation.

Every expected value here is computed from the definitions with
``scipy.special`` and ``sympy``, never by calling ``prime_oracle``.  A check
returns a list of problems; an empty list means the op's output is correct.
A failed check marks the op as failed; it never aborts the run and the op is
never retried.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import sympy
from scipy.special import expi, gammaln, logsumexp
from scipy.stats import kstest

import ops

FILE_HEADER = "# prime-oracle v1"
MT_DECAY = 6.315
FLAT = (0.0, 0.0, 1.0, 1.0)
_EI_LOG2 = float(expi(math.log(2.0)))

# Moments are compared relative to their size.  Variances are differences of
# two nearly equal second moments, so they get a looser tolerance.
RTOL_MEAN = 1e-9
RTOL_VAR = 1e-6
ATOL_LOG_RATIO = 1e-6
KS_MIN_P = 1e-6
POISSON_SIGMAS = 6.0


# ---------------------------------------------------------------------------
# The intensity ingredients, from their definitions
# ---------------------------------------------------------------------------


def Li(x):
    """``int_2^x dt / log t`` as ``Ei(log x) - Ei(log 2)``."""
    return expi(np.log(x)) - _EI_LOG2


def _model(label: str) -> tuple[str, float | None]:
    name, _, eps = label.partition(":")
    return name, float(eps) if eps else None


def F_raw(label: str, x):
    name, eps = _model(label)
    lg = np.log(x)
    if name == "rh-sqrt":
        return np.sqrt(x) * lg
    if name == "rh-eps":
        return x ** (0.5 + eps)
    if name == "x-over-log":
        return x / lg
    return x * lg ** -0.75 * np.exp(-np.sqrt(lg / MT_DECAY))


def F(label: str, x):
    """The error integral anchored at 2."""
    return F_raw(label, x) - F_raw(label, 2.0)


def f(label: str, x):
    """``dF/dx``."""
    name, eps = _model(label)
    lg = np.log(x)
    if name == "rh-sqrt":
        return (0.5 * lg + 1.0) / np.sqrt(x)
    if name == "rh-eps":
        return (0.5 + eps) * x ** (eps - 0.5)
    if name == "x-over-log":
        return (lg - 1.0) / lg ** 2
    return F_raw(label, x) * (1.0 - 0.75 / lg - 0.5 / np.sqrt(MT_DECAY * lg)) / x


def density_floor(label: str) -> int:
    """First prime the recursion conditions on: f is not positive at 2 for these."""
    return 3 if _model(label)[0] in ("x-over-log", "mt") else 2


# ---------------------------------------------------------------------------
# Posterior: the telescoped closed form
# ---------------------------------------------------------------------------


def _component_logs(label, hyper, k, t):
    """Unnormalised log weights of the two stage-k mixture components."""
    a, b, g, xi = hyper
    la, lb = math.log(a + Li(t)), math.log(b + F(label, t))
    lc1, lc2 = -math.log(math.log(t)), math.log(f(label, t))
    return (lc1 + gammaln(g + k) - (g + k) * la + gammaln(xi + k - 1) - (xi + k - 1) * lb,
            lc2 + gammaln(g + k - 1) - (g + k - 1) * la + gammaln(xi + k) - (xi + k) * lb)


def moments(label: str, hyper, k: int, t: float) -> dict:
    """Posterior moments after k primes ending at t: rates ``a + Li(t)``, ``b + F(t)``."""
    a, b, g, xi = hyper
    lw = np.array(_component_logs(label, hyper, k, t))
    w1, w2 = np.exp(lw - logsumexp(lw))
    ra, rb = a + Li(t), b + F(label, t)
    sa, sb = (g + k, g + k - 1), (xi + k - 1, xi + k)
    out = {}
    for name, (s1, s2), rate in (("alpha", sa, ra), ("beta", sb, rb)):
        mean = (w1 * s1 + w2 * s2) / rate
        second = (w1 * s1 * (s1 + 1) + w2 * s2 * (s2 + 1)) / rate ** 2
        out[f"mean_{name}"] = mean
        out[f"var_{name}"] = second - mean * mean
    return out


def log_predictive(label: str, hyper, k: int, t_k: float, t: float) -> float:
    """Log density of the next prime at ``t`` after k primes ending at ``t_k``."""
    a, b, g, xi = hyper
    lap, lbp = math.log(a + Li(t)), math.log(b + F(label, t))
    lc1p, lc2p = -math.log(math.log(t_k)), math.log(f(label, t_k))
    lc1n, lc2n = -math.log(math.log(t)), math.log(f(label, t))

    def piece(lc, sa, sb):
        return lc + gammaln(sa) - sa * lap + gammaln(sb) - sb * lbp

    num = [piece(lc1n + lc1p, g + k + 1, xi + k - 1), piece(lc2n + lc1p, g + k, xi + k),
           piece(lc1n + lc2p, g + k, xi + k), piece(lc2n + lc2p, g + k - 1, xi + k + 1)]
    return float(logsumexp(num) - logsumexp(_component_logs(label, hyper, k, t_k)))


@functools.lru_cache(maxsize=None)
def exact_means(k: int, label: str = "rh-sqrt", hyper=FLAT) -> tuple[float, float]:
    """Exact (non-recursive) posterior means over the first k primes by 2**k enumeration."""
    a, b, g, xi = hyper
    ts = [int(sympy.prime(i)) for i in range(1, k + 1)]
    c1 = [1.0 / math.log(t) for t in ts]
    c2 = [float(f(label, t)) for t in ts]
    e = [0.0] * (k + 1)
    for pick in itertools.product((0, 1), repeat=k):
        e[sum(pick)] += math.prod(c1[i] if bit else c2[i] for i, bit in enumerate(pick))
    ra, rb = a + Li(ts[-1]), b + F(label, ts[-1])
    r = np.arange(k + 1)
    logp = (np.log(e) + gammaln(g + r) - (g + r) * np.log(ra)
            + gammaln(xi + k - r) - (xi + k - r) * np.log(rb))
    p = np.exp(logp - logsumexp(logp))
    return float(p @ (g + r) / ra), float(p @ (xi + k - r) / rb)


def decade_checkpoints(limit: float) -> list[float]:
    cps, x = [], 10.0
    while x < limit:
        cps.append(x)
        x *= 10.0
    return cps + [float(limit)]


@functools.lru_cache(maxsize=None)
def prime_at_or_below(x: int) -> int:
    return int(sympy.prevprime(x + 1))


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[:2] != [FILE_HEADER, header]:
        raise ValueError(f"{path.name}: bad header {lines[:2]!r}")
    return [line.split(",") for line in lines[2:]]


def check_diagnose(op: dict, rundir: Path) -> tuple[int, list[str]]:
    p = op["params"]
    model, hyper = p["model"], tuple(p["hyper"])
    rows = _read_csv(rundir / p["csv"], "model,k,t_k,mean_alpha,var_alpha,mean_beta,var_beta")
    cps = decade_checkpoints(p["limit"])
    problems = []
    if len(rows) != len(cps):
        return 0, [f"{len(rows)} rows for {len(cps)} checkpoints"]
    skipped = 1 if density_floor(model) == 3 else 0
    for row, cp in zip(rows, cps):
        t = prime_at_or_below(int(cp))
        k = int(sympy.primepi(t)) - skipped
        if row[0] != model or int(row[1]) != k or int(row[2]) != t:
            problems.append(f"row {row[:3]} != ({model}, {k}, {t})")
            continue
        want = moments(model, hyper, k, t)
        for col, name in enumerate(("mean_alpha", "var_alpha", "mean_beta", "var_beta"), start=3):
            rtol = RTOL_VAR if name.startswith("var") else RTOL_MEAN
            if not _close(float(row[col]), want[name], rtol):
                problems.append(f"k={k} {name} {row[col]} != {want[name]!r}")
    final_alpha = float(rows[-1][3])
    if not 0.99 <= final_alpha <= 1.01:
        problems.append(f"final mean_alpha {final_alpha} outside [0.99, 1.01]")
    return int(rows[-1][1]), problems


def check_compare_models(op: dict, rundir: Path) -> tuple[int, list[str]]:
    limit = int(op["params"]["limit"])
    rows = _read_csv(rundir / op["params"]["csv"], "k,log_ratio")
    n = int(sympy.primepi(limit)) - 1  # the command conditions on the primes from 3
    want_k = sorted({10 ** j for j in range(1, 10) if 10 ** j <= n} | {n})
    if [int(r[0]) for r in rows] != want_k:
        return 0, [f"checkpoints {[r[0] for r in rows]} != {want_k}"]
    problems = []
    for k, (_, got) in zip(want_k, rows):
        t_k, t_next = int(sympy.prime(k + 1)), int(sympy.prime(k + 2))
        want = (log_predictive("mt", FLAT, k, t_k, t_next)
                - log_predictive("x-over-log", FLAT, k, t_k, t_next))
        if not abs(float(got) - want) <= ATOL_LOG_RATIO:
            problems.append(f"k={k} log_ratio {got} != {want!r}")
    return 2 * n, problems


#: Stages up to which the exact posterior is re-derived by 2**k enumeration.
ENUMERATE_MAX_K = 12


def check_equivalence(op: dict, rundir: Path) -> tuple[int, list[str]]:
    kmax = int(op["params"]["kmax"])
    rows = _read_csv(rundir / op["params"]["csv"], "k,rec_mean_alpha,nonrec_mean_alpha,"
                     "rec_mean_beta,nonrec_mean_beta,gap_alpha,gap_beta")
    if [int(r[0]) for r in rows] != list(range(2, kmax + 1)):
        return 0, ["stage column is not 2..kmax"]
    problems = []
    for row in rows:
        k = int(row[0])
        ra, na, rb, nb, ga, gb = map(float, row[1:])
        rec = moments("rh-sqrt", FLAT, k, int(sympy.prime(k)))
        if not (_close(ra, rec["mean_alpha"], RTOL_MEAN) and _close(rb, rec["mean_beta"], RTOL_MEAN)):
            problems.append(f"k={k} recursive means ({ra}, {rb}) != closed form")
        if k <= ENUMERATE_MAX_K:
            ea, eb = exact_means(k)
            if not (_close(na, ea, RTOL_MEAN) and _close(nb, eb, RTOL_MEAN)):
                problems.append(f"k={k} exact means ({na}, {nb}) != enumeration ({ea}, {eb})")
        if not (_close(ga, abs(ra - na), 1e-12) and _close(gb, abs(rb - nb), 1e-12)):
            problems.append(f"k={k} gap columns do not match the means")
    return kmax, problems


# ---------------------------------------------------------------------------
# NHPP: the time-change theorem
# ---------------------------------------------------------------------------


def check_simulate(op: dict, rundir: Path) -> tuple[int, list[str]]:
    """Lambda-increments between events are Exp(1); the count is Poisson."""
    p = op["params"]
    times = np.load(rundir / p["times"])
    model, horizon = p["model"], p["horizon"]
    problems = []
    if len(times) == 0 or times[0] < 2.0 or times[-1] > horizon or np.any(np.diff(times) <= 0):
        return len(times), ["event times are not strictly increasing inside [2, horizon]"]
    lam = p["alpha"] * Li(times) + p["beta"] * F(model, times)
    pvalue = kstest(np.diff(lam, prepend=0.0), "expon").pvalue
    if not pvalue > KS_MIN_P:
        problems.append(f"KS test of Lambda-increments against Exp(1): p={pvalue:.3g}")
    total = p["alpha"] * Li(horizon) + p["beta"] * F(model, horizon)
    if abs(len(times) - total) > POISSON_SIGMAS * math.sqrt(total) + 1:
        problems.append(f"{len(times)} events, Poisson mean {total:.1f}")

    def count(x):
        return int(np.searchsorted(times, x, side="right"))

    theta = p["theta"]
    want = {
        "pnt": [(x, count(x) / (x / math.log(x))) for x in p["pnt_grid"]],
        "nth": [(n, float(times[n - 1]) / (n * math.log(n))) for n in p["nth_grid"]
                if n <= len(times)],
        "gap": [(x, (count(x + x ** theta) - count(x)) * math.log(x) / x ** theta)
                for x in p["gap_grid"]],
    }
    got = json.loads((rundir / p["ratios"]).read_text(encoding="utf-8"))
    for name, rows in want.items():
        if len(got[name]) != len(rows) or any(
                g[0] != w[0] or not _close(g[1], w[1], 1e-12) for g, w in zip(got[name], rows)):
            problems.append(f"{name} ratios {got[name]} != {rows}")
    return len(times), problems


# ---------------------------------------------------------------------------
# Hunts: records files
# ---------------------------------------------------------------------------


def mersenne_digits(p: int) -> int:
    """Decimal digits of ``2**p - 1``, i.e. ``floor(p * log10 2) + 1``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return int(decimal.Decimal(p) * decimal.Decimal(2).log10()) + 1


def read_records(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != FILE_HEADER:
        raise ValueError(f"{path.name}: missing header")
    return [json.loads(line) for line in lines[1:] if line.strip()]


def check_records(records: list[dict], *, kind: str, p0: int, after: int, until: int) -> list[str]:
    """Every record is prime, above p0, and found in iterations (after, until]."""
    problems = []
    for rec in records:
        value = rec["value"]
        if rec["kind"] != kind or rec["p0"] != p0:
            problems.append(f"{value}: kind {rec['kind']} p0 {rec['p0']}, want {kind} {p0}")
        if not sympy.isprime(value):
            problems.append(f"{value} is not prime")
        if value <= p0:
            problems.append(f"{value} does not exceed p0={p0}")
        if not after < rec["iteration_found"] <= until:
            problems.append(f"{value} found at iteration {rec['iteration_found']}, "
                            f"outside ({after}, {until}]")
        if kind == "mersenne-exponent" and rec["digit_count"] != mersenne_digits(value):
            problems.append(f"{value}: digit count {rec['digit_count']}")
    return problems


def check_hunt(op: dict, rundir: Path) -> tuple[int, list[str]]:
    p = op["params"]
    records = read_records(rundir / p["records"])
    problems = check_records(records, kind="general-prime", p0=p["p0"], after=0, until=p["iters"])
    if not records:
        problems.append("no prime records: the mersenne step has no starting prime")
    if any(r["seed"] not in (p["seed"], p["seed"] + 1) for r in records):
        problems.append("record seed is not one of the two chain seeds")
    return 2 * p["iters"], problems


def check_mersenne(op: dict, rundir: Path) -> tuple[int, list[str]]:
    p = op["params"]
    if "from_results" in p:
        p0 = max(r["value"] for r in read_records(rundir / p["from_results"]))
    else:
        p0 = p["p0"]
    keep = p["keep"]
    records = read_records(rundir / p["records"])
    problems = check_records(records, kind="mersenne-exponent", p0=p0,
                             after=p["burnin"], until=p["burnin"] + keep)
    found = {r["value"] for r in records}
    for exponent, q, bits in op.get("factors", []):
        if not (q % (2 * exponent) == 1 and 1 < q < 1 << bits and pow(2, exponent, q) == 1):
            problems.append(f"reported trial factor {q} does not divide 2^{exponent}-1")
        if exponent in found:
            problems.append(f"{exponent} was factored out but still recorded")
    return p["burnin"] + keep, problems


# ---------------------------------------------------------------------------
# Integer services
# ---------------------------------------------------------------------------


#: Composites that pass Miller-Rabin for several small bases, and edge values.
HARD_CASES = (0, 1, 2, 3, 4, 561, 41041, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 18446744073709551557,
              18446744073709551615)


def write_verify_input(path: Path, seed: int, count: int) -> list[bool]:
    """Integers for ``verify``: primes, semiprimes, random u64 and hard cases.

    Returns the expected verdict for each line, by ``sympy.isprime``.
    """
    rng = random.Random(f"verify/{seed}")

    def random_prime(bits):
        while True:
            n = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
            if sympy.isprime(n):
                return n

    values = list(HARD_CASES)
    values += [random_prime(64) for _ in range(count // 10)]
    values += [random_prime(32) * random_prime(32) for _ in range(count // 10)]
    values += [rng.getrandbits(64) for _ in range(count - len(values))]
    rng.shuffle(values)
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return [bool(sympy.isprime(v)) for v in values]


def check_verify(op: dict, rundir: Path, expected: list[bool]) -> tuple[int, list[str]]:
    lines = (rundir / op["stdout"]).read_text(encoding="utf-8").splitlines()
    values = (rundir / op["params"]["input"]).read_text(encoding="utf-8").split()
    problems = []
    if len(lines) != len(expected) + 1:
        return 0, [f"{len(lines) - 1} verdict lines for {len(expected)} integers"]
    for i, (line, value, want) in enumerate(zip(lines, values, expected), start=1):
        if line != f"line {i}: {value} {'prime' if want else 'COMPOSITE'}":
            problems.append(f"wrong verdict: {line!r}")
    n_prime = sum(expected)
    summary = f"{len(expected)} entries: {n_prime} prime, {len(expected) - n_prime} composite, 0 unparseable"
    if lines[-1] != summary:
        problems.append(f"summary {lines[-1]!r} != {summary!r}")
    return len(expected), problems


def check_ll(op: dict, rundir: Path) -> tuple[int, list[str]]:
    top = op["params"]["max_exponent"]
    lines = (rundir / op["stdout"]).read_text(encoding="utf-8").splitlines()
    want = [p for p in ops.KNOWN_LL_EXPONENTS if p <= top]
    expected = [f"2^{p}-1 is prime ({mersenne_digits(p)} digits)" for p in want]
    expected.append(f"{len(want)} Mersenne exponents up to {top}: {want}")
    if lines != expected:
        return 0, [f"ll-check printed {lines!r}, want {expected!r}"]
    return int(sympy.primepi(top)) - 1, []


def check_sieve(op: dict, rundir: Path) -> tuple[int, list[str]]:
    limit = op["params"]["limit"]
    got = json.loads((rundir / op["params"]["summary"]).read_text(encoding="utf-8"))
    problems = []
    if got["count"] != int(sympy.primepi(limit)):
        problems.append(f"{got['count']} primes up to {limit}, want pi(limit)")
    want = [prime_at_or_below(limit)]
    while len(want) < len(got["last"]):
        want.append(int(sympy.prevprime(want[-1])))
    if got["last"] != want[::-1]:
        problems.append(f"largest primes {got['last']} != {want[::-1]}")
    sample = got["sample"]
    if sample != sorted(set(sample)) or not all(sympy.isprime(v) for v in sample):
        problems.append("sampled table entries are not ascending primes")
    return limit, problems


def check_op(op: dict, rundir: Path, verdicts: list[bool] | None = None) -> tuple[int, list[str]]:
    """``(work units, problems)`` for one op that ran without error."""
    cmd = op["cmd"]
    try:
        if cmd == "diagnose":
            return check_diagnose(op, rundir)
        if cmd == "compare-models":
            return check_compare_models(op, rundir)
        if cmd == "equivalence":
            return check_equivalence(op, rundir)
        if cmd == "simulate-nhpp":
            return check_simulate(op, rundir)
        if cmd == "hunt":
            return check_hunt(op, rundir)
        if cmd == "mersenne":
            return check_mersenne(op, rundir)
        if cmd == "verify":
            return check_verify(op, rundir, verdicts)
        if cmd == "ll-check":
            return check_ll(op, rundir)
        if cmd == "sieve":
            return check_sieve(op, rundir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return 0, [f"unreadable output: {exc!r}"]
    raise ValueError(f"no check for command {cmd!r}")
