"""Start-up guard: the commands that never evaluate ``Li`` or ``gammaln`` run
without loading scipy, and nothing loads a process pool.

Importing ``scipy.special`` costs about as much as the rest of the package's
start-up together, so ``specialfn.Li`` and the posteriors' ``pdf`` (through
``gammaln``) import it on first use.  The probe runs in a fresh interpreter
(this one has scipy loaded by the test configuration) and records after each
step whether scipy is in ``sys.modules``.  ``diagnose`` evaluates ``Li``, so scipy must be
loaded once it has run: that shows the probe can see a loaded scipy.
The two-core paths (the hunt's chains, ``ll-check``'s Lucas-Lehmer tests and
a long ``primes_up_to``) fork one bare worker, so neither ``multiprocessing``
nor ``concurrent.futures`` may be loaded after any step, except
``concurrent.futures`` once ``diagnose`` has loaded scipy, which imports it.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import contextlib, io, json, pathlib, sys

import prime_oracle, prime_oracle.cli
from prime_oracle import numtheory
from prime_oracle.cli import main

tmp = pathlib.Path(sys.argv[1])
numbers = tmp / "numbers.txt"
numbers.write_text("7\n91\n140000053\n")
records, exponents = str(tmp / "records.jsonl"), str(tmp / "exponents.jsonl")
steps = [
    ("verify", ["verify", str(numbers)]),
    ("ll-check", ["ll-check", "--max-exponent", "200"]),
    ("hunt", ["hunt", "--p0", "1000033", "--iters", "2000", "--seed", "7", "--out", records]),
    ("mersenne --from-results", ["mersenne", "--from-results", records,
        "--burnin", "1000", "--keep", "1000", "--seed", "3", "--out", exponents]),
    ("mersenne --trial-factor-bits", ["mersenne", "--p0", "1000037", "--burnin", "1000",
        "--keep", "1000", "--seed", "3", "--trial-factor-bits", "24", "--out", exponents]),
    # past the two-core cut, so it forks where two CPUs are usable
    ("primes_up_to", lambda: 0 if len(numtheory.primes_up_to(3 * numtheory._SEGMENT
        * numtheory._TWO_CORE_SEGMENTS)) else 1),
    ("diagnose", ["diagnose", "--model", "rh-sqrt", "--limit", "1000",
        "--out", str(tmp / "diag.csv")]),
]

def loaded():
    return ("scipy" in sys.modules,
            [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])

seen = [("import", 0, *loaded())]
for name, step in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        code = step() if callable(step) else main(step)
    seen.append((name, code, *loaded()))
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_li_or_gammaln_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = {name: (code, scipy, pools) for name, code, scipy, pools in json.loads(done.stdout)}
    assert list(seen) == [
        "import",
        "verify",
        "ll-check",
        "hunt",
        "mersenne --from-results",
        "mersenne --trial-factor-bits",
        "primes_up_to",
        "diagnose",
    ]
    assert all(code == 0 for code, _, _ in seen.values()), seen
    assert {name for name, (_, scipy, _) in seen.items() if scipy} == {"diagnose"}, seen
    # scipy.special imports concurrent.futures itself
    assert {name: pools for name, (_, _, pools) in seen.items() if pools} == {
        "diagnose": ["concurrent.futures"]}, seen
