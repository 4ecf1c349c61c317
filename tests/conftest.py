import collections
import os
import pathlib
import signal
import sys

import pytest

from prime_oracle.numtheory import primes_up_to

import procs

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child of this process running or unreaped (Linux only).

    The children are then killed and reaped, so the next test starts clean.
    """
    if sys.platform != "linux":
        yield
        return
    before = set(procs.children(os.getpid()))
    yield
    left = sorted(set(procs.children(os.getpid())) - before)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if left:
        pytest.fail(f"the test left child processes {left}")


@pytest.fixture(scope="session")
def primes_2e6():
    """Primes to 2e6: enough for the million-threshold diagnostics plus the
    next prime after any stage checkpoint."""
    return primes_up_to(2_000_000)


@pytest.fixture(scope="session")
def exact_at_1e6(primes_2e6):
    """Exact posterior moments under the flat prior at pi(1e6), by model label.

    The primes start at 3 for the x-over-log and MT models, whose densities
    are not positive at 2.
    """
    from prime_oracle import nonrecursive_bayes as nb
    from prime_oracle.recursive_bayes import Hyperparameters
    from prime_oracle.specialfn import MT, RH_SQRT, X_OVER_LOG, rh_eps

    primes = primes_2e6.primes[primes_2e6.primes <= 1_000_000]
    return {
        model.label: nb.build(primes[first:], Hyperparameters(), model).moments()
        for model, first in ((RH_SQRT, 0), (rh_eps(0.1), 0), (MT, 1), (X_OVER_LOG, 1))
    }


@pytest.fixture(scope="session")
def primes_small():
    return primes_up_to(10_000)


@pytest.fixture(scope="session")
def candidate_exponent_file():
    return DATA_DIR / "candidate_exponents.txt"


@pytest.fixture
def specialfn_calls(monkeypatch):
    """Calls to ``specialfn.Li`` and ``specialfn.error_density``, counted by name.

    Each function is wrapped under every ``prime_oracle`` module attribute
    bound to it, since the engines import them by name.
    """
    from prime_oracle import specialfn

    counts = collections.Counter()
    for name in ("Li", "error_density"):
        fn = getattr(specialfn, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "prime_oracle" and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts
