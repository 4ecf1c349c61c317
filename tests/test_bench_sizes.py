"""The benchmark's sizes sit where its workloads mean them to.

``primes_up_to`` has one segmented loop.  The ``integer`` workload's sieve is
meant to run it over several segments and the ``posterior`` workload's over
one, so a change to ``numtheory._SEGMENT`` or to the sizes in
``bench/ops.py`` must not quietly move both cases to the same side.  The
``nhpp`` workload's draws must stay below ``nhpp.NHPP_EVENT_CEILING``, or
every timed op would be a refusal.  These tests read the sizes (without
changing them) and check both.
"""

import importlib.util
from pathlib import Path

from prime_oracle import nhpp, numtheory
from prime_oracle.specialfn import ErrorBoundModel, IntensityParams

OPS = Path(__file__).resolve().parents[1] / "bench" / "ops.py"


def _load_ops():
    spec = importlib.util.spec_from_file_location("bench_ops", OPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_OPS = _load_ops()
FULL = BENCH_OPS.FULL


def test_integer_sieve_spans_several_segments():
    # ops.py draws the limit from sieve_base + [sieve_extra // 3, sieve_extra)
    smallest = FULL["sieve_base"] + FULL["sieve_extra"] // 3
    assert smallest >= numtheory._SEGMENT


def test_posterior_sieve_fits_one_segment():
    assert FULL["posterior_limit"] < numtheory._SEGMENT


def test_nhpp_draws_stay_below_event_ceiling():
    params = IntensityParams(BENCH_OPS.NHPP_ALPHA, BENCH_OPS.NHPP_BETA)
    for label in (*BENCH_OPS.NHPP_MODELS, BENCH_OPS.NHPP_PROBE_MODEL):
        expected = nhpp.cumulative_intensity(
            ErrorBoundModel.parse(label), params, 2.0, FULL["nhpp_horizon"]
        )
        assert expected < nhpp.NHPP_EVENT_CEILING, label
