"""The benchmark's sieve sizes straddle one sieve segment.

``primes_up_to`` has one segmented loop.  The ``integer`` workload's sieve is
meant to run it over several segments and the ``posterior`` workload's over
one, so a change to ``numtheory._SEGMENT`` or to the sizes in
``bench/ops.py`` must not quietly move both cases to the same side.  This test
reads the sizes (without changing them) and checks that they straddle it.
"""

import importlib.util
from pathlib import Path

from prime_oracle import numtheory

OPS = Path(__file__).resolve().parents[1] / "bench" / "ops.py"


def _load_ops():
    spec = importlib.util.spec_from_file_location("bench_ops", OPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FULL = _load_ops().FULL


def test_integer_sieve_spans_several_segments():
    # ops.py draws the limit from sieve_base + [sieve_extra // 3, sieve_extra)
    smallest = FULL["sieve_base"] + FULL["sieve_extra"] // 3
    assert smallest >= numtheory._SEGMENT


def test_posterior_sieve_fits_one_segment():
    assert FULL["posterior_limit"] < numtheory._SEGMENT
