"""The functions the benchmark's traced run wraps still exist.

``bench/spans.py`` looks up every name in its ``TRACED`` table, and
``tmcmc.make_log_target``, as module attributes of ``prime_oracle``.  A
refactor that drops or renames one of them breaks only the traced bench run,
so this test reads the table (without changing it) and checks each name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TRACED = [(m, name) for m, names in spans.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_is_a_function(module, name):
    mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
    assert inspect.isfunction(getattr(mod, name, None)), f"{module}.{name}"


def test_log_target_factory_exists():
    tmcmc = importlib.import_module(f"{spans.PACKAGE}.tmcmc")
    assert inspect.isfunction(getattr(tmcmc, "make_log_target", None))
