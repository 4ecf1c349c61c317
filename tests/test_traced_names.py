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


def test_chain_stats_reads_the_move_counters():
    # the traced bench run sums the chain's counters by attribute name
    pipeline = importlib.import_module(f"{spans.PACKAGE}.pipeline")
    tmcmc = importlib.import_module(f"{spans.PACKAGE}.tmcmc")
    target = tmcmc.HuntTarget(tmcmc.TargetKind.GENERAL_H1, 999_983, 87_846)
    result = pipeline.collect_candidates(target, tmcmc.TmcmcConfig(seed=3), 2000)
    tracer = spans.Tracer()
    spans._chain_stats(tracer, (), {}, result)
    counted = {key.removeprefix("tmcmc."): value for key, value in tracer.counters.items()}
    assert tuple(counted) == tmcmc.MOVE_COUNTERS
    assert counted == {name: getattr(result.chain, name) for name in tmcmc.MOVE_COUNTERS}
    assert counted["proposals_add"] + counted["proposals_mult"] == 2000


def test_verify_counter_reads_the_report(tmp_path):
    # the traced bench run counts ``len(report.entries)`` after every verify_file
    pipeline = importlib.import_module(f"{spans.PACKAGE}.pipeline")
    path = tmp_path / "ints.txt"
    path.write_text("# header\n7\n\n9\nzzz\n-3\n")
    report = pipeline.verify_file(path)
    tracer = spans.Tracer()
    spans.AFTER["pipeline.verify_file"](tracer, (path,), {}, report)
    assert tracer.counters == {"pipeline.verify_file.entries": 4}
