"""Tests of the benchmark itself: tracing arithmetic, patching, output, checks.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ops  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] opens b [1, 4] (which opens c [2, 3]) and then d [5, 9].
    tracer = spans.Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit(error=True)
    tracer.exit()
    got = {n: (s.calls, s.s, s.self_s, s.errors) for n, s in tracer.spans.items()}
    assert got == {"a": (1, 10, 3, 0), "b": (1, 3, 2, 0), "c": (1, 1, 1, 0), "d": (1, 4, 4, 1)}


def test_generator_span_counts_one_call_and_only_its_own_resumes():
    tracer = spans.Tracer(clock=ScriptedClock(0, 1, 2, 10, 11, 12, 13, 14))

    def numbers():
        yield 1
        yield 2

    traced = spans._wrap_generator(tracer, "gen", numbers, "gen.iterations")
    tracer.enter("consumer")  # t=0
    for _ in traced():  # resumes [1, 2], [10, 11], [12, 13] (exhausted)
        pass
    tracer.exit()  # t=14
    gen, consumer = tracer.spans["gen"], tracer.spans["consumer"]
    assert (gen.calls, gen.s, tracer.counters["gen.iterations"]) == (1, 3, 2)
    assert (consumer.s, consumer.self_s) == (14, 11)


def _bindings():
    import prime_oracle
    modules = [prime_oracle] + [__import__(f"prime_oracle.{m}", fromlist=["_"])
                                for m in spans.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_wrappers_are_restored_after_a_traced_run(tmp_path, monkeypatch):
    from prime_oracle import cli, numtheory, pipeline

    before = _bindings()
    tracer = spans.Tracer()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            # the name pipeline imported is patched as well as the module's own
            assert pipeline.is_prime_u64 is numtheory.is_prime_u64
            assert pipeline.is_prime_u64 is not before[("prime_oracle.pipeline", "is_prime_u64")]
            assert cli.main(["ll-check", "--max-exponent", "20"]) == 0
            raise RuntimeError("the traced run failed")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans["cli.main"].calls == 1
    assert tracer.spans["numtheory.lucas_lehmer"].calls == 7  # odd primes 3..19


def test_benchmark_json_lists_exactly_what_the_benchmark_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)


def _run_all(trace: int, seed: int = 5) -> tuple[list[dict], dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.splitlines()
    details = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    return details, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_smoke():
    return _run_all(trace=1)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric_with_its_unit(trace, traced_smoke):
    details, result = traced_smoke if trace else _run_all(trace=0)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {f"{w}.{m['name']}": m["unit"] for w in ops.WORKLOADS for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [d["workload"] for d in details] == list(ops.WORKLOADS)
    nhpp = details[ops.WORKLOADS.index("nhpp")]
    assert nhpp["known_defect"]["attempted"] == ops.SMOKE["nhpp_probe_reps"] * (1 + trace)


def test_traced_counts_repeat_exactly_for_a_seed(traced_smoke):
    _, first = traced_smoke
    _, second = _run_all(trace=1)
    counts = {f"{w}.{m['name']}" for w in ops.WORKLOADS for m in SPEC["per_layer"]
              if m["unit"] in ("count", "ratio", "count/event")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def _hunt_op(tmp_path: Path, values: list[int]) -> dict:
    lines = [oracle.FILE_HEADER] + [json.dumps({
        "value": v, "kind": "general-prime", "p0": ops.HUNT_P0, "k": 87846, "seed": 7,
        "iteration_found": 5, "target_kind": "general-h1", "digit_count": None})
        for v in values]
    (tmp_path / "hunt.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"cmd": "hunt", "kind": "cli", "error": None, "seconds": 0.5,
            "params": {"p0": ops.HUNT_P0, "iters": 100, "seed": 7, "records": "hunt.jsonl"}}


def test_an_injected_composite_record_is_counted_as_a_failure(tmp_path):
    good = _hunt_op(tmp_path, [1_000_003])
    run.check_ops([good], tmp_path, None)
    assert good["problems"] == []
    bad = _hunt_op(tmp_path, [1_000_003, 1_000_001])  # 1000001 = 101 * 9901
    records = [bad]
    run.check_ops(records, tmp_path, None)
    assert bad["problems"] == ["1000001 is not prime"]
    assert run.tally(records) == (1, 1, 1)


def test_an_injected_wrong_verdict_is_counted_as_a_failure(tmp_path):
    expected = oracle.write_verify_input(tmp_path / ops.VERIFY_INPUT, 3, 40)
    values = (tmp_path / ops.VERIFY_INPUT).read_text().split()
    lines = [f"line {i}: {v} {'prime' if p else 'COMPOSITE'}"
             for i, (v, p) in enumerate(zip(values, expected), start=1)]
    lines[5] = lines[5].replace("COMPOSITE", "prime") if "COMPOSITE" in lines[5] \
        else lines[5].replace("prime", "COMPOSITE")
    n_prime = sum(expected)
    lines.append(f"{len(values)} entries: {n_prime} prime, {len(values) - n_prime} composite, "
                 "0 unparseable")
    (tmp_path / "verify.out").write_text("\n".join(lines) + "\n")
    op = {"cmd": "verify", "kind": "cli", "error": None, "seconds": 0.1,
          "stdout": "verify.out", "params": {"input": ops.VERIFY_INPUT}}
    run.check_ops([op], tmp_path, expected)
    assert len(op["problems"]) == 1 and op["problems"][0].startswith("wrong verdict")
