"""Per-layer tracing recorded from outside the program.

The traced run replaces the public functions of each ``prime_oracle`` module
with wrappers that open a span around every call.  Each replaced function is
patched under every name that refers to it, including names that callers
imported into their own namespace (``pipeline.is_prime_u64``, ``nhpp.Li``,
``recursive_bayes.error_integral``, ...), and every attribute is restored
when the run ends.  Nothing under ``src/`` changes.

Spans are aggregated as they close, not kept: a posterior round opens
millions of them.  A span's self time is its duration minus the time covered
by the spans it opened (its children).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

PACKAGE = "prime_oracle"
MODULES = ("cli", "numtheory", "specialfn", "nhpp", "recursive_bayes",
           "nonrecursive_bayes", "tmcmc", "pipeline")

#: Functions wrapped in the traced run.  ``tmcmc.make_log_target`` is also
#: wrapped, so that the closure it returns is traced as ``tmcmc.log_target``.
TRACED = {
    "cli": ("main",),
    "numtheory": ("primes_up_to", "is_prime_u64", "lucas_lehmer"),
    "specialfn": ("Li", "li", "error_integral", "error_density"),
    "nhpp": ("simulate", "cumulative_intensity", "pnt_ratio_check", "nth_event_check",
             "gap_window_check"),
    "recursive_bayes": ("init", "update", "trajectory", "log_posterior_predictive",
                        "model_compare_log_ratio", "posterior_mean_alpha",
                        "posterior_var_alpha", "posterior_mean_beta", "posterior_var_beta"),
    "nonrecursive_bayes": ("build", "equivalence_report"),
    "tmcmc": ("run_steps",),
    "pipeline": ("hunt_general", "hunt_mersenne", "collect_candidates",
                 "mersenne_small_factor", "write_records", "load_records", "verify_file"),
}

#: The span the worker opens around each op; its self time is harness time.
OP_SPAN = "bench.op"


class SpanStats:
    __slots__ = ("calls", "s", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Aggregates nested spans into call counts, total time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        #: ``(p, q, bits)`` for every factor ``mersenne_small_factor`` returned.
        self.factors: list[tuple[int, int, int]] = []
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, *, error: bool = False, call: bool = True) -> None:
        """Close the innermost span.

        ``call=False`` adds time without counting a call; a generator's span
        is closed at every ``yield`` and reopened at every resume.
        """
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        st = self.spans[name]
        st.s += elapsed
        st.self_s += elapsed - child
        st.calls += call
        st.errors += error
        if self._stack:
            self._stack[-1][2] += elapsed


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(error=True)
            raise
        tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, count_key: str):
    """A span that covers the generator's own work, resume by resume."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        first = True
        yielded = 0
        try:
            while True:
                tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.exit(call=first)
                    return
                except BaseException:
                    tracer.exit(error=True, call=first)
                    raise
                tracer.exit(call=first)
                first = False
                yielded += 1
                yield item
        finally:
            gen.close()
            tracer.counters[count_key] += yielded

    return traced


def _elements(index: int, name: str, key: str):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += np.size(_arg(args, kwargs, index, name))
    return after


def _cumulative_elements(tracer, args, kwargs, result):
    tracer.counters["nhpp.cumulative_intensity.elements"] += max(
        np.size(_arg(args, kwargs, 2, "x1")), np.size(_arg(args, kwargs, 3, "x2")))


def _hunt_stats(tracer, args, kwargs, result):
    stats = result.stats
    c = tracer.counters
    c["pipeline.distinct_candidates"] += stats.distinct_candidates
    c["pipeline.skipped_small"] += stats.skipped_small
    c["pipeline.skipped_oversize"] += stats.skipped_oversize
    c["pipeline.factored_out"] += stats.factored_out
    c["pipeline.primes"] += stats.factored_out + sum(len(v) for v in stats.primes_by_target.values())


def _chain_stats(tracer, args, kwargs, result):
    chain = result.chain
    for field in ("proposals_add", "accepts_add", "proposals_mult", "accepts_mult",
                  "auto_rejects"):
        tracer.counters[f"tmcmc.{field}"] += getattr(chain, field)


def _factor(tracer, args, kwargs, result):
    if result is not None:
        tracer.factors.append((int(_arg(args, kwargs, 0, "p")), int(result),
                               int(_arg(args, kwargs, 1, "bits"))))


def _cli_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.spans["cli.main"].errors += 1


def _count(key: str, measure):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += measure(args, kwargs, result)
    return after


AFTER = {
    "cli.main": _cli_exit,
    "numtheory.primes_up_to": _count("numtheory.primes_up_to.elements",
                                     lambda a, k, r: int(_arg(a, k, 0, "limit"))),
    "specialfn.Li": _elements(0, "x", "specialfn.Li.elements"),
    "specialfn.li": _elements(0, "x", "specialfn.li.elements"),
    "specialfn.error_integral": _elements(1, "x", "specialfn.error_integral.elements"),
    "specialfn.error_density": _elements(1, "x", "specialfn.error_density.elements"),
    "nhpp.cumulative_intensity": _cumulative_elements,
    "nhpp.simulate": _count("nhpp.simulate.events", lambda a, k, r: len(r.times)),
    "pipeline.hunt_general": _hunt_stats,
    "pipeline.hunt_mersenne": _hunt_stats,
    "pipeline.collect_candidates": _chain_stats,
    "pipeline.mersenne_small_factor": _factor,
    "pipeline.write_records": _count("pipeline.write_records.records",
                                     lambda a, k, r: len(_arg(a, k, 1, "records"))),
    "pipeline.load_records": _count("pipeline.load_records.records", lambda a, k, r: len(r)),
    "pipeline.verify_file": _count("pipeline.verify_file.entries", lambda a, k, r: len(r.entries)),
}


def _wrappers(tracer: Tracer, modules: dict) -> dict[int, tuple]:
    """Map ``id(original)`` to ``(original, wrapper)`` for every traced function."""
    out = {}
    for mod_name, names in TRACED.items():
        for fn_name in names:
            fn = getattr(modules[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            if inspect.isgeneratorfunction(fn):
                wrapper = _wrap_generator(tracer, name, fn, f"{name}.iterations")
            else:
                wrapper = _wrap(tracer, name, fn, AFTER.get(name))
            out[id(fn)] = (fn, wrapper)
    make = modules["tmcmc"].make_log_target

    @functools.wraps(make)
    def make_traced(*args, **kwargs):
        return _wrap(tracer, "tmcmc.log_target", make(*args, **kwargs))

    out[id(make)] = (make, make_traced)
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced function under every name bound to it; restore on exit."""
    package = importlib.import_module(PACKAGE)
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    wrappers = _wrappers(tracer, modules)
    patched = []
    try:
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        yield patched
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def _fields(fn: str, fields: str) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s", "errors": "count",
             "elements": "count", "events": "count", "iterations": "count",
             "records": "count", "entries": "count"}
    better = {"errors": "lower"}
    return [(f"{fn}.{f}", units[f], better.get(f, "lower")) for f in fields.split()]


#: Every per-layer metric: ``(name, unit, better)``.  BENCHMARK.json lists
#: the same names in the same order.
PER_LAYER: list[tuple[str, str, str]] = [
    *_fields("cli.main", "calls s self_s errors"),
    *_fields("numtheory.primes_up_to", "calls s elements"),
    *_fields("numtheory.is_prime_u64", "calls s"),
    *_fields("numtheory.lucas_lehmer", "calls s"),
    *(m for fn in ("Li", "li", "error_integral", "error_density")
      for m in _fields(f"specialfn.{fn}", "calls elements")),
    *_fields("nhpp.simulate", "calls s self_s errors events"),
    *_fields("nhpp.cumulative_intensity", "calls s elements"),
    ("nhpp.elements_per_event", "count/event", "lower"),
    *(m for fn in ("init", "update", "trajectory", "log_posterior_predictive",
                   "model_compare_log_ratio")
      for m in _fields(f"recursive_bayes.{fn}", "calls s self_s")),
    *(m for fn in ("posterior_mean_alpha", "posterior_var_alpha", "posterior_mean_beta",
                   "posterior_var_beta")
      for m in _fields(f"recursive_bayes.{fn}", "calls s")),
    *(m for fn in ("build", "equivalence_report")
      for m in _fields(f"nonrecursive_bayes.{fn}", "calls s self_s")),
    *_fields("tmcmc.run_steps", "calls iterations s self_s"),
    *_fields("tmcmc.log_target", "calls s"),
    ("tmcmc.accept_rate_add", "ratio", "higher"),
    ("tmcmc.accept_rate_mult", "ratio", "higher"),
    ("tmcmc.auto_rejects", "count", "lower"),
    *_fields("pipeline.collect_candidates", "calls s self_s"),
    ("pipeline.distinct_candidates", "count", "higher"),
    ("pipeline.prime_yield", "ratio", "higher"),
    ("pipeline.skipped_small", "count", "lower"),
    ("pipeline.skipped_oversize", "count", "lower"),
    ("pipeline.factored_out", "count", "higher"),
    *_fields("pipeline.mersenne_small_factor", "calls s"),
    *_fields("pipeline.write_records", "calls s records"),
    *_fields("pipeline.load_records", "calls s records"),
    *_fields("pipeline.verify_file", "calls s entries"),
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    ("bench.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Values of every ``PER_LAYER`` metric; layers a workload never calls read 0."""
    c = tracer.counters
    values: dict[str, float] = dict(c)
    for name, st in tracer.spans.items():
        values.update({f"{name}.calls": st.calls, f"{name}.s": st.s,
                       f"{name}.self_s": st.self_s, f"{name}.errors": st.errors})
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            st.self_s for name, st in tracer.spans.items() if name.startswith(f"{module}."))
    values["bench.self_s"] = tracer.spans[OP_SPAN].self_s if OP_SPAN in tracer.spans else 0.0
    values["nhpp.elements_per_event"] = _ratio(c["nhpp.cumulative_intensity.elements"],
                                               c["nhpp.simulate.events"])
    values["tmcmc.accept_rate_add"] = _ratio(c["tmcmc.accepts_add"], c["tmcmc.proposals_add"])
    values["tmcmc.accept_rate_mult"] = _ratio(c["tmcmc.accepts_mult"], c["tmcmc.proposals_mult"])
    values["pipeline.prime_yield"] = _ratio(c["pipeline.primes"], c["pipeline.distinct_candidates"])
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: values.get(name, 0) for name, _unit, _better in PER_LAYER}
