"""Benchmark for prime-oracle: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload posterior --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run measures the set-up time of a fresh interpreter, then starts one
worker process (``worker.py``) that runs the workload's ops for ``--seconds``,
then checks every output against ``oracle.py``.  With ``--trace 1`` the
worker instead runs one round untraced and once more with every public
function of the program wrapped (``spans.py``), and the per-layer metrics
are reported.  Times are calibrated against a reference kernel timed next to
each sample (``calib.py``), which cancels the host's drifting speed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Before it, each workload prints
one JSON object of details (the machine, the settings, each command's median
and tail latency under its own name, the error rate and the known-defect
probe) and one readable line per metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import calib
import ops
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed per run for ``setup_s``; one more runs first,
#: untimed, so that compiling the bytecode cache is never measured.
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: ``(name, unit)`` of every end-to-end metric; each workload reports all.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("cmd_median_s", "s"),
)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(nproc) for var in THREAD_VARS})
    return env


#: Importing is interpreter work: unmarshalling and running module code.
SETUP_REFERENCE = "interpreted"
#: Run in each set-up sample: report the import, then time the reference
#: kernel in the same process, right after it.
SETUP_CHILD = ("import prime_oracle, prime_oracle.cli\n"
               "print('imported', flush=True)\n"
               "import calib\n"
               f"print(calib.reference_kernel({SETUP_REFERENCE!r}))\n")


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """``(seconds, reference seconds)`` from starting an interpreter to ``prime_oracle.cli`` imported."""
    env = {**env, "PYTHONPATH": os.pathsep.join([env["PYTHONPATH"], str(BENCH)])}
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                imported = child.stdout.readline() == "imported\n"
                seconds = time.perf_counter() - start
                ref_s = float(child.stdout.readline())
                child.wait(timeout=60)
            finally:
                child.kill()
        if not imported or child.returncode != 0:
            raise RuntimeError("prime_oracle.cli could not be imported")
        if i:
            samples.append((seconds, ref_s))
    return samples


def latency_summary(times: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(times) if times else None, "n": len(times),
           "tail_pct": None, "tail": None}
    ordered = sorted(times)
    for pct in PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = ordered[math.ceil(pct / 100 * len(ordered)) - 1]
            break
    return out


def check_ops(records: list[dict], rundir: Path, verdicts) -> None:
    """Annotate each op record with its work units and any check problems."""
    for rec in records:
        if rec["error"] is None:
            rec["work"], rec["problems"] = oracle.check_op(rec, rundir, verdicts)
        else:
            rec["work"], rec["problems"] = 0, [rec["error"]]


def tally(records: list[dict]) -> tuple[int, int, int]:
    """Timed ops attempted, timed ops failed, and outputs of any op that failed a check.

    The known-defect probe ops are not timed; their exceptions are reported
    apart, but a probe output that fails its check is still a wrong output.
    """
    timed = [r for r in records if not r.get("probe")]
    failed = sum(1 for r in timed if r["problems"])
    wrong = sum(1 for r in records if r["error"] is None and r["problems"])
    return len(timed), failed, wrong


def summarize(workload: str, records: list[dict]) -> tuple[dict, dict]:
    """End-to-end values and per-command details from checked op records.

    Latencies and rates use calibrated seconds (see ``calib.py``); each
    command's raw median is kept in the details.
    """
    timed = [r for r in records if not r.get("probe")]
    good = [r for r in timed if not r["problems"]]
    for r in good:
        r["cal_s"] = calib.calibrated(r["seconds"], r["ref_s"], ops.REFERENCE[workload])
    unit, work_cmds = ops.WORK[workload]
    details = {}
    medians = []
    work = seconds = 0.0
    for cmd in dict.fromkeys(r["cmd"] for r in timed):
        mine = [r for r in good if r["cmd"] == cmd]
        s = latency_summary([r["cal_s"] for r in mine])
        s["raw_median"] = statistics.median(r["seconds"] for r in mine) if mine else None
        details[f"{cmd.replace('-', '_')}_s"] = {"unit": "s", **s}
        if not mine:
            continue
        medians.append(s["median"])
        if cmd in work_cmds:
            # a round's work over a round's time, each op at its command's median
            work += len(mine) * statistics.median(r["work"] for r in mine)
            seconds += len(mine) * s["median"]
    rate = work / seconds if seconds else 0.0
    details[f"{unit}_per_s"] = {"unit": "1/s", "value": rate}
    cmd_median = math.exp(statistics.fmean(map(math.log, medians))) if medians else 0.0
    return {"work_per_s": rate, "cmd_median_s": cmd_median}, details


def probe_report(records: list[dict]) -> dict | None:
    probes = [r for r in records if r.get("probe")]
    if not probes:
        return None
    errors = sorted({r["error"] for r in probes if r["error"]})
    return {"what": "simulate under x-over-log raises DomainError when an event lands below e",
            "attempted": len(probes), "failed": sum(1 for r in probes if r["problems"]),
            "errors": errors}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    info = machine()
    env = worker_env(info["nproc"])
    load_start = os.getloadavg()
    rundir = OUT / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        verdicts = None
        if workload == "integer":
            verdicts = oracle.write_verify_input(rundir / ops.VERIFY_INPUT, seed,
                                                 ops.sizes(smoke)["verify_count"])
        setup = measure_setup(env)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=rundir, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads((rundir / "result.json").read_text(encoding="utf-8"))
        records = result["ops"]
        check_ops(records, rundir, verdicts)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            OUT.rmdir()

    attempted, failed, wrong = tally(records)
    values, details = summarize(workload, records)
    values["setup_s"] = statistics.median(
        calib.calibrated(s, ref_s, SETUP_REFERENCE) for s, ref_s in setup)
    values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    probe = probe_report(records)
    all_failed = failed + (probe["failed"] if probe else 0)
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "machine": info,
        "settings": {"seconds": seconds, "rounds": result["rounds"], "smoke": smoke,
                     "sizes": ops.sizes(smoke), "setup_spawns": SETUP_SPAWNS,
                     "threads": env[THREAD_VARS[0]], "worker": "one process at a time"},
        "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
        "calibration": {"kernel": ops.REFERENCE[workload],
                        "nominal_s": calib.NOMINAL_S[ops.REFERENCE[workload]],
                        "ref_median_s": statistics.median(r["ref_s"] for r in records)},
        "setup_raw_s": [x[0] for x in setup],
        "commands": details,
        "error_rate": all_failed / len(records),
        "known_defect": probe,
        "problems": [f"{r['cmd']}: {p}" for r in records for p in r["problems"]
                     if not r.get("probe")][:20],
    }
    if trace:
        layer = result["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
        module_self = {m: layer[f"{m}.self_s"] for m in (*spans.MODULES, "bench")}
        total = math.fsum(module_self.values())
        detail["self_time_share"] = {m: v / total if total else 0.0
                                     for m, v in module_self.items()}
        detail["trace_overhead"] = {"untraced_s": layer["trace.untraced_s"],
                                    "traced_s": layer["trace.traced_s"],
                                    "overhead_s": layer["trace.overhead_s"]}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"detail": detail,
            "result": {"correct": not failed and not wrong, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="prime-oracle benchmark")
    parser.add_argument("--workload", choices=(*ops.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "prime_oracle" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'prime_oracle'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = ops.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(runs[name]["detail"]))
        for metric, m in runs[name]["result"]["metrics"].items():
            print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(runs[names[0]]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{n}.{k}": v for n, r in runs.items()
                        for k, v in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
