"""Benchmark of floqept: three seeded workloads, checked results, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ep-spectral --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs each pass twice, once plain and once with every public function of the
package wrapped in a span (tracing.py), and reports the per-layer metrics,
per traced pass, plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans are written to ``.perfbench_out/`` when a traced run ends.

A run repeats whole passes of fresh seeded inputs.  The number of passes is
``--seconds`` over the workload's nominal pass time (workloads.NOMINAL_PASS_S),
not over a measured one, so every commit runs the same inputs and the task
count, which sets the tail percentile, does not move with the program's speed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the CLI's --jobs threads times the
# BLAS threads must stay within the processor count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

MAX_MEASURE_S = 120.0  # keeps a run well inside its 180 s limit
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.hb_grid.calls": "count",
    "engine.hb_grid.busy_s": "s",
    "engine.hb_grid.systems": "count",
    "engine.hb_grid.us_per_system": "us",
    "engine.hb_grid.flops_computed": "flop",
    "engine.hb_grid.bytes_computed": "B",
    "engine.hb_point.calls": "count",
    "engine.monodromy.calls": "count",
    "engine.monodromy.self_s": "s",
    "engine.closed_form.calls": "count",
    "engine.closed_form.busy_s": "s",
    "analysis.locate_ep.calls": "count",
    "analysis.locate_ep.indicator_evals": "count",
    "analysis.locate_ep.self_s": "s",
    "analysis.gamma_curve.self_s": "s",
    "analysis.phase_diagram.busy_s": "s",
    "analysis.phase_diagram.cells": "count",
    "fit.calls": "count",
    "fit.busy_s": "s",
    "fit.iterations": "count",
    "fit.converged_ratio": "ratio",
    "bessel.calls": "count",
    "bessel.busy_s": "s",
    "integrate.calls": "count",
    "integrate.busy_s": "s",
    "integrate.rk_steps": "count",
    "integrate.rk_rejected": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.us_per_step": "us",
    "spectral.calls": "count",
    "spectral.busy_s": "s",
    "spectral.dft_terms": "count",
    "observables.spectrum.calls": "count",
    "observables.spectrum.self_s": "s",
    "observables.peaks.calls": "count",
    "observables.peaks.busy_s": "s",
    "observables.beat.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.parallel_efficiency": "ratio",
    "io.busy_s": "s",
    "io.bytes": "B",
    "params.calls": "count",
    "eig.calls": "count",
    "eig.busy_s": "s",
    "trace.overhead_s": "s",
}

# Set-up: a fresh interpreter imports the package and makes one small call
# into the path the workload uses, through the public API only.
SETUP_CALL = {
    "ep-spectral": (
        "floqept.steady_state_grid(floqept.ModelParams(delta0=-3050.0, gamma_c=93.0, "
        "gamma12=20.0, delta_b=4300.0, omega_b=3000.0, n1=1), floqept.SimConfig(truncation_m=5), "
        "1, [-3060.0, -3050.0, -3040.0])"
    ),
    "beat": (
        "floqept.beat_frequency(floqept.ModelParams(delta0=-3950.0, gamma_c=93.0, gamma12=5000.0, "
        "delta_b=150.0, omega_b=3000.0, n1=1), floqept.SimConfig(truncation_m=4, sim_duration=0.003, "
        "rel_tol=1e-6, abs_tol=1e-9))"
    ),
    "cli-sweeps": (
        "import contextlib, io, floqept.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    floqept.cli.main(['validate'])"
    ),
}
SETUP_CHILD = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import floqept
{call}
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Record:
    kind: str
    inputs: str
    jobs: int
    seconds: float
    error: str | None


def import_program():
    """Import floqept from this checkout's ``src`` or stop with exit code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import floqept
    except ImportError as exc:
        print(f"perfbench: cannot import floqept from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(floqept.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: floqept imported from {floqept.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _blas_threads() -> str:
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return f"{int(fn())} (queried)"
    return f"{BLAS_THREADS} (requested)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def machine_facts(jobs_parallel: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": _blas_threads(),
        "nproc": nproc(),
        "jobs_parallel": jobs_parallel,
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str) -> list[float]:
    """Import-plus-first-call times of fresh interpreters; the first one,
    which may compile bytecode, is discarded."""
    code = SETUP_CHILD.format(call=SETUP_CALL[workload])
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_pass(tasks, tracer=None, first_id: int = 0) -> list[Record]:
    records = []
    for offset, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = first_id + offset
        t0 = time.perf_counter()
        try:
            result, error = task.run(), None
        except (Exception, SystemExit) as exc:  # a failing task is counted, not fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                error = task.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append(Record(task.kind, task.inputs, task.jobs, elapsed, error))
    if tracer is not None:
        tracer.task = None
    return records


def passes_for(seconds: float, pass_s: float) -> int:
    return max(1, min(round(seconds / pass_s), int(MAX_MEASURE_S // pass_s)))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten tasks
    beyond it; with ten tasks or fewer, the maximum (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, seed, seconds, size, jobs_parallel, tmp) -> tuple[dict, list[Record], str]:
    import workloads

    setup = measure_setup(workload)
    records, pass_times = [], []
    for index in range(passes_for(seconds, workloads.NOMINAL_PASS_S[workload])):
        tasks = workloads.build_pass(workload, workloads.pass_rng(seed, workload, index),
                                     size, tmp, jobs_parallel)
        done = run_pass(tasks)
        records += done
        pass_times.append(sum(r.seconds for r in done))
    times = [r.seconds for r in records]
    tail_value, tail_pct = tail(times)
    failed = sum(r.error is not None for r in records)
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(pass_times),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_value,
        "ok_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = (f"passes={len(pass_times)} tasks={len(records)} failed={failed}; "
               f"task_tail_s is p{tail_pct:.1f} of {len(records)} tasks "
               f"({min(TAIL_BEYOND, len(records) - 1)} beyond it); "
               f"setup_s is the median of {len(setup)} fresh interpreters")
    return values, records, summary


def traced(workload, seed, seconds, size, jobs_parallel, tmp, facts) -> tuple[dict, list[Record], str]:
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    records, traced_records, plain_times, traced_times = [], [], [], []
    passes = max(1, int(seconds // (2.0 * workloads.NOMINAL_PASS_S[workload])))
    for index in range(passes):
        tasks = workloads.build_pass(workload, workloads.pass_rng(seed, workload, index),
                                     size, tmp, jobs_parallel)
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer:
                    done = run_pass(tasks, tracer, first_id=len(traced_records))
                traced_records += done
                traced_times.append(sum(r.seconds for r in done))
            else:
                done = run_pass(tasks)
                plain_times.append(sum(r.seconds for r in done))
            records += done
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    values, notes = layer_metrics(tracer, traced_records, passes, jobs_parallel)
    values["trace.overhead_s"] = overhead
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps({"facts": facts, "tasks": [r.__dict__ for r in traced_records],
                    "spans": tracer.dump()}) + "\n", encoding="utf-8")
    summary = "\n".join(
        [f"passes={passes} (each run plain and traced) tasks={len(records)}; per-layer values are per traced pass; "
         f"tracing overhead {overhead:+.4f} s on a {statistics.median(plain_times):.3f} s pass; "
         f"{len(tracer.spans)} spans"] + notes)
    return values, records, summary


def layer_metrics(tracer, traced_records: list[Record], passes: int, jobs_parallel: int):
    totals = tracer.layer_totals()
    counts = tracer.counts

    def total(layer, key):
        return totals[layer][key] / passes if layer in totals else 0.0

    def count(layer, key):
        return counts[layer][key] / passes if layer in counts and key in counts[layer] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    v = {}
    for layer in ("engine.hb_grid", "engine.hb_point", "engine.monodromy", "engine.closed_form",
                  "analysis.locate_ep", "analysis.gamma_curve", "analysis.phase_diagram", "fit",
                  "bessel", "integrate", "spectral", "observables.spectrum", "observables.peaks",
                  "observables.beat", "cli", "io", "params", "eig"):
        for key in ("calls", "busy_s", "self_s"):
            v[f"{layer}.{key}"] = total(layer, key)
    for key in ("systems", "flops_computed", "bytes_computed"):
        v[f"engine.hb_grid.{key}"] = count("engine.hb_grid", key)
    v["engine.hb_grid.us_per_system"] = 1e6 * ratio(v["engine.hb_grid.busy_s"], v["engine.hb_grid.systems"])
    v["analysis.locate_ep.indicator_evals"] = count("analysis.locate_ep", "indicator_evals")
    v["analysis.phase_diagram.cells"] = count("analysis.phase_diagram", "cells")
    v["fit.iterations"] = count("fit", "iterations")
    v["fit.converged_ratio"] = ratio(count("fit", "converged"), v["fit.calls"])
    steps, rejected = count("integrate", "rk_steps"), count("integrate", "rk_rejected")
    v["integrate.rk_steps"], v["integrate.rk_rejected"] = steps, rejected
    v["integrate.accept_ratio"] = ratio(steps, steps + rejected)
    v["integrate.us_per_step"] = 1e6 * ratio(v["integrate.busy_s"], steps + rejected)
    v["spectral.dft_terms"] = count("spectral", "dft_terms")
    v["io.bytes"] = count("io", "bytes")
    # --jobs 1 time over jobs_parallel times the parallel time, from the cli spans
    by_jobs = {1: 0.0, jobs_parallel: 0.0}
    for layer, start, end, _parent, task, _thread in tracer.spans:
        if layer == "cli" and task is not None:
            by_jobs[traced_records[task].jobs] += end - start
    parallel = by_jobs[jobs_parallel] if jobs_parallel > 1 else 0.0
    v["cli.parallel_efficiency"] = ratio(by_jobs[1], jobs_parallel * parallel)

    notes = [f"note: {n}" for n in tracer.notes]
    silent = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                     if name.endswith(".calls") and v[name] == 0.0})
    if silent:
        notes.append("note: no calls on this workload, so their metrics read 0: " + ", ".join(silent))
    if jobs_parallel < 2:
        notes.append("note: fewer than 2 processors, cli.parallel_efficiency reads 0")
    return {name: v[name] for name in PER_LAYER if name in v}, notes


# ---------------------------------------------------------------------------


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: the smallest input of each task kind (for the benchmark's tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_program()
    args = parse_args(argv)
    jobs_parallel = max(1, min(2, nproc() // BLAS_THREADS))
    facts = machine_facts(jobs_parallel)
    tmp = TMP_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            values, records, summary = traced(args.workload, args.seed, args.seconds,
                                              args.size, jobs_parallel, tmp, facts)
            units = PER_LAYER
        else:
            values, records, summary = end_to_end(args.workload, args.seed, args.seconds,
                                                  args.size, jobs_parallel, tmp)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [r for r in records if r.error is not None]
    for r in failures:
        print(f"FAILED {r.kind} [{r.inputs}]: {r.error}", file=sys.stderr)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(summary)
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
