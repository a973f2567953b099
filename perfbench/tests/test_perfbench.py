"""Tests of the benchmark itself: tiny runs print every declared metric with
its unit, and the checks reject wrong results.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import floqept.analysis  # noqa: E402
import floqept.cli  # noqa: E402
import floqept.engine  # noqa: E402
import floqept.observables  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, float) and np.isfinite(value)
        assert any(line.split()[:1] == [metric["name"]] for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _perturbed_records(workload, monkeypatch, patches):
    for module, name, make in patches:
        monkeypatch.setattr(module, name, make(getattr(module, name)))
    tmp = run.TMP_DIR / f"test-{os.getpid()}"
    try:
        tasks = workloads.build_pass(workload, workloads.pass_rng(SEED, workload, 0), "tiny", tmp, 2)
        return run.run_pass(tasks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _altered(field, change):
    """Wrap a function so one field of its (frozen dataclass) result is changed."""
    def make(orig):
        def altered(*args, **kwargs):
            result = orig(*args, **kwargs)
            return dataclasses.replace(result, **{field: change(getattr(result, field))})
        return altered
    return make


def _flip_first_cell(orig):
    def flipped(*args, **kwargs):
        grid = orig(*args, **kwargs).copy()
        grid[0, 0] = (grid[0, 0] + 1) % 3
        return grid
    return flipped


SHIFT_EP = _altered("gamma_eff", lambda g: g + 10.0)  # mu* moves by 20 Hz
PERTURBATIONS = {
    "ep-spectral": [(floqept.analysis, "locate_ep", SHIFT_EP)],
    "beat": [(floqept.observables, "beat_frequency", _altered("frequency", lambda f: f + 100.0))],
    "cli-sweeps": [(floqept.cli, "locate_ep", SHIFT_EP),
                   (floqept.cli, "phase_diagram", _flip_first_cell),
                   (floqept.cli, "monodromy_quasienergies",
                    _altered("values", lambda vs: tuple(v + 0.1 for v in vs)))],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_results_count_as_failed(workload, monkeypatch):
    records = _perturbed_records(workload, monkeypatch, PERTURBATIONS[workload])
    assert records
    assert [r.kind for r in records if r.error is None] == []


def test_failing_task_is_counted_not_fatal(monkeypatch):
    def boom(*a, **k):
        raise floqept.engine.EngineError("injected")

    records = _perturbed_records("beat", monkeypatch, [(floqept.observables, "beat_frequency", lambda orig: boom)])
    assert [r.error for r in records] == ["raised EngineError: injected"]


def test_reference_bessel_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for n in range(4):
        for x in np.linspace(0.0, 12.0, 25):
            assert ref.bessel_j(n, x) == pytest.approx(special.jv(n, x), abs=1e-13)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(25)]
    assert run.tail(times) == (14.0, 60.0)
    assert run.tail(times[:10]) == (9.0, 100.0)


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli", 0.0, 10.0, None, 0, 1],
        ["integrate", 1.0, 4.0, 0, 0, 2],  # two worker threads overlap
        ["integrate", 3.0, 6.0, 0, 0, 3],
        ["spectral", 6.5, 7.5, 0, 0, 1],
        ["spectral", 6.7, 7.0, 3, 0, 1],  # nested in the same layer
    ]
    totals = tracer.layer_totals()
    assert totals["cli"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["integrate"]["busy_s"] == pytest.approx(6.0)
    assert totals["spectral"]["calls"] == 1
    assert totals["spectral"]["busy_s"] == pytest.approx(1.0)
    assert totals["spectral"]["self_s"] == pytest.approx(1.0)


def test_tracer_patches_every_binding_and_restores_them():
    grid = floqept.engine.steady_state_grid
    spectrum = floqept.analysis.synthesize_spectrum
    with tracing.Tracer() as tracer:
        assert floqept.observables.steady_state_grid is not grid
        assert floqept.analysis.synthesize_spectrum is not spectrum
        floqept.engine.effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
    assert floqept.observables.steady_state_grid is grid
    assert floqept.analysis.synthesize_spectrum is spectrum
    assert [s[0] for s in tracer.spans] == ["engine.closed_form", "bessel", "bessel"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]


def test_exits_nonzero_without_the_program():
    bare = run.TMP_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench("--workload", "beat", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
