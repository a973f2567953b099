"""Seeded workloads of the floqept benchmark.

A workload is a stream of passes.  Each pass is a list of tasks whose inputs
are drawn from a generator seeded by (seed, workload, pass index), so the
program only ever sees generated inputs, and no two passes repeat them.
A task is one EP, one gamma-curve reconstruction, one beat or one CLI
command.  Each task carries a check against reference.py; a check returns
None for a correct result and a reason string otherwise.

Functions are looked up on floqept's modules at call time, so a tracer or a
test that replaces a module attribute sees every call.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import floqept
import floqept.analysis
import floqept.cli
import floqept.observables

import reference as ref

WORKLOADS = ("ep-spectral", "beat", "cli-sweeps")
SIZES = ("full", "tiny")

# Pass times on the commit that defined the benchmark (2-core Xeon, numpy
# 2.4.6, one BLAS thread).  They fix the number of passes for --seconds.
NOMINAL_PASS_S = {"ep-spectral": 9.5, "beat": 7.5, "cli-sweeps": 5.0}

JITTER = 0.03  # relative spread of every drawn parameter around its ladder value

# ep-spectral: n = 1 EPs across the drive frequency (criteria 6 and 8), the
# n = 2, 3 EPs of criterion 9 and one Gamma_eff(omega_b) reconstruction.
EP_GAMMA_C, EP_DELTA_B, EP_GAMMA12, EP_STEP = 93.0, 4300.0, 20.0, 2.0
N1_OMEGAS = {"full": (2500.0, 2900.0, 3400.0, 3900.0, 4500.0), "tiny": (3000.0,)}
HIGHER_ORDER = {  # (n, omega_b, target Gamma_eff, gamma12), criterion 9
    "full": ((2, 1500.0, 43.0, 25.0), (3, 1000.0, 45.0, 40.0)),
    "tiny": ((3, 1000.0, 45.0, 40.0),),
}
CURVE_OMEGAS = (2600.0, 3800.0, 5400.0)  # both sides of the |J0*J1| maximum

# beat: criterion 7's weak-drive form; the integration span is 20/mu.
BEAT_MISMATCHES = {"full": (300.0, 550.0, 750.0, 900.0, 1050.0, 1200.0), "tiny": (1050.0,)}

# cli-sweeps: README-style sweeps around the n = 1 EP.
CLI_SWEEP_POINTS = {"full": 31, "tiny": 6}
CLI_PHASE_GRID = {"full": (301, 41), "tiny": (31, 5)}


@dataclass
class Task:
    kind: str
    inputs: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    jobs: int = 0


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def build_pass(workload: str, rng: np.random.Generator, size: str, out_dir: Path,
               jobs_parallel: int) -> list[Task]:
    """The tasks of one pass, in run order."""
    if workload == "ep-spectral":
        return _ep_spectral(rng, size)
    if workload == "beat":
        return _beat(rng, size)
    if workload == "cli-sweeps":
        return _cli_sweeps(rng, size, out_dir, jobs_parallel)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _near(rng, value: float) -> float:
    return float(value * (1.0 + rng.uniform(-JITTER, JITTER)))


# ---------------------------------------------------------------------------
# ep-spectral
# ---------------------------------------------------------------------------


def _truncation(delta_b: float, omega_b: float, floor: int) -> int:
    return max(floor, int(np.ceil(delta_b / omega_b)) + 3)


def _ep_spectral(rng, size) -> list[Task]:
    tasks = []
    for w0 in N1_OMEGAS[size]:
        w, gc, db = _near(rng, w0), _near(rng, EP_GAMMA_C), _near(rng, EP_DELTA_B)
        p = floqept.ModelParams(delta0=-(w + 50.0), gamma_c=gc, gamma12=EP_GAMMA12,
                                delta_b=db, omega_b=w, n1=1, n2=0)
        cfg = floqept.SimConfig(truncation_m=_truncation(db, w, 5),
                                grid=floqept.GridSpec(-4000.0, 1000.0, EP_STEP))
        tol = ref.spectral_ep_tolerance(EP_STEP, EP_GAMMA12)
        rate = ref.gamma_eff(gc, db, w, 1)
        tasks.append(Task(
            kind="ep-n1",
            inputs=f"omega_b={w:.6g} gamma_c={gc:.6g} delta_b={db:.6g}",
            run=lambda p=p, cfg=cfg: floqept.analysis.locate_ep(p, 1, "spectral-pipeline", cfg),
            check=lambda r, rate=rate, tol=tol: ref.ep_miss(r.mismatch_star, rate, tol),
        ))
    for n, w0, target0, g12 in HIGHER_ORDER[size]:
        w, target, gc = _near(rng, w0), _near(rng, target0), _near(rng, 300.0)
        tasks.append(Task(
            kind=f"ep-n{n}",
            inputs=f"omega_b={w:.6g} Gamma_eff={target:.6g} gamma_c={gc:.6g}",
            run=lambda n=n, w=w, target=target, gc=gc, g12=g12: _higher_order_ep(n, w, target, gc, g12),
            check=lambda out, n=n, w=w, target=target, gc=gc, g12=g12: _check_higher_order(
                out, n, w, target, gc, g12),
        ))
    w_grid = np.array([_near(rng, w) for w in CURVE_OMEGAS])
    gc, db = _near(rng, EP_GAMMA_C), _near(rng, EP_DELTA_B)
    p = floqept.ModelParams(delta0=-3000.0, gamma_c=gc, gamma12=EP_GAMMA12, delta_b=db,
                            omega_b=3000.0, n1=1, n2=0)
    cfg = floqept.SimConfig(truncation_m=5, grid=floqept.GridSpec(-4000.0, 1000.0, EP_STEP))
    tasks.append(Task(
        kind="gamma-curve",
        inputs=f"{w_grid.size} omega_b points gamma_c={gc:.6g} delta_b={db:.6g}",
        run=lambda: floqept.analysis.gamma_curve(p, w_grid, cfg),
        check=lambda c: _check_curve(c, gc, db),
    ))
    return tasks


def _higher_order_ep(n, w, target, gc, g12):
    db = floqept.analysis.solve_modulation_depth(gc, w, n, 0, target)
    p = floqept.ModelParams(delta0=-(n * w + 50.0), gamma_c=gc, gamma12=g12, delta_b=db,
                            omega_b=w, n1=n, n2=0)
    cfg = floqept.SimConfig(truncation_m=_truncation(db, w, 8),
                            grid=floqept.GridSpec(-7000.0, 1000.0, EP_STEP))
    return db, floqept.analysis.locate_ep(p, n, "spectral-pipeline", cfg)


def _check_higher_order(out, n, w, target, gc, g12):
    db, result = out
    rate = ref.gamma_eff(gc, db, w, n)
    return (ref.relative_miss("Gamma_eff(solved delta_b)", rate, target, ref.MODULATION_DEPTH_REL)
            or ref.ep_miss(result.mismatch_star, rate, ref.spectral_ep_tolerance(EP_STEP, g12)))


def _check_curve(curve, gc, db):
    if not curve.ok:
        return f"gamma_curve fit not ok: {curve.message}"
    return (ref.relative_miss("gamma_c_fit", curve.gamma_c_fit, gc, ref.GAMMA_CURVE_REL)
            or ref.relative_miss("delta_b_fit", curve.delta_b_fit, db, ref.GAMMA_CURVE_REL))


# ---------------------------------------------------------------------------
# beat
# ---------------------------------------------------------------------------


def _beat(rng, size) -> list[Task]:
    tasks = []
    for mu0 in BEAT_MISMATCHES[size]:
        mu, db = _near(rng, mu0), _near(rng, 150.0)
        p = floqept.ModelParams(delta0=-(3000.0 + mu), gamma_c=93.0, gamma12=50.0,
                                delta_b=db, omega_b=3000.0, n1=1, n2=0)
        cfg = floqept.SimConfig(truncation_m=4, sim_duration=20.0 / mu, rel_tol=1e-6, abs_tol=1e-9)
        tasks.append(Task(
            kind="beat",
            inputs=f"mu={mu:.6g} delta_b={db:.6g}",
            run=lambda p=p, cfg=cfg: floqept.observables.beat_frequency(p, cfg),
            check=lambda m, mu=mu, d=cfg.sim_duration: ref.beat_miss(m.found, m.frequency, mu, d),
        ))
    return tasks


# ---------------------------------------------------------------------------
# cli-sweeps
# ---------------------------------------------------------------------------


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli_task(kind, argv, out: Path, jobs, check) -> Task:
    full = argv + ["--out", str(out), "--jobs", str(jobs)]

    def run():
        return floqept.cli.main(full)

    def judged(code):
        try:
            if code != 0:
                return f"exit code {code}"
            return check(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Task(kind=kind, inputs=" ".join(argv[:3]) + f" --jobs {jobs}", run=run, check=judged, jobs=jobs)


def _cli_sweeps(rng, size, out_dir: Path, jobs_parallel: int) -> list[Task]:
    w, gc, db = _near(rng, 3000.0), _near(rng, EP_GAMMA_C), _near(rng, EP_DELTA_B)
    rate = ref.gamma_eff(gc, db, w, 1)
    model = ["--delta0", repr(-(w + 50.0)), "--gamma-c", repr(gc), "--gamma12", repr(EP_GAMMA12),
             "--delta-b", repr(db), "--omega-b", repr(w), "--n1", "1",
             "--truncation-m", str(_truncation(db, w, 5))]

    points = CLI_SWEEP_POINTS[size]
    step = 6.0
    d0_lo = round(w - 0.5 * step * (points - 1) + 2.0 * rate + rng.uniform(-step, step), 3)
    d0_hi = d0_lo + step * (points - 1)
    eigen = ["eigen", "--sweep-delta0", f"{d0_lo!r}:{d0_hi!r}:{step!r}", "--route", "all"] + model

    ep = ["ep", "--route", "monodromy", "--n", "1"] + model

    n_d0, n_w = CLI_PHASE_GRID[size]
    pd_d0 = round(w - 100.0 + rng.uniform(-10.0, 10.0), 3)
    pd_w = round(w - 200.0 + rng.uniform(-10.0, 10.0), 3)
    d0_range = (pd_d0, pd_d0 + (n_d0 - 1) * 1.0, 1.0)
    w_range = (pd_w, pd_w + (n_w - 1) * 10.0, 10.0)
    phase = ["phase-diagram", "--sweep-delta0", "{!r}:{!r}:{!r}".format(*d0_range),
             "--sweep-omega-b", "{!r}:{!r}:{!r}".format(*w_range), "--n", "1",
             "--gamma-c", repr(gc), "--delta-b", repr(db), "--n1", "1"]

    tasks = []
    for kind, argv, check in (
        ("cli-eigen", eigen, lambda out: _check_eigen(out, w, rate, points)),
        ("cli-ep", ep, lambda out: ref.ep_miss(float(_read_rows(out / "ep.csv")[0]["mu_star_hz"]),
                                               rate, ref.MONODROMY_EP_TOL_HZ)),
        ("cli-phase", phase, lambda out: _check_phase(out, d0_range, w_range, gc, db)),
    ):
        for jobs in (1, jobs_parallel):
            tasks.append(_cli_task(kind, argv, out_dir / f"{len(tasks)}", jobs, check))
    return tasks


def _check_eigen(out: Path, w: float, rate: float, points: int):
    groups: dict[str, dict] = {}
    for row in _read_rows(out / "eigen.csv"):
        groups.setdefault(row["delta0_abs"], {})[row["route"]] = row
    if len(groups) != points:
        return f"{len(groups)} sweep points in eigen.csv, expected {points}"
    for d0, routes in groups.items():
        if set(routes) != {"static", "rwa", "monodromy"}:
            return f"routes {sorted(routes)} at delta0_abs = {d0}"
        rwa = [float(routes["rwa"][k]) for k in ("re_nu_plus", "re_nu_minus")]
        mono = [float(routes["monodromy"][k]) for k in ("re_nu_plus", "re_nu_minus")]
        err = max(min(ref.circular_distance(a, b, w) for b in mono) for a in rwa)
        tol = ref.eigen_tolerance(abs(float(d0) - w) - 2.0 * rate)
        if err > tol:
            return f"monodromy vs RWA real parts differ by {err:.3g} Hz > {tol:.3g} Hz at delta0_abs = {d0}"
    return None


def _check_phase(out: Path, d0_range, w_range, gc, db):
    rows = _read_rows(out / "phase_diagram.csv")
    d0s, ws = ref.sweep(*d0_range), ref.sweep(*w_range)
    if len(rows) != d0s.size * ws.size:
        return f"{len(rows)} phase-diagram rows, expected {d0s.size * ws.size}"
    rates = {}
    for row in rows:
        d0, w = float(row["delta0_abs"]), float(row["omega_b_hz"])
        if w not in rates:
            rates[w] = ref.gamma_eff(gc, db, w, 1)
        want = ref.phase_class(d0, w, 1, rates[w], 1.0)
        if int(row["phase"]) != want:
            return f"phase {row['phase']} at ({d0}, {w}), reference {want}"
    return None
