"""Acceptance suite: every criterion is exercised at its stated tolerance and
prints one pass/fail line with its runtime.

Each criterion is a desk-scale check of the model's quantitative
relationships; parameter choices mirror the coupled-spin-wave working points
(red-detuned carrier against low-order drive sideband peaks).
"""

import time

import numpy as np
import pytest

from floqept import (
    GridSpec,
    ModelParams,
    SimConfig,
    beat_frequency,
    effective_coupling,
    fit_sideband_heights,
    floquet_eigenvalues,
    gamma_curve,
    harvest_sideband_heights,
    locate_ep,
    monodromy_quasienergies,
    quasienergy_gap,
    separation_curve,
    solve_modulation_depth,
    static_eigenvalues,
)
from floqept.analysis import _split_indicator
from floqept.engine import TWO_PI, LabFrameModel, static_hamiltonian, steady_state_response
from floqept.numerics.bessel import bessel_j
from floqept.numerics.eig import eig_small
from floqept.numerics.fit import _jacobian, lm_fit


class Criterion:
    """Context manager printing one pass/fail line with the runtime."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status}  {elapsed:7.2f}s  {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s}s"
            )
        return False


def test_criterion_01_closed_form_vs_numeric_eigenvalues():
    with Criterion(1, "closed form vs numeric eigenvalues, 1e4 draws", 5.0):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            d0 = rng.uniform(-1e4, 1e4)
            gc = rng.uniform(0.0, 500.0)
            closed = np.array(static_eigenvalues(d0, gc).values)
            numeric = eig_small(static_hamiltonian(d0, gc)).values
            scale = max(1.0, float(np.max(np.abs(closed))))
            assert np.max(np.abs(closed - numeric)) <= 1e-10 * scale


def test_criterion_02_static_ep_threshold():
    with Criterion(2, "static bifurcation at |delta0| = 186 +- 2 Hz", 60.0):
        p = ModelParams(delta0=-200.0, gamma_c=93.0, gamma12=50.0, delta_b=0.0,
                        omega_b=3000.0, n1=0, n2=0)
        cfg = SimConfig(truncation_m=3, grid=GridSpec(-500.0, 500.0, 1.0))
        r = locate_ep(p, 0, "spectral-pipeline", cfg, bracket=(100.0, 400.0))
        assert r.delta0_star == pytest.approx(186.0, abs=2.0)
        # the curve itself: merged below, split above
        pts = separation_curve(p, [150.0, 175.0, 195.0, 220.0], cfg)
        assert pts[0].merged and pts[1].merged
        assert not pts[2].merged and not pts[3].merged


def test_criterion_03_zero_drive_floquet_reduction():
    with Criterion(3, "monodromy reduces to static branches at zero drive", 60.0):
        rng = np.random.default_rng(3)
        cfg = SimConfig(truncation_m=3)
        for _ in range(100):
            w = rng.uniform(800.0, 5000.0)
            p = ModelParams(
                delta0=rng.uniform(-6000.0, 6000.0),
                gamma_c=rng.uniform(0.0, 300.0),
                gamma12=rng.uniform(5.0, 120.0),
                delta_b=0.0,
                omega_b=w,
                n1=0,
                n2=0,
            )
            q = monodromy_quasienergies(p, cfg)
            raw = [v - 1j * p.gamma12 for v in static_eigenvalues(p.delta0, p.gamma_c).values]
            fold = lambda v: complex((v.real + w / 2) % w - w / 2, v.imag)
            want = [fold(v) for v in raw]
            # compare as a set on the Floquet circle
            for a in want:
                best = min(
                    min(abs((a.real - b.real + w / 2) % w - w / 2) + abs(a.imag - b.imag)
                        for b in q.values),
                    1e9,
                )
                assert best <= 1e-6 * w


def test_criterion_04_sideband_heights_bessel_fit():
    with Criterion(4, "sideband heights fit J_m^2 with delta_b within 5%", 120.0):
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=3000.0,
                        omega_b=3000.0, n1=0, n2=0)
        cfg = SimConfig(truncation_m=7, grid=GridSpec(-100.0, 100.0, 2.0))
        omegas = np.arange(1000.0, 8001.0, 500.0)
        heights = harvest_sideband_heights(p, omegas, cfg, orders=(0, 1, 2))
        for m in (0, 1, 2):
            fit = fit_sideband_heights(heights[m], m)
            assert fit.converged
            k = abs(fit.parameters[1])
            assert k == pytest.approx(3000.0, rel=0.05)
            data = np.asarray(heights[m])
            pred = np.array(
                [fit.parameters[0] * bessel_j(m, k / w) ** 2 for w in data[:, 0]]
            )
            ss_res = float(np.sum((data[:, 1] - pred) ** 2))
            ss_tot = float(np.sum((data[:, 1] - data[:, 1].mean()) ** 2))
            assert 1.0 - ss_res / ss_tot > 0.99


def test_criterion_05_coupled_vs_uncoupled_spectra():
    with Criterion(5, "coupled peaks merge; uncoupled split by 50 +- 2 Hz", 60.0):
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
        coupled = separation_curve(p, [3050.0], cfg)[0]
        assert coupled.merged and coupled.separation == 0.0
        uncoupled = separation_curve(p.but(gamma_c=0.0), [3050.0], cfg)[0]
        assert not uncoupled.merged
        assert uncoupled.separation == pytest.approx(50.0, abs=2.0)


def test_criterion_06_floquet_vs_static_bifurcation():
    with Criterion(6, "Floquet bifurcation at mu* = 2*Gamma_eff +- 2 Hz", 180.0):
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
        geff = effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
        r = locate_ep(p, 1, "spectral-pipeline", cfg)
        assert r.mismatch_star == pytest.approx(2.0 * geff, abs=2.0)
        # static comparison stays broken over |delta0| in [2.9, 3.2] kHz
        static = p.but(delta_b=0.0, n1=0, n2=0, gamma12=50.0)
        s_cfg = SimConfig(truncation_m=3, grid=GridSpec(-4000.0, 1000.0, 2.0))
        pts = separation_curve(static, np.arange(2900.0, 3201.0, 75.0), s_cfg)
        assert all(not q.merged for q in pts)


def test_criterion_07_beat_equals_mismatch():
    with Criterion(7, "beat frequency tracks the mismatch with unit slope", 120.0):
        mismatches = [20.0, 50.0, 100.0, 200.0, 500.0]
        beats = []
        for mu in mismatches:
            p = ModelParams(delta0=-(3000.0 + mu), gamma_c=93.0, gamma12=50.0,
                            delta_b=150.0, omega_b=3000.0, n1=1, n2=0)
            cfg = SimConfig(truncation_m=4, sim_duration=20.0 / mu,
                            rel_tol=1e-6, abs_tol=1e-9)
            m = beat_frequency(p, cfg)
            assert m.found
            assert m.frequency == pytest.approx(mu, abs=1.0 / cfg.sim_duration)
            beats.append(m.frequency)
        slope, intercept = np.polyfit(mismatches, beats, 1)
        assert slope == pytest.approx(1.0, abs=0.02)
        assert abs(intercept) < 2.0


def test_criterion_08_gamma_curve_reconstruction():
    with Criterion(8, "EP-extracted Gamma_eff(omega_b) and fit closure within 5%", 300.0):
        p = ModelParams(delta0=-3000.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
        omegas = np.arange(2500.0, 8001.0, 500.0)
        curve = gamma_curve(p, omegas, cfg)
        for w, extracted in zip(curve.omega_b, curve.gamma_eff):
            truth = effective_coupling(93.0, 4300.0, w, 1, 0)
            assert extracted == pytest.approx(truth, rel=0.05)
        assert curve.ok
        assert curve.gamma_c_fit == pytest.approx(93.0, rel=0.05)
        assert curve.delta_b_fit == pytest.approx(4300.0, rel=0.05)


def test_criterion_09_higher_order_eps():
    with Criterion(9, "n = 2, 3 exceptional points at mu* = 86, 90 +- 2 Hz", 180.0):
        # the drive depth is root-found per band order so the coupling rate
        # hits the prescribed value; linewidths per configuration
        for n, w, target, mu_expect, g12 in (
            (2, 1500.0, 43.0, 86.0, 25.0),
            (3, 1000.0, 45.0, 90.0, 40.0),
        ):
            db = solve_modulation_depth(300.0, w, n, 0, target)
            p = ModelParams(delta0=-(n * w + 50.0), gamma_c=300.0, gamma12=g12,
                            delta_b=db, omega_b=w, n1=n, n2=0)
            cfg = SimConfig(truncation_m=8, grid=GridSpec(-7000.0, 1000.0, 2.0))
            r = locate_ep(p, n, "spectral-pipeline", cfg)
            assert r.mismatch_star == pytest.approx(mu_expect, abs=2.0)


def test_criterion_10_property_suite():
    with Criterion(10, "property suite (symmetries, identities, consistency)", 120.0):
        rng = np.random.default_rng(10)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        # anti-PT conjugation identity at 1e-14
        for _ in range(200):
            h = static_hamiltonian(rng.uniform(-5e3, 5e3), rng.uniform(0.0, 500.0))
            ht = h - 0.5 * np.trace(h) * np.eye(2)
            scale = max(1.0, float(np.max(np.abs(ht))))
            assert np.max(np.abs(sx @ ht.conj() @ sx + ht)) <= 1e-14 * scale

        # Bessel sum rule at 1e-8
        for x in np.linspace(0.2, 5.0, 13):
            total = bessel_j(0, x) ** 2 + 2 * sum(bessel_j(m, x) ** 2 for m in range(1, 31))
            assert abs(total - 1.0) <= 1e-8

        # monodromy determinant decay identity at 1e-8 relative
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=50.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig(truncation_m=5)
        assert monodromy_quasienergies(p, cfg).det_residual <= 1e-8

        # LM Jacobian vs central finite differences at 1e-6 relative
        def model(q, x):
            return np.array([q[0] * bessel_j(1, q[1] / xi) ** 2 for xi in x])

        xs = np.linspace(1000.0, 8000.0, 9)
        q0 = np.array([0.9, 2700.0])
        jac = _jacobian(model, q0, xs, model(q0, xs))
        oracle = np.empty_like(jac)
        for j in range(2):
            h = 2e-7 * max(abs(q0[j]), 1.0)
            qp, qm = q0.copy(), q0.copy()
            qp[j] += h
            qm[j] -= h
            oracle[:, j] = (model(qp, xs) - model(qm, xs)) / (2 * h)
        assert np.max(np.abs(jac - oracle)) <= 1e-6 * np.max(np.abs(oracle))

        # probe-amplitude linearity at solver tolerance
        cfg5 = SimConfig(truncation_m=5)
        a = steady_state_response(p, cfg5, (1, -3025.0, 1.0))
        b = steady_state_response(p, cfg5, (1, -3025.0, 3.0))
        assert np.allclose(b.amps, 3.0 * a.amps, rtol=1e-12, atol=0.0)

        # route consistency of the EP location
        pf = p.but(gamma12=20.0)
        cfg_ep = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
        stars = {
            route: locate_ep(pf, 1, route, cfg_ep).mismatch_star
            for route in ("closed-form", "monodromy", "spectral-pipeline")
        }
        resolution = max(2.0, 2 * cfg_ep.grid.step, 0.2 * 2 * pf.gamma12)
        assert abs(stars["monodromy"] - stars["closed-form"]) <= 2.0
        assert abs(stars["spectral-pipeline"] - stars["closed-form"]) <= resolution
