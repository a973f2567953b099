import cmath
import math

import numpy as np
import pytest

from floqept import (
    EngineError,
    ModelParams,
    SimConfig,
    effective_coupling,
    floquet_eigenvalues,
    monodromy_quasienergies,
    quasienergy_gap,
    static_eigenvalues,
)
from floqept.engine import (
    TWO_PI,
    LabFrameModel,
    branch_root,
    classify_phase,
    is_split,
    static_hamiltonian,
)
from floqept.numerics.bessel import bessel_j
from floqept.numerics.eig import eig_small, order_eigenvalues
from floqept.numerics.integrate import integrate_linear


class TestStaticEigenvalues:
    def test_ep_point(self):
        b = static_eigenvalues(-186.0, 93.0)
        assert b.tag == "ep"
        assert b.nu_plus == pytest.approx(-93.0, abs=1e-9)
        assert b.nu_minus == pytest.approx(-93.0, abs=1e-9)

    def test_broken_phase_frozen_values(self):
        b = static_eigenvalues(-3050.0, 93.0)
        assert b.tag == "broken"
        assert b.nu_plus == pytest.approx(-2.8383791462879344, abs=1e-9)
        assert b.nu_minus == pytest.approx(-3047.161620853712, abs=1e-9)

    def test_unbroken_dissipative_splitting(self):
        b = static_eigenvalues(0.0, 93.0)
        assert b.tag == "unbroken"
        assert b.nu_plus == pytest.approx(93j, abs=1e-12)
        assert b.nu_minus == pytest.approx(-93j, abs=1e-12)

    def test_matches_numeric_eigensolver(self, rng):
        for _ in range(1000):
            d0 = rng.uniform(-1e4, 1e4)
            gc = rng.uniform(0.0, 500.0)
            closed = np.array(static_eigenvalues(d0, gc).values)
            numeric = eig_small(static_hamiltonian(d0, gc)).values
            scale = max(1.0, np.max(np.abs(closed)))
            assert np.max(np.abs(closed - numeric)) <= 1e-10 * scale

    def test_trace_and_determinant_identities(self, rng):
        for _ in range(300):
            d0 = rng.uniform(-1e4, 1e4)
            gc = rng.uniform(0.0, 500.0)
            b = static_eigenvalues(d0, gc)
            h = static_hamiltonian(d0, gc)
            tr = h[0, 0] + h[1, 1]
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            scale = max(1.0, abs(tr), abs(det))
            assert abs(b.nu_plus + b.nu_minus - tr) <= 1e-10 * scale
            assert abs(b.nu_plus * b.nu_minus - det) <= 1e-10 * scale

    def test_phase_classification_sweep(self, rng):
        for _ in range(200):
            gc = rng.uniform(10.0, 400.0)
            d0 = rng.uniform(-3.0, 3.0) * gc
            b = static_eigenvalues(d0, gc)
            if abs(d0) < 2 * gc * (1 - 1e-9):
                assert b.nu_plus.real == pytest.approx(b.nu_minus.real, abs=1e-9)
                assert b.nu_plus.imag != pytest.approx(b.nu_minus.imag, abs=1e-3)
            elif abs(d0) > 2 * gc * (1 + 1e-9):
                assert b.nu_plus.imag == pytest.approx(b.nu_minus.imag, abs=1e-9)
                assert b.nu_plus.real != pytest.approx(b.nu_minus.real, abs=1e-3)


class TestAntiPTSymmetry:
    def test_static_traceless_conjugation(self, rng):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        for _ in range(100):
            h = static_hamiltonian(rng.uniform(-5e3, 5e3), rng.uniform(0.0, 500.0))
            ht = h - 0.5 * np.trace(h) * np.eye(2)
            assert np.max(np.abs(sx @ ht.conj() @ sx + ht)) <= 1e-14 * max(1.0, np.max(np.abs(ht)))

    def test_driven_generator_keeps_symmetry(self, coupled_point):
        model = LabFrameModel(coupled_point)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        for t in (0.0, 1.1e-4, 2.7e-4):
            h = model.matrix(t) + 1j * coupled_point.gamma12 * np.eye(2)
            ht = h - 0.5 * np.trace(h) * np.eye(2)
            assert np.max(np.abs(sx @ ht.conj() @ sx + ht)) <= 1e-14 * max(1.0, np.max(np.abs(ht)))


class TestEffectiveCoupling:
    def test_zero_drive_first_order(self):
        assert effective_coupling(93.0, 0.0, 3000.0, 1, 0) == 0.0

    def test_zero_drive_carriers(self):
        assert effective_coupling(93.0, 0.0, 3000.0, 0, 0) == pytest.approx(93.0, abs=1e-12)

    def test_strong_drive_frozen_value(self):
        # |J0(43/30) J1(43/30)| * 93, frozen from the Bessel series oracle
        g = effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
        assert g == pytest.approx(27.949285748601174, abs=1e-9)

    def test_prescribed_rate_recovered_by_root_finding(self):
        from floqept import solve_modulation_depth

        db = solve_modulation_depth(93.0, 1500.0, 2, 0, 10.0)
        assert effective_coupling(93.0, db, 1500.0, 2, 0) == pytest.approx(10.0, abs=1e-6)

    def test_nonnegative(self, rng):
        for _ in range(100):
            g = effective_coupling(
                rng.uniform(0, 300), rng.uniform(0, 9000), rng.uniform(500, 5000),
                int(rng.integers(0, 4)), int(rng.integers(0, 2)),
            )
            assert g >= 0.0


class TestFloquetEigenvalues:
    def test_zero_mismatch_unbroken(self):
        b = floquet_eigenvalues(-3000.0, 3000.0, 1, 27.9)
        assert b.tag == "unbroken"
        assert b.nu_plus.real == pytest.approx(b.nu_minus.real, abs=1e-9)
        assert b.nu_plus.real == pytest.approx(-3000.0, abs=1e-9)

    def test_ep_by_construction(self):
        # sqrt amplifies the float rounding of the inputs near coalescence,
        # so the branch agreement tolerance is sqrt-of-epsilon scaled
        geff = 27.949285748601174
        b = floquet_eigenvalues(-(3000.0 + 2 * geff), 3000.0, 1, geff)
        assert b.tag == "ep"
        assert b.nu_plus == pytest.approx(b.nu_minus, abs=1e-3)

    def test_uncoupled_limit_bare_separation(self):
        b = floquet_eigenvalues(-3050.0, 3000.0, 1, 0.0)
        assert b.separation == pytest.approx(50.0, abs=1e-9)

    def test_trace_identity(self, rng):
        for _ in range(200):
            d0 = -rng.uniform(500.0, 9000.0)
            w = rng.uniform(500.0, 4000.0)
            n = int(rng.integers(0, 4))
            g = rng.uniform(0.0, 100.0)
            b = floquet_eigenvalues(d0, w, n, g)
            ns = -n
            assert b.nu_plus + b.nu_minus == pytest.approx(d0 + ns * w, abs=1e-8)


def _pointwise_branches(center, mismatch, coupling):
    """Reference closed form: scalar root, explicit sort, scalar tag."""
    root = cmath.sqrt(0.25 * mismatch * mismatch - coupling * coupling)
    pair = (center + root, center - root)
    idx = order_eigenvalues(pair)
    threshold = 2.0 * coupling
    if abs(abs(mismatch) - threshold) <= 1e-9 * max(1.0, threshold):
        tag = "ep"
    else:
        tag = "unbroken" if abs(mismatch) < threshold else "broken"
    return (pair[idx[0]], pair[idx[1]]), tag


class TestBranchKernel:
    @staticmethod
    def _points(rng, count):
        # random points plus exact coalescences, zero mismatch and zero coupling
        mismatch = rng.uniform(-400.0, 400.0, count)
        coupling = rng.uniform(0.0, 150.0, count)
        mismatch[::4] = 2.0 * coupling[::4] * rng.choice([-1.0, 1.0], mismatch[::4].size)
        mismatch[1::8] = 0.0
        coupling[2::8] = 0.0
        return mismatch, coupling

    def test_static_matches_sorted_reference(self, rng):
        for d0, gc in zip(*self._points(rng, 2000)):
            d0, gc = float(d0), float(gc)
            values, tag = _pointwise_branches(0.5 * d0, d0, gc)
            b = static_eigenvalues(d0, gc)
            assert b.values == values and b.tag == tag
            assert all(type(v) is complex for v in b.values)

    def test_floquet_and_rwa_match_sorted_reference(self, rng):
        for mu, g in zip(*self._points(rng, 2000)):
            w = float(rng.uniform(500.0, 4000.0))
            n = int(rng.integers(0, 4))
            sign = float(rng.choice([-1.0, 1.0]))
            d0 = sign * (n * w + float(mu))
            ns = n if d0 >= 0 else -n
            values, tag = _pointwise_branches(0.5 * (d0 + ns * w), d0 - ns * w, float(g))
            b = floquet_eigenvalues(d0, w, n, float(g))
            assert b.values == values and b.tag == tag

    def test_vector_root_matches_scalar_root(self, rng):
        mismatch, coupling = self._points(rng, 5000)
        roots = branch_root(mismatch, coupling)
        for mu, g, root in zip(mismatch, coupling, roots):
            assert root == cmath.sqrt(0.25 * mu * mu - g * g)
            # the separation observable's former clipped real form
            assert 2.0 * root.real == 2.0 * math.sqrt(max(0.25 * mu * mu - g * g, 0.0))

    def test_classify_phase_codes(self):
        codes = classify_phase(np.array([0.0, 9.5, 10.0, 10.5, 20.0]), 10.0, 0.5)
        assert codes.tolist() == [0, 1, 1, 1, 2]


class TestLabFrameModel:
    def test_periodicity(self, coupled_point):
        model = LabFrameModel(coupled_point)
        t = 1.234e-4
        assert np.allclose(model.matrix(t), model.matrix(t + model.period), atol=1e-9)

    def test_zero_drive_reduces_to_static(self):
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=50.0, delta_b=0.0,
                        omega_b=3000.0, n1=0, n2=0)
        model = LabFrameModel(p)
        expected = static_hamiltonian(-3050.0, 93.0, 50.0)
        assert np.array_equal(model.matrix(0.37e-3), expected)

    def test_fast_generator_matches(self, coupled_point):
        model = LabFrameModel(coupled_point)
        gen = model.fast_generator()
        for t in (0.0, 0.7e-4, 3.1e-4):
            assert np.allclose(gen(t).copy(), TWO_PI * model.matrix(t), atol=1e-12)


def _rotating_frame_state(model, s, t):
    """Undo the sideband frame rotation and the scalar phase of a lab state."""
    p = model.params
    w = TWO_PI * p.omega_b
    frame = np.exp(0.5j * w * model.n_signed * t * np.array([1.0, -1.0]))
    scalar = 0.5 * p.delta0 * t + p.delta_b * math.sin(w * t) / w
    return frame * np.exp(1j * TWO_PI * scalar) * s


class TestUndampedStates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("side", [0.5, 1.5])  # mismatch / (2*Gamma_eff): either side of the EP
    def test_one_period_matches_monodromy(self, n, sign, side):
        geff = effective_coupling(93.0, 4300.0, 3000.0, n, 0)
        p = ModelParams(delta0=sign * (n * 3000.0 + side * 2.0 * geff), gamma_c=93.0,
                        gamma12=20.0, delta_b=4300.0, omega_b=3000.0, n1=n, n2=0)
        model = LabFrameModel(p)
        period = model.period
        mono = np.column_stack([model.undamped_states(e, [period])[0] for e in np.eye(2)])
        mono *= math.exp(-TWO_PI * p.gamma12 * period)
        exact = 1j * np.log(np.linalg.eigvals(mono)) / (TWO_PI * period)
        rk = monodromy_quasienergies(p, SimConfig(rel_tol=1e-10, abs_tol=1e-13))
        for q in rk.values:
            folded = (q.real - exact.real + 0.5 * p.omega_b) % p.omega_b - 0.5 * p.omega_b
            assert np.min(np.hypot(folded, q.imag - exact.imag)) <= 1e-6

    def test_matches_integrator_over_twenty_periods(self, coupled_point):
        model = LabFrameModel(coupled_point)
        s0 = np.array([0.6, 0.8j])
        ts = np.linspace(0.0, 20.0 * model.period, 201)
        states, s = [], s0
        for span in zip(ts[:-1], ts[1:]):  # chained spans, one per sample time
            s = integrate_linear(model.fast_generator(), s, span,
                                 rel_tol=1e-10, abs_tol=1e-13).final_y
            states.append(s)
        ts = ts[1:]
        exact = model.undamped_states(s0, ts) * np.exp(-TWO_PI * coupled_point.gamma12 * ts)[:, None]
        assert np.allclose(exact, np.array(states), rtol=1e-8, atol=1e-10)

    def test_finite_at_exact_ep(self):
        # gamma_c = 111 makes the rounded mismatch land exactly on 2*Gamma_eff
        geff = effective_coupling(111.0, 4300.0, 3000.0, 1, 0)
        p = ModelParams(delta0=-(3000.0 + 2.0 * geff), gamma_c=111.0, gamma12=20.0,
                        delta_b=4300.0, omega_b=3000.0, n1=1, n2=0)
        m = p.delta0 - p.n_signed * p.omega_b
        assert branch_root(m, geff) == 0.0
        model = LabFrameModel(p)
        s0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        k0 = np.array([[0.5 * m, 1j * geff], [1j * geff, -0.5 * m]])
        ts = np.array([0.0, 1e-4, 3.3e-3, 0.2])
        states = model.undamped_states(s0, ts)
        assert np.all(np.isfinite(states))
        for t, s in zip(ts, states):
            limit = (np.eye(2) - 2j * math.pi * t * k0) @ s0
            assert np.allclose(_rotating_frame_state(model, s, t), limit, rtol=1e-12, atol=1e-12)


class TestMonodromy:
    def test_zero_drive_reduction(self, base_cfg):
        p = ModelParams(delta0=-100.0, gamma_c=93.0, gamma12=50.0, delta_b=0.0,
                        omega_b=3000.0, n1=0, n2=0)
        q = monodromy_quasienergies(p, base_cfg)
        expected = [v - 50j for v in static_eigenvalues(-100.0, 93.0).values]
        for got, want in zip(q.values, expected):
            assert got == pytest.approx(want, abs=1e-6 * p.omega_b)

    def test_uncoupled_gauge_phase(self, base_cfg):
        # gamma_c = 0 with any drive: common-mode modulation is a pure gauge
        # phase, so the quasi-energies are the bare detunings
        p = ModelParams(delta0=-1234.0, gamma_c=0.0, gamma12=30.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        q = monodromy_quasienergies(p, base_cfg)
        fold = lambda v: (v + 1500.0) % 3000.0 - 1500.0
        expected = sorted([fold(-1234.0), 0.0], reverse=True)
        got = sorted([v.real for v in q.values], reverse=True)
        assert got == pytest.approx(expected, abs=1e-5 * p.omega_b)
        for v in q.values:
            assert v.imag == pytest.approx(-30.0, abs=1e-5 * p.omega_b)

    def test_coupled_point_matches_closed_form(self, coupled_point, base_cfg):
        q = monodromy_quasienergies(coupled_point, base_cfg)
        geff = effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
        closed = floquet_eigenvalues(-3050.0, 3000.0, 1, geff)
        gap_closed = abs(closed.nu_plus.real - closed.nu_minus.real)
        assert quasienergy_gap(q) == pytest.approx(gap_closed, abs=3.0)
        # imaginary structure: -gamma12 +- Im sqrt(...)
        ims = sorted(v.imag for v in q.values)
        want = sorted((closed.nu_plus.imag - 50.0, closed.nu_minus.imag - 50.0))
        assert ims == pytest.approx(want, abs=1e-3)

    def test_determinant_decay_identity(self, coupled_point, base_cfg):
        q = monodromy_quasienergies(coupled_point, base_cfg)
        assert q.det_residual <= 1e-8

    def test_folding_window(self, base_cfg, rng):
        for _ in range(20):
            p = ModelParams(
                delta0=-rng.uniform(100.0, 9000.0),
                gamma_c=rng.uniform(0.0, 200.0),
                gamma12=rng.uniform(5.0, 80.0),
                delta_b=rng.uniform(0.0, 6000.0),
                omega_b=rng.uniform(1000.0, 4000.0),
                n1=int(rng.integers(0, 3)),
                n2=0,
            )
            q = monodromy_quasienergies(p, base_cfg)
            for v in q.values:
                assert -p.omega_b / 2 <= v.real < p.omega_b / 2

    def test_tolerance_refinement_stability(self, coupled_point):
        loose = monodromy_quasienergies(coupled_point, SimConfig(rel_tol=1e-7, abs_tol=1e-10))
        tight = monodromy_quasienergies(coupled_point, SimConfig(rel_tol=1e-11, abs_tol=1e-13))
        for a, b in zip(loose.values, tight.values):
            assert a == pytest.approx(b, abs=1e-3 * coupled_point.omega_b)

    def test_gap_wraps_across_zone_boundary(self):
        from floqept.engine import QuasiEnergySet, quasienergy_gap

        q = QuasiEnergySet(values=(1499.0 + 0j, -1499.0 + 0j), zone_offsets=(0, 0),
                           omega_b=3000.0, det_residual=0.0)
        assert quasienergy_gap(q) == pytest.approx(2.0, abs=1e-9)

    def test_dissipative_imag_parts_nonpositive(self, base_cfg, rng):
        # gamma_eff <= gamma12 keeps both folded modes decaying
        for _ in range(20):
            gamma12 = rng.uniform(30.0, 100.0)
            p = ModelParams(
                delta0=-rng.uniform(2000.0, 4000.0),
                gamma_c=rng.uniform(0.0, gamma12),
                gamma12=gamma12,
                delta_b=rng.uniform(0.0, 4000.0),
                omega_b=3000.0,
                n1=1,
                n2=0,
            )
            q = monodromy_quasienergies(p, base_cfg)
            assert all(v.imag <= 1e-9 for v in q.values)


class TestMonodromyBatch:
    """A sweep integrated as one stack against one integration per point."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_matches_pointwise(self, n, sign):
        geff = effective_coupling(93.0, 4300.0, 3000.0, n, 0)
        p = ModelParams(delta0=sign * n * 3000.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=n, n2=0)
        # mismatch / (2*Gamma_eff) from the unbroken centre out past the EP
        sweep = n * 3000.0 + 2.0 * geff * np.array([0.0, 0.5, 0.9, 1.1, 1.5, 4.0])
        cfg = SimConfig()
        batch = monodromy_quasienergies(p, cfg, sweep)
        assert len(batch) == sweep.size
        split = []
        for d, q in zip(sweep, batch):
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            assert max(abs(a - b) for a, b in zip(q.values, point.values)) <= 1e-6
            assert q.zone_offsets == point.zone_offsets
            assert is_split(q) == is_split(point)
            assert q.det_residual <= 1e-8
            split.append(is_split(q))
        assert split == [False, False, False, True, True, True]

    def test_members_needing_different_steps(self):
        # the fast member sets the shared step, so the slow ones gain accuracy
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        sweep = [50.0, 3050.0, 40000.0]
        cfg = SimConfig(rel_tol=1e-7, abs_tol=1e-10)
        oracle = SimConfig(rel_tol=1e-11, abs_tol=1e-14)

        def own_steps(d):
            model = LabFrameModel(p.at_detuning(d))
            return integrate_linear(model.fast_generator(), np.eye(2, dtype=complex),
                                    (0.0, model.period), rel_tol=cfg.rel_tol,
                                    abs_tol=cfg.abs_tol).n_steps

        steps = [own_steps(d) for d in sweep]
        assert steps[2] > 4 * steps[0]
        for d, q in zip(sweep, monodromy_quasienergies(p, cfg, sweep)):
            exact = monodromy_quasienergies(p.at_detuning(d), oracle)
            own = monodromy_quasienergies(p.at_detuning(d), cfg)
            error = lambda s: max(abs(a - b) for a, b in zip(s.values, exact.values))
            assert error(q) <= error(own)

    def test_underflow_raises_in_a_batch(self):
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=200.0, delta_b=0.0, omega_b=1.0)
        with pytest.raises(EngineError, match="underflow at \\|delta0\\| = 0 Hz"):
            monodromy_quasienergies(p, SimConfig(rel_tol=1e-8, abs_tol=1e-310), [0.0, 0.25])

    def test_signed_zero_member_keeps_its_band_offset(self):
        # at |delta0| = 0 the red side is -0.0, where n_signed flips to +n
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig()
        q0, q1 = monodromy_quasienergies(p, cfg, [0.0, 3050.0])
        for q, d in ((q0, 0.0), (q1, 3050.0)):
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            assert max(abs(a - b) for a, b in zip(q.values, point.values)) <= 1e-6
