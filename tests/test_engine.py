import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    phase_tag,
    quasienergy_rate,
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


def _decimal_root(mismatch, coupling):
    """``sqrt(mismatch^2/4 - coupling^2)`` in 60-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        half, g = decimal.Decimal(float(mismatch)) / 2, decimal.Decimal(float(coupling))
        radicand = half * half - g * g
        root = float(abs(radicand).sqrt())
    return complex(root, 0.0) if radicand >= 0 else complex(0.0, root)


def _close(got, want, root):
    """Within 1e-15 relative of the value, plus 1e-15 relative of the root it carries."""
    return abs(got - want) <= 1e-15 * (abs(want) + abs(root))


def _pointwise_branches(center, mismatch, coupling):
    """Reference closed form: decimal root, explicit sort, scalar tag."""
    root = _decimal_root(mismatch, coupling)
    pair = (center + root, center - root)
    idx = order_eigenvalues(pair)
    threshold = 2.0 * coupling
    if abs(abs(mismatch) - threshold) <= 1e-9 * max(1.0, threshold):
        tag = "ep"
    else:
        tag = "unbroken" if abs(mismatch) < threshold else "broken"
    return (pair[idx[0]], pair[idx[1]]), tag, root


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
            values, tag, root = _pointwise_branches(0.5 * d0, d0, gc)
            b = static_eigenvalues(d0, gc)
            assert all(_close(got, want, root) for got, want in zip(b.values, values))
            assert b.tag == tag
            assert all(type(v) is complex for v in b.values)

    def test_floquet_and_rwa_match_sorted_reference(self, rng):
        for mu, g in zip(*self._points(rng, 2000)):
            w = float(rng.uniform(500.0, 4000.0))
            n = int(rng.integers(0, 4))
            sign = float(rng.choice([-1.0, 1.0]))
            d0 = sign * (n * w + float(mu))
            ns = n if d0 >= 0 else -n
            values, tag, root = _pointwise_branches(0.5 * (d0 + ns * w), d0 - ns * w, float(g))
            b = floquet_eigenvalues(d0, w, n, float(g))
            assert all(_close(got, want, root) for got, want in zip(b.values, values))
            assert b.tag == tag

    def test_vector_root_matches_scalar_root(self, rng):
        mismatch, coupling = self._points(rng, 5000)
        roots = branch_root(mismatch, coupling)
        for mu, g, root in zip(mismatch, coupling, roots):
            want = _decimal_root(mu, g)
            assert abs(root - want) <= 1e-15 * abs(want)
            # the separation observable reads 0 exactly where the phase is unbroken
            assert (root.real == 0.0) == (want.real == 0.0)

    def test_root_accurate_near_ep(self, rng):
        # (m/2 - g)*(m/2 + g) does not cancel as |m| -> 2*g
        for eps in 10.0 ** -np.arange(15, 2, -1):
            for side in (-1.0, 1.0):
                coupling = rng.uniform(1.0, 500.0, 50)
                mismatch = 2.0 * coupling * (1.0 + side * eps) * rng.choice([-1.0, 1.0], 50)
                for mu, g, root in zip(mismatch, coupling, branch_root(mismatch, coupling)):
                    want = _decimal_root(mu, g)
                    assert abs(root - want) <= 1e-15 * abs(want), (eps, side, mu, g)

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
        # the generator is 2*pi*matrix(t) less its diagonal, in the frame rotating with it
        model = LabFrameModel(coupled_point)
        gen = model.fast_generator([abs(coupled_point.delta0)])
        for t in (0.0, 0.7e-4, 3.1e-4):
            lab = TWO_PI * model.matrix(t)
            cycles = np.array([coupled_point.delta0 * t, 0.0]) + model.drive_cycles(t)
            frame = np.exp(-1j * TWO_PI * cycles)
            moving = lab - np.diag(np.diag(lab))
            want = frame.conj()[:, None] * moving * frame[None, :]
            assert np.allclose(gen(t)[0], want, rtol=0.0, atol=1e-11)


def _rotating_frame_state(model, s, t):
    """Undo the sideband frame rotation and the scalar phase of a lab state."""
    p = model.params
    w = TWO_PI * p.omega_b
    frame = np.exp(0.5j * w * model.n_signed * t * np.array([1.0, -1.0]))
    scalar = 0.5 * p.delta0 * t + p.delta_b * math.sin(w * t) / w
    return frame * np.exp(1j * TWO_PI * scalar) * s


def _exact_monodromy(p):
    """The exact one-period propagator: ``undamped_states`` times the decay."""
    model = LabFrameModel(p)
    period = model.period
    mono = np.column_stack([model.undamped_states(e, [period])[0] for e in np.eye(2)])
    return mono * math.exp(-TWO_PI * p.gamma12 * period)


def _exact_quasienergies(p):
    return 1j * np.log(np.linalg.eigvals(_exact_monodromy(p))) * p.omega_b / TWO_PI


def _distance(a, b, omega_b):
    """Largest circular (mod ``omega_b``) distance from each value of ``a`` to its nearest in ``b``."""
    b = np.asarray(b)
    folded = lambda v: (v.real - b.real + 0.5 * omega_b) % omega_b - 0.5 * omega_b
    return max(float(np.min(np.hypot(folded(v), v.imag - b.imag))) for v in a)


class TestUndampedStates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("side", [0.5, 1.5])  # mismatch / (2*Gamma_eff): either side of the EP
    def test_one_period_matches_monodromy(self, n, sign, side):
        geff = effective_coupling(93.0, 4300.0, 3000.0, n, 0)
        p = ModelParams(delta0=sign * (n * 3000.0 + side * 2.0 * geff), gamma_c=93.0,
                        gamma12=20.0, delta_b=4300.0, omega_b=3000.0, n1=n, n2=0)
        rk = monodromy_quasienergies(p, SimConfig(rel_tol=1e-10, abs_tol=1e-13))
        assert _distance(rk.values, _exact_quasienergies(p), p.omega_b) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_default_tolerance_within_1e8_hz(self, n, sign):
        # the interaction frame leaves RK only the slow coupling, so the default
        # tolerances land within 1e-8 Hz of the exact propagator on either side of the EP
        geff = effective_coupling(93.0, 4300.0, 3000.0, n, 0)
        p = ModelParams(delta0=sign * n * 3000.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=n, n2=0)
        sweep = n * 3000.0 + 2.0 * geff * np.array([0.5, 1.5])
        cfg = SimConfig()
        for d, q in zip(sweep, monodromy_quasienergies(p, cfg, sweep)):
            exact = _exact_quasienergies(p.at_detuning(d))
            assert _distance(q.values, exact, p.omega_b) <= 1e-8
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            assert _distance(point.values, exact, p.omega_b) <= 1e-8

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        delta0=st.floats(-6000.0, 6000.0),
        other=st.floats(0.0, 6000.0),
        n=st.integers(0, 3),
        gamma_c=st.floats(0.0, 300.0),
        gamma12=st.floats(5.0, 120.0),
        x=st.floats(0.0, 5.0),
        omega_b=st.floats(800.0, 5000.0),
    )
    def test_batched_and_pointwise_match_exact(self, delta0, other, n, gamma_c, gamma12, x,
                                               omega_b):
        # Bauer-Fike: a relative error rel_tol in the monodromy M moves each
        # nu = i*log(lam)*omega_b/(2 pi) by at most rel_tol * cond(eigenvectors)
        # * |M| / |lam| * omega_b/(2 pi); the bound grows without limit at an EP
        p = ModelParams(delta0=delta0, gamma_c=gamma_c, gamma12=gamma12, delta_b=x * omega_b,
                        omega_b=omega_b, n1=n, n2=0)
        cfg = SimConfig()
        sweep = [abs(delta0), other]
        for d, q in zip(sweep, monodromy_quasienergies(p, cfg, sweep)):
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            mono = _exact_monodromy(p.at_detuning(d))
            lam, vecs = np.linalg.eig(mono)
            exact = 1j * np.log(lam) * omega_b / TWO_PI
            bound = (cfg.rel_tol * omega_b / TWO_PI * np.linalg.cond(vecs)
                     * np.linalg.norm(mono, 2) / np.min(np.abs(lam)))
            assert _distance(q.values, point.values, omega_b) <= bound
            assert _distance(q.values, exact, omega_b) <= bound
            assert _distance(point.values, exact, omega_b) <= bound

    def test_matches_integrator_over_twenty_periods(self, coupled_point):
        model = LabFrameModel(coupled_point)
        s0 = np.array([0.6, 0.8j])
        ts = np.linspace(0.0, 20.0 * model.period, 201)
        states, s = [], s0
        for span in zip(ts[:-1], ts[1:]):  # chained spans, one per sample time
            s = integrate_linear(lambda t: TWO_PI * model.matrix(t), s, span,
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

        q = QuasiEnergySet(values=(1499.0 + 0j, -1499.0 + 0j), omega_b=3000.0, det_residual=0.0)
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
        tags = []
        for d, q in zip(sweep, batch):
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            assert max(abs(a - b) for a, b in zip(q.values, point.values)) <= 1e-6
            mu = p.at_detuning(d).mismatch
            tag = phase_tag(mu, quasienergy_rate(q, mu))
            assert tag == phase_tag(mu, quasienergy_rate(point, mu))
            assert q.det_residual <= 1e-8
            tags.append(tag)
        assert tags == ["unbroken"] * 3 + ["broken"] * 3

    def test_members_needing_different_steps(self):
        # the fast member sets the shared step, so the slow ones gain accuracy
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        sweep = [50.0, 3050.0, 40000.0]
        cfg = SimConfig(rel_tol=1e-7, abs_tol=1e-10)
        oracle = SimConfig(rel_tol=1e-11, abs_tol=1e-14)

        def own_steps(d):
            model = LabFrameModel(p.at_detuning(d))
            return integrate_linear(lambda t: TWO_PI * model.matrix(t), np.eye(2, dtype=complex),
                                    (0.0, model.period), rel_tol=cfg.rel_tol,
                                    abs_tol=cfg.abs_tol).n_steps

        steps = [own_steps(d) for d in sweep]
        assert steps[2] > 4 * steps[0]
        for d, q in zip(sweep, monodromy_quasienergies(p, cfg, sweep)):
            exact = monodromy_quasienergies(p.at_detuning(d), oracle)
            own = monodromy_quasienergies(p.at_detuning(d), cfg)
            error = lambda s: max(abs(a - b) for a, b in zip(s.values, exact.values))
            assert error(q) <= error(own)

    def test_large_decay_is_exact(self):
        # the decay is an exact factor, so no state falls below abs_tol within the period
        geff = effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
        closed = floquet_eigenvalues(-3050.0, 3000.0, 1, geff)
        for gamma12 in (2e4, 1e5):
            p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=gamma12, delta_b=4300.0,
                            omega_b=3000.0, n1=1, n2=0)
            q = monodromy_quasienergies(p, SimConfig())
            want = sorted(v.imag - gamma12 for v in closed.values)
            assert sorted(v.imag for v in q.values) == pytest.approx(want, rel=0.0, abs=1e-6)
            assert q.det_residual <= 1e-8

    def test_underflow_raises_in_a_batch(self, monkeypatch):
        # a member whose propagator is zero has no logarithm
        def zero_first_member(gen, y0, span, **tols):
            traj = integrate_linear(gen, y0, span, **tols)
            traj.final_y[0] = 0.0
            return traj

        monkeypatch.setattr("floqept.engine.integrate_linear", zero_first_member)
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=200.0, delta_b=0.0, omega_b=1.0)
        with pytest.raises(EngineError, match="underflow at \\|delta0\\| = 0 Hz"):
            monodromy_quasienergies(p, SimConfig(), [0.0, 0.25])

    def test_signed_zero_member_keeps_its_band_offset(self):
        # at |delta0| = 0 the red side is -0.0, where n_signed flips to +n
        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        cfg = SimConfig()
        q0, q1 = monodromy_quasienergies(p, cfg, [0.0, 3050.0])
        for q, d in ((q0, 0.0), (q1, 3050.0)):
            point = monodromy_quasienergies(p.at_detuning(d), cfg)
            assert max(abs(a - b) for a, b in zip(q.values, point.values)) <= 1e-6
