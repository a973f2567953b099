import math

import numpy as np
import pytest

from floqept.numerics.integrate import StiffnessError, integrate_linear


def test_constant_scalar_exponential():
    lam = 2.0
    traj = integrate_linear(lambda t: np.array([[lam]]), np.array([1.0 + 0j]), (0.0, 1.0))
    assert traj.final_y[0] == pytest.approx(np.exp(-1j * lam), abs=1e-10)


def test_t_eval_sample_at_t0_records_initial_state():
    # a sample at the span start is recorded, and the later ones are reached
    omega = 2.0 * math.pi * 3.0
    period = 2.0 * math.pi / omega
    s0 = np.array([0.6 + 0j, 0.8j])
    t_eval = np.linspace(0.0, 20.0 * period, 5)
    traj = integrate_linear(lambda t: np.diag([omega, -omega]).astype(complex), s0,
                            (0.0, t_eval[-1]), rel_tol=1e-10, abs_tol=1e-13, t_eval=t_eval)
    assert traj.ys.shape == (5, 2)
    assert traj.ts[0] == 0.0 and np.allclose(traj.ts, t_eval, rtol=1e-12, atol=0.0)
    assert np.array_equal(traj.ys[0], s0)
    exact = np.exp(-1j * np.outer(t_eval, [omega, -omega])) * s0
    assert np.allclose(traj.ys, exact, rtol=0.0, atol=1e-7)


def test_tolerance_controls_error():
    # error should drop roughly in proportion to the requested tolerance
    lam = 7.0
    exact = np.exp(-1j * lam * 3.0)
    errs = []
    for tol in (1e-5, 1e-7, 1e-9):
        traj = integrate_linear(
            lambda t: np.array([[lam]]), np.array([1.0 + 0j]), (0.0, 3.0),
            rel_tol=tol, abs_tol=tol * 1e-3,
        )
        errs.append(abs(traj.final_y[0] - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_common_phase_quadrature_identity():
    # H(t) = diag(db*cos(w t), db*cos(w t)) integrates to the exact phase
    # exp(-i (db/w) sin(w t)) on each component
    db, w = 4.0, 11.0
    t1 = 0.73

    def h(t):
        return np.diag([db * math.cos(w * t), db * math.cos(w * t)]).astype(complex)

    s0 = np.array([1.0 + 0j, 0.5 - 0.25j])
    traj = integrate_linear(h, s0, (0.0, t1), rel_tol=1e-11, abs_tol=1e-13)
    expected = s0 * np.exp(-1j * (db / w) * math.sin(w * t1))
    assert np.allclose(traj.final_y, expected, atol=1e-9)


def test_unitary_norm_preservation_for_hermitian_generator():
    def h(t):
        return np.array(
            [[0.0, np.exp(1j * t)], [np.exp(-1j * t), 1.0]], dtype=complex
        )

    s0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    traj = integrate_linear(h, s0, (0.0, 20.0), rel_tol=1e-10, abs_tol=1e-13)
    assert np.linalg.norm(traj.final_y) == pytest.approx(1.0, abs=1e-7)


def test_matrix_state_fundamental_solution():
    lam1, lam2 = 1.0, -2.0
    h = lambda t: np.diag([lam1, lam2]).astype(complex)
    traj = integrate_linear(h, np.eye(2, dtype=complex), (0.0, 1.5))
    expected = np.diag([np.exp(-1j * lam1 * 1.5), np.exp(-1j * lam2 * 1.5)])
    assert np.allclose(traj.final_y, expected, atol=1e-9)


def test_t_eval_sampling():
    lam = 3.0
    samples = np.linspace(0.1, 0.9, 9)
    traj = integrate_linear(
        lambda t: np.array([[lam]]), np.array([1.0 + 0j]), (0.0, 1.0), t_eval=samples
    )
    assert traj.ts == pytest.approx(samples)
    assert np.allclose(traj.ys[:, 0], np.exp(-1j * lam * samples), atol=1e-9)


def test_deterministic_repeat():
    h = lambda t: np.array([[2.0, 0.3j], [-0.3j, -1.0]], dtype=complex) * (1 + 0.1 * math.cos(3 * t))
    s0 = np.array([1.0, 0.2j])
    a = integrate_linear(h, s0, (0.0, 5.0))
    b = integrate_linear(h, s0, (0.0, 5.0))
    assert np.array_equal(a.final_y, b.final_y)
    assert a.n_steps == b.n_steps


def test_stiffness_error_raised():
    lam = 1e16
    with pytest.raises(StiffnessError):
        integrate_linear(lambda t: np.array([[lam]]), np.array([1.0 + 0j]), (0.0, 1.0))


def test_bad_tolerances_rejected():
    with pytest.raises(ValueError):
        integrate_linear(lambda t: np.eye(1, dtype=complex), np.array([1.0 + 0j]), (0.0, 1.0), rel_tol=0.0)
