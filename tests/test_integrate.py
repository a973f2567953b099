import math

import numpy as np
import pytest

from floqept.numerics.integrate import StiffnessError, integrate_linear


def test_constant_scalar_exponential():
    lam = 2.0
    traj = integrate_linear(lambda t: np.array([[lam]]), np.array([1.0 + 0j]), (0.0, 1.0))
    assert traj.final_y[0] == pytest.approx(np.exp(-1j * lam), abs=1e-10)


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


def test_batch_of_one_equals_unbatched():
    h = lambda t: np.array([[2.0, 0.3j], [-0.3j, -1.0]], dtype=complex) * (1 + 0.1 * math.cos(3 * t))
    s0 = np.array([[1.0, 0.2j], [0.5, -1.0]], dtype=complex)
    single = integrate_linear(h, s0, (0.0, 5.0))
    batch = integrate_linear(lambda t: h(t)[None], s0[None], (0.0, 5.0))
    assert batch.final_y.shape == (1, 2, 2)
    assert np.array_equal(batch.final_y[0], single.final_y)
    assert (batch.n_steps, batch.n_rejected) == (single.n_steps, single.n_rejected)


def test_batch_members_follow_their_own_generators():
    # one shared step sequence serves members with rates 80x apart
    lams = np.array([0.5, 3.0, 40.0])
    h = lambda t: lams[:, None, None] * np.eye(2, dtype=complex)
    s0 = np.array([[1.0, 0.5j]] * 3)
    traj = integrate_linear(h, s0, (0.0, 2.0), rel_tol=1e-10, abs_tol=1e-13)
    assert traj.final_y.shape == (3, 2)
    assert np.allclose(traj.final_y, np.exp(-2j * lams)[:, None] * s0, rtol=0.0, atol=1e-8)
    alone = integrate_linear(lambda t: np.eye(2, dtype=complex) * lams[0], s0[0], (0.0, 2.0),
                             rel_tol=1e-10, abs_tol=1e-13)
    assert traj.n_steps > alone.n_steps  # the fastest member sets the step
    with pytest.raises(ValueError, match="does not match"):
        integrate_linear(h, s0[:2], (0.0, 2.0))
