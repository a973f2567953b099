"""Adaptive embedded Runge-Kutta integration of ds/dt = -i H(t) s.

Dormand-Prince 5(4) pair (seven stages, FSAL) propagating the fifth-order
solution, with a PI step-size controller.  The state may be a complex vector
or a complex matrix (fundamental-matrix integration); ``H(t)`` must return a
square complex array matching the leading dimension.

A stack of G independent systems integrates as one run with a shared step
sequence: ``H(t)`` returns ``(G, d, d)`` and the state carries the same
leading axis, ``(G, d)`` or ``(G, d, k)``.  A step is accepted when the
largest per-member error norm is within tolerance, so each member is
integrated at least as finely as its own run would be.

No 2*pi appears here: the generator is used verbatim, so a constant scalar
``H = [[lam]]`` over a unit span propagates ``s0 * exp(-1j*lam)``.  Callers
working in Hz pass generators already scaled by 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["integrate_linear", "Trajectory", "StiffnessError"]


class StiffnessError(RuntimeError):
    """Step size underflowed; the problem is stiff at the requested tolerance."""


# Dormand-Prince coefficients (Butcher tableau), 5th order propagated.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order error estimate.
_BETA1 = 0.7 / 5.0
_BETA2 = 0.4 / 5.0
_MAX_STEPS = 20_000_000


@dataclass
class Trajectory:
    """The state at the end of the span, with the step counts of the run."""

    final_y: np.ndarray
    n_steps: int
    n_rejected: int


def _rhs(h_of_t, t, y):
    return -1j * np.einsum("...ij,...jk->...ik", np.asarray(h_of_t(t), dtype=complex), y)


def _norms(v, scale) -> np.ndarray:
    """Weighted RMS norm of each member of a ``(G, d, k)`` stack."""
    return np.sqrt(np.mean((np.abs(v) / scale).reshape(v.shape[0], -1) ** 2, axis=1))


def integrate_linear(
    h_of_t,
    s0,
    t_span,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Integrate ``ds/dt = -i H(t) s`` over ``t_span = (t0, t1)``.

    Parameters
    ----------
    h_of_t : callable
        ``t -> (d, d)`` complex array, continuous on the span; or
        ``t -> (G, d, d)`` for a stack of G systems.
    s0 : array_like
        Initial state, shape ``(d,)`` or ``(d, k)``; with a stacked ``H``,
        ``(G, d)`` or ``(G, d, k)``.
    rel_tol, abs_tol : float
        Local error tolerances per step (elementwise weighted RMS norm,
        per member of a stack; the largest member norm decides).

    Returns
    -------
    Trajectory

    Raises
    ------
    StiffnessError
        If the accepted step underflows relative to the span.
    """
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t0 < t1")
    y = np.asarray(s0, dtype=complex)
    h0 = np.asarray(h_of_t(t0), dtype=complex)
    lead = y.shape[:h0.ndim - 1]  # (d,), or (G, d) for a stack
    if h0.ndim not in (2, 3) or h0.shape != lead + lead[-1:]:
        raise ValueError(f"H(t) shape {h0.shape} does not match state shape {y.shape}")
    state_shape = y.shape
    # work on a (G, d, k) stack; an unstacked system is a stack of one
    y = y.reshape(lead[0] if h0.ndim == 3 else 1, lead[-1], -1).copy()

    span = t1 - t0
    h_min = max(span * 1e-14, 1e-300)

    # initial step from the first derivative scale
    f0 = _rhs(h_of_t, t0, y)
    scale0 = abs_tol + rel_tol * np.abs(y)
    h = min(
        0.01 * d0 / d1 if d0 > 1e-12 and d1 > 1e-12 else span * 1e-6
        for d0, d1 in zip(_norms(y, scale0), _norms(f0, scale0))
    )
    h = min(h, span)

    t = t0
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = f0
    err_prev = 1.0
    n_steps = 0
    n_rejected = 0

    while t < t1:
        if n_steps > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t = {t:.6g} (h = {h:.3g})")
        h = min(h, t1 - t)
        if h < h_min:
            raise StiffnessError(
                f"step size underflow at t = {t:.6g} (h = {h:.3g} < {h_min:.3g}); "
                "the system is too stiff for the requested tolerance"
            )

        for i in range(1, 7):
            yi = y + h * np.einsum("s,s...->...", _A[i], k[:i])
            k[i] = _rhs(h_of_t, t + _C[i] * h, yi)
        y_new = y + h * np.einsum("s,s...->...", _B5, k)
        err_vec = h * np.einsum("s,s...->...", _ERR, k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.max(_norms(err_vec, scale)))

        if err <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]  # FSAL
            n_steps += 1
            err = max(err, 1e-10)
            factor = _SAFETY * err ** (-_BETA1) * err_prev ** (_BETA2)
            err_prev = err
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))

    return Trajectory(final_y=y.reshape(state_shape), n_steps=n_steps, n_rejected=n_rejected)
