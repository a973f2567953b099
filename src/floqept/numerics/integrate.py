"""Adaptive embedded Runge-Kutta integration of ds/dt = -i H(t) s.

Dormand-Prince 5(4) pair (seven stages, FSAL) propagating the fifth-order
solution, with a PI step-size controller.  The state may be a complex vector
or a complex matrix (fundamental-matrix integration); ``H(t)`` must return a
square complex array matching the leading dimension.

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
    """Sampled states plus the dense final state of one integration."""

    ts: np.ndarray
    ys: np.ndarray  # shape (len(ts),) + state shape
    final_t: float
    final_y: np.ndarray
    n_steps: int
    n_rejected: int


def _rhs(h_of_t, t, y):
    return -1j * (np.asarray(h_of_t(t), dtype=complex) @ y)


def integrate_linear(
    h_of_t,
    s0,
    t_span,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    t_eval=None,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate ``ds/dt = -i H(t) s`` over ``t_span = (t0, t1)``.

    Parameters
    ----------
    h_of_t : callable
        ``t -> (d, d)`` complex array, continuous on the span.
    s0 : array_like
        Initial state, shape ``(d,)`` or ``(d, k)``.
    rel_tol, abs_tol : float
        Local error tolerances per step (elementwise weighted RMS norm).
    t_eval : array_like, optional
        Strictly increasing sample times within ``t_span``; each is hit
        exactly by clamping the step.  The endpoints need not be included;
        a sample at ``t0`` records ``s0``.
    max_step : float
        Upper bound on the step size.

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
    y = np.asarray(s0, dtype=complex).copy()
    d = y.shape[0]
    h0 = np.asarray(h_of_t(t0), dtype=complex)
    if h0.shape != (d, d):
        raise ValueError(f"H(t) shape {h0.shape} does not match state dimension {d}")

    eval_times = None
    if t_eval is not None:
        eval_times = np.asarray(t_eval, dtype=float)
        if eval_times.size and (
            eval_times[0] < t0 or eval_times[-1] > t1 or np.any(np.diff(eval_times) <= 0)
        ):
            raise ValueError("t_eval must be strictly increasing within t_span")

    span = t1 - t0
    h_min = max(span * 1e-14, 1e-300)

    # initial step from the first derivative scale
    f0 = _rhs(h_of_t, t0, y)
    scale0 = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((np.abs(y) / scale0) ** 2))
    d1 = np.sqrt(np.mean((np.abs(f0) / scale0) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-12 and d1 > 1e-12 else span * 1e-6
    h = min(h, span, max_step)

    t = t0
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = f0
    err_prev = 1.0
    n_steps = 0
    n_rejected = 0
    sample_ts: list[float] = []
    sample_ys: list[np.ndarray] = []
    next_eval = 0
    if eval_times is not None and eval_times.size and (
        eval_times[0] - t0 <= 1e-12 * max(1.0, abs(t0))
    ):
        sample_ts.append(t0)
        sample_ys.append(y.copy())
        next_eval = 1

    while t < t1:
        if n_steps > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t = {t:.6g} (h = {h:.3g})")
        h = min(h, max_step, t1 - t)
        if eval_times is not None and next_eval < eval_times.size:
            target = eval_times[next_eval]
            if target > t:
                h = min(h, target - t)
        if h < h_min:
            raise StiffnessError(
                f"step size underflow at t = {t:.6g} (h = {h:.3g} < {h_min:.3g}); "
                "the system is too stiff for the requested tolerance"
            )

        for i in range(1, 7):
            yi = y + h * np.tensordot(_A[i], k[:i], axes=(0, 0))
            k[i] = _rhs(h_of_t, t + _C[i] * h, yi)
        y_new = y + h * np.tensordot(_B5, k, axes=(0, 0))
        err_vec = h * np.tensordot(_ERR, k, axes=(0, 0))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((np.abs(err_vec) / scale) ** 2))

        if err <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]  # FSAL
            n_steps += 1
            if eval_times is not None:
                while next_eval < eval_times.size and abs(t - eval_times[next_eval]) <= 1e-12 * max(
                    1.0, abs(t)
                ):
                    sample_ts.append(t)
                    sample_ys.append(y.copy())
                    next_eval += 1
            err = max(err, 1e-10)
            factor = _SAFETY * err ** (-_BETA1) * err_prev ** (_BETA2)
            err_prev = err
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))

    ts = np.asarray(sample_ts if sample_ts else [t], dtype=float)
    ys = np.asarray(sample_ys if sample_ys else [y])
    return Trajectory(ts=ts, ys=ys, final_t=t, final_y=y, n_steps=n_steps, n_rejected=n_rejected)
