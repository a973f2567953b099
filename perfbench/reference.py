"""Independent closed-form references for checking floqept results.

Nothing here imports floqept.  The Bessel function comes from its integral
representation, not from the package's series and Miller kernels, so a
defect in the program's numerics cannot cancel out of a check.
"""

from __future__ import annotations

import math

import numpy as np

_NODES = 256
_THETA = np.arange(_NODES) * (2.0 * math.pi / _NODES)
_SIN = np.sin(_THETA)

# Acceptance-criterion tolerances (tests/test_acceptance.py).
MONODROMY_EP_TOL_HZ = 2.0  # criterion 10: monodromy EP vs closed form
GAMMA_CURVE_REL = 0.05  # criterion 8: fitted gamma_c and delta_b
MODULATION_DEPTH_REL = 1e-6  # solve_modulation_depth hits its target rate


def bessel_j(n: int, x: float) -> float:
    """``J_n(x) = (1/2pi) * integral over one period of cos(n t - x sin t)``.

    The integrand is smooth and 2pi-periodic, so the trapezoid rule
    converges geometrically; 256 nodes reach double precision for
    ``|x| <= 50`` and the orders used here.
    """
    return float(np.mean(np.cos(n * _THETA - x * _SIN)))


def gamma_eff(gamma_c: float, delta_b: float, omega_b: float, n1: int, n2: int = 0) -> float:
    """Band-pair coupling rate ``gamma_c * |J_n1(x) J_n2(x)|``, ``x = delta_b/omega_b``."""
    x = delta_b / omega_b
    return gamma_c * abs(bessel_j(abs(n1), x) * bessel_j(abs(n2), x))


def spectral_ep_tolerance(step: float, gamma12: float) -> float:
    """Criterion 10's resolution of the spectral-pipeline EP, Hz."""
    return max(2.0, 2.0 * step, 0.2 * 2.0 * gamma12)


def ep_miss(mu_star: float, rate: float, tol: float) -> str | None:
    """None when the EP mismatch ``mu*`` is within ``tol`` of ``2*Gamma_eff``."""
    err = abs(mu_star - 2.0 * rate)
    if err <= tol:
        return None
    return f"|mu* - 2*Gamma_eff| = {err:.3g} Hz > {tol:.3g} Hz (mu* = {mu_star:.6g}, Gamma_eff = {rate:.6g})"


def relative_miss(name: str, got: float, want: float, rel: float) -> str | None:
    if abs(got - want) <= rel * abs(want):
        return None
    return f"{name} = {got:.6g}, reference {want:.6g} (allowed {rel:.0%})"


def beat_miss(found: bool, frequency: float, mismatch: float, sim_duration: float) -> str | None:
    """Criterion 7: the beat is found and sits within ``1/sim_duration`` of ``mu``."""
    if not found:
        return f"no beat found at mu = {mismatch:.6g} Hz"
    tol = 1.0 / sim_duration
    if abs(frequency - mismatch) <= tol:
        return None
    return f"beat {frequency:.6g} Hz vs mismatch {mismatch:.6g} Hz (allowed {tol:.3g} Hz)"


def circular_distance(a: float, b: float, period: float) -> float:
    return abs((a - b + 0.5 * period) % period - 0.5 * period)


def eigen_tolerance(distance_to_ep: float) -> float:
    """Allowed monodromy-vs-RWA real-part error, Hz, at a distance from the EP.

    Away from the EP the routes agree to about 5e-7 Hz.  Next to it the
    eigenvalues depend on the square root of the discriminant, so the
    integrator's error is amplified like ``1/sqrt(distance)``; the cap at
    1e-2 Hz covers a point that lands on the EP itself.
    """
    d = abs(distance_to_ep)
    return min(1e-2, max(1e-6, 2e-6 / math.sqrt(d))) if d > 0 else 1e-2


def sweep(start: float, stop: float, step: float) -> np.ndarray:
    """The CLI's documented ``START:STOP:STEP`` expansion (both ends included)."""
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(count)


def phase_class(delta0_abs: float, omega_b: float, n: int, rate: float,
                resolution: float) -> int:
    """0 unbroken, 1 EP band (``||mu| - 2*Gamma_eff| < resolution``), 2 broken."""
    mu = abs(delta0_abs - n * omega_b)
    if abs(mu - 2.0 * rate) < resolution:
        return 1
    return 0 if mu < 2.0 * rate else 2
