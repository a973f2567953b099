"""High-level experiment reproductions: exceptional-point location by
bifurcation search, coupling-rate reconstruction over the drive frequency,
Bessel-weight fits of sideband heights, and the phase diagram.

EP-location pipelines run best with narrow lines (``gamma12`` around 20 Hz)
so the apparent peak pulling of overlapping resonances stays well below the
5 percent extraction targets; the defaults below assume the caller sets
that in the parameter template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    band_pair_coupling,
    branch_root,
    classify_phase,
    effective_coupling,
    monodromy_quasienergies,
    quasienergy_gap,
)
from .numerics.bessel import bessel_j
from .numerics.fit import FitResult, lm_fit
from .observables import _separation_point, detect_peaks, synthesize_spectrum
from .params import ModelParams, SimConfig, required_truncation

__all__ = [
    "BracketError",
    "EpResult",
    "GammaCurve",
    "ROUTES",
    "locate_ep",
    "gamma_curve",
    "harvest_sideband_heights",
    "fit_sideband_heights",
    "phase_diagram",
    "solve_modulation_depth",
]

ROUTES = ("closed-form", "monodromy", "spectral-pipeline")


class BracketError(RuntimeError):
    """The bifurcation indicator does not change sign over the bracket."""


@dataclass(frozen=True)
class EpResult:
    """Located exceptional point on the ``|delta0|`` axis.

    ``gamma_eff`` is the coupling rate inferred from the threshold via
    ``mu* = 2*Gamma_eff``.
    """

    delta0_star: float
    gamma_eff: float
    route: str
    bracket: tuple
    iterations: int

    @property
    def mismatch_star(self) -> float:
        return 2.0 * self.gamma_eff


@dataclass
class GammaCurve:
    """EP-extracted coupling rate versus drive frequency, with its fit."""

    omega_b: np.ndarray
    gamma_eff: np.ndarray
    gamma_c_fit: float
    delta_b_fit: float
    residual_norm: float
    fit: FitResult | None
    ok: bool
    message: str = ""

    def residuals(self) -> np.ndarray:
        """Per-point misfit of the extracted rates against the fitted curve."""
        if not np.isfinite(self.gamma_c_fit):
            return self.gamma_eff.copy()
        model = np.array(
            [effective_coupling(self.gamma_c_fit, self.delta_b_fit, w, 1, 0) for w in self.omega_b]
        )
        return self.gamma_eff - model


def _split_indicator(params: ModelParams, cfg: SimConfig, route: str,
                     gamma_eff_override: float | None):
    """Return f(|delta0|) -> True when the pair has bifurcated (broken)."""
    n = params.n
    sign = -1.0 if params.delta0 <= 0 else 1.0

    if route == "closed-form":
        geff = (
            gamma_eff_override
            if gamma_eff_override is not None
            else effective_coupling(params.gamma_c, params.delta_b, params.omega_b,
                                    params.n1, params.n2)
        )

        def indicator(d0_abs: float) -> bool:
            return bool(branch_root(d0_abs - n * params.omega_b, geff).real > 0.0)

        return indicator

    if route == "monodromy":
        def indicator(d0_abs: float) -> bool:
            q = monodromy_quasienergies(params.but(delta0=sign * d0_abs), cfg)
            return quasienergy_gap(q) > 1.0

        return indicator

    if route == "spectral-pipeline":
        def indicator(d0_abs: float) -> bool:
            point = _separation_point(params.but(delta0=sign * d0_abs), cfg)
            return not point.merged

        return indicator

    raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")


def locate_ep(params: ModelParams, n: int | None, route: str, cfg: SimConfig,
              bracket=None, gamma_eff: float | None = None,
              tol: float = 0.5) -> EpResult:
    """Bisect ``|delta0|`` for the symmetry-breaking threshold of band order n.

    The bifurcation indicator depends on the route: sign of the closed
    form's discriminant, the folded quasi-energy real-part gap crossing
    1 Hz, or the merged flag of the spectral separation pipeline.  The
    default bracket is ``[n*omega_b, n*omega_b + 10*gamma_c]``; bisection
    stops when the bracket width drops below ``tol`` (0.5 Hz).

    ``gamma_eff`` overrides the Bessel-product coupling rate for the
    closed-form route (used when the rate is prescribed rather than derived
    from the drive).

    Raises
    ------
    BracketError
        If the indicator does not change sign across the bracket.
    """
    if n is not None and n != params.n:
        params = params.but(n1=n, n2=0)
    n = params.n
    if bracket is None:
        lo = n * params.omega_b
        hi = n * params.omega_b + 10.0 * max(params.gamma_c, 1.0)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
    indicator = _split_indicator(params, cfg, route, gamma_eff)

    split_lo = indicator(lo)
    split_hi = indicator(hi)
    if split_lo == split_hi:
        raise BracketError(
            f"no bifurcation in bracket [{lo:g}, {hi:g}] Hz via {route}: "
            f"indicator is {'split' if split_lo else 'merged'} at both ends"
        )
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if indicator(mid) == split_lo:
            lo = mid
        else:
            hi = mid
        iterations += 1
    star = 0.5 * (lo + hi)
    mu_star = star - n * params.omega_b
    return EpResult(
        delta0_star=star,
        gamma_eff=0.5 * mu_star,
        route=route,
        bracket=(lo, hi),
        iterations=iterations,
    )


def gamma_curve(params: ModelParams, omega_b_grid, cfg: SimConfig,
                route: str = "spectral-pipeline") -> GammaCurve:
    """EP-extracted ``Gamma_eff(omega_b)`` and its ``|J0*J1|`` curve fit.

    For each drive frequency the EP is located (spectral pipeline by
    default), ``mu*/2`` recorded, and the family
    ``gamma_c * |J0(delta_b/w) J1(delta_b/w)|`` fitted over
    ``(gamma_c, delta_b)``.  The fit is rejected with a diagnostic when the
    extracted rates are all consistent with zero.
    """
    omegas = np.asarray(omega_b_grid, dtype=float)
    rates = np.empty(omegas.size)
    for i, w in enumerate(omegas):
        p = params.but(omega_b=w)
        c = cfg.but(truncation_m=max(cfg.truncation_m, required_truncation(p)))
        rates[i] = locate_ep(p, p.n, route, c).gamma_eff

    if rates.max() < 1.0:
        return GammaCurve(omegas, rates, math.nan, math.nan, math.nan, None,
                          ok=False, message="all extracted rates consistent with zero; nothing to fit")

    def model(p, w):
        gc, db = p
        return np.array([effective_coupling(abs(gc), db, wi, 1, 0) for wi in w])

    i_max = int(np.argmax(rates))
    p0 = np.array([rates[i_max] / 0.3386, 1.0819 * omegas[i_max]])
    fit = lm_fit(model, omegas, rates, p0)
    gc_fit, db_fit = abs(fit.parameters[0]), abs(fit.parameters[1])
    return GammaCurve(
        omega_b=omegas,
        gamma_eff=rates,
        gamma_c_fit=float(gc_fit),
        delta_b_fit=float(db_fit),
        residual_norm=fit.residual_norm,
        fit=fit,
        ok=fit.converged,
        message=fit.message,
    )


def harvest_sideband_heights(params: ModelParams, omega_b_grid, cfg: SimConfig,
                             orders=(0, 1, 2), window: float = 250.0):
    """Peak heights of the probed channel's sidebands across drive frequencies.

    For each ``omega_b`` the single-probe spectrum is synthesized in narrow
    windows around ``delta0 + m*omega_b`` and the detected peak height
    recorded per order m.  The probed channel's own response is read so the
    heights carry the bare ``J_m^2`` weights with an
    ``omega_b``-independent prefactor.

    Returns a dict ``m -> list[(omega_b, height)]``.
    """
    heights: dict[int, list] = {m: [] for m in orders}
    for w in np.asarray(omega_b_grid, dtype=float):
        p = params.but(omega_b=w)
        c = cfg.but(truncation_m=max(cfg.truncation_m, required_truncation(p)))
        step = cfg.grid.step
        for m in orders:
            center = p.delta0 + p.stark_shift + m * w
            grid = np.arange(center - window, center + window + step, step)
            trace = synthesize_spectrum(p, c, probed_channels=(1,), grid=grid)
            ys = trace.powers[1]
            found = detect_peaks((grid, ys), prominence=0.05 * ys.max())
            h = found.nearest(center).height if len(found) else float(ys.max())
            heights[m].append((float(w), float(h)))
    return heights


def fit_sideband_heights(heights, m: int) -> FitResult:
    """Fit ``alpha * J_m(k/omega_b)^2`` to (omega_b, height) pairs.

    Returns the recovered ``k`` (the modulation-depth estimate) as
    ``parameters[1]``.  Degenerate data produce a non-convergence
    diagnostic rather than an exception.
    """
    data = np.asarray(heights, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ValueError("heights must be at least three (omega_b, height) pairs")
    w, h = data[:, 0], data[:, 1]
    if m >= 1 and np.ptp(h) == 0.0:
        # constant nonzero heights cannot come from alpha*J_m^2(k/w), m >= 1
        return FitResult(
            parameters=np.array([float(h[0]), 0.0]),
            residual_norm=float(np.linalg.norm(h)),
            jacobian_condition_proxy=np.inf,
            iterations=0,
            converged=False,
            message="degenerate data: all heights equal",
        )

    def model(p, x):
        alpha, k = p
        return np.array([alpha * bessel_j(m, k / xi) ** 2 for xi in x])

    peak_x = {0: 0.0, 1: 1.8412, 2: 3.0542, 3: 4.2012}.get(m, 1.0 + 1.1 * m)
    if m == 0:
        k0 = 0.5 * float(np.min(w))
    else:
        k0 = peak_x * float(w[np.argmax(h)])
    alpha0 = float(h.max()) / max(bessel_j(m, peak_x) ** 2, 1e-3) if m else float(h.max())
    return lm_fit(model, w, h, np.array([alpha0, k0]))


def phase_diagram(params: ModelParams, delta0_abs_grid, omega_b_grid, n: int,
                  resolution: float = 1.0) -> np.ndarray:
    """Symmetry-phase classification over an (|delta0|, omega_b) grid.

    Returns an integer array of shape ``(len(delta0_grid), len(omega_b_grid))``
    with 0 = unbroken, 1 = EP band (``|mu - 2*Gamma_eff| < resolution``),
    2 = broken.  Classification uses the closed-form discriminant with the
    band-pair coupling rate; it is invariant under the rigid decay shift
    and the common Stark offset by construction.
    """
    d0s = np.asarray(delta0_abs_grid, dtype=float)
    ws = np.asarray(omega_b_grid, dtype=float)
    geff = np.array([effective_coupling(params.gamma_c, params.delta_b, w, n, 0) for w in ws])
    mu_abs = np.abs(d0s[:, None] - n * ws[None, :])
    # the EP band is strict: |mu - 2*Gamma_eff| < resolution
    return classify_phase(mu_abs, 2.0 * geff, np.nextafter(resolution, -np.inf))


def solve_modulation_depth(gamma_c: float, omega_b: float, n1: int, n2: int,
                           target_gamma_eff: float, x_max: float = 12.0) -> float:
    """Smallest drive depth ``delta_b`` with ``Gamma_eff = target``.

    Scans ``x = delta_b/omega_b`` for the first bracket where
    ``|J_n1(x) J_n2(x)| * gamma_c`` crosses the target, then bisects.

    Raises
    ------
    ValueError
        If the target rate is unreachable for the given band pair.
    """
    if target_gamma_eff < 0:
        raise ValueError("target coupling rate must be >= 0")

    def f(x):
        return band_pair_coupling(gamma_c, x, n1, n2) - target_gamma_eff

    xs = np.arange(0.0, x_max, 0.02)
    lo = None
    for a, b in zip(xs[:-1], xs[1:]):
        if f(a) < 0.0 <= f(b):
            lo, hi = a, b
            break
    else:
        raise ValueError(
            f"Gamma_eff = {target_gamma_eff:g} Hz unreachable for bands ({n1}, {n2}) "
            f"with gamma_c = {gamma_c:g} Hz over x <= {x_max:g}"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * omega_b
