"""High-level experiment reproductions: exceptional-point location (the
exact root at a rate read from the model, the monodromy quasi-energies or
the transfer poles of the spectrum), coupling-rate reconstruction over the
drive frequency, Bessel-weight fits of sideband heights, and the phase
diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _bessel_ladder,
    _hb_blocks,
    _require_finite,
    band_pair_coupling,
    classify_phase,
    coupling_rate,
    effective_coupling,
    monodromy_quasienergies,
    quasienergy_rate,
)
from .numerics.bessel import bessel_j
from .numerics.fit import FitResult, lm_fit
from .observables import detect_peaks, synthesize_spectrum
from .params import ModelParams, SimConfig

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

SIDEBAND_WINDOW = 250.0  # Hz each side of a sideband in harvest_sideband_heights
MAX_MODULATION_INDEX = 12.0  # upper end of the solve_modulation_depth scan


class BracketError(RuntimeError):
    """The bifurcation indicator does not change sign over the bracket."""


@dataclass(frozen=True)
class EpResult:
    """Located exceptional point on the ``|delta0|`` axis.

    ``gamma_eff`` is the coupling rate inferred from the threshold via
    ``|mu*| = 2*Gamma_eff``, nonnegative at either crossing.
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
    """EP-extracted coupling rate versus drive frequency, with its fit.

    ``pair`` is the band pair ``(n1, n2)`` of the fitted family.
    """

    omega_b: np.ndarray
    gamma_eff: np.ndarray
    pair: tuple
    gamma_c_fit: float
    delta_b_fit: float
    residual_norm: float
    ok: bool
    message: str = ""

    def fitted(self) -> np.ndarray:
        """The fitted curve at each drive frequency of :attr:`omega_b`."""
        return _rate_curve(self.gamma_c_fit, self.delta_b_fit, self.omega_b, self.pair)

    def residuals(self) -> np.ndarray:
        """Per-point misfit of the extracted rates against the fitted curve."""
        if not np.isfinite(self.gamma_c_fit):
            return self.gamma_eff.copy()
        return self.gamma_eff - self.fitted()


def _rate_curve(gamma_c: float, delta_b: float, omegas, pair) -> np.ndarray:
    """The fitted family ``gamma_c * |J_n1(delta_b/w) J_n2(delta_b/w)|`` at each ``w``."""
    return np.array([effective_coupling(gamma_c, delta_b, w, *pair) for w in omegas])


def _first_peak(pair) -> tuple[float, float]:
    """``(x, |J_n1(x) J_n2(x)|)`` at the first maximum.

    The scan in steps of 0.05 stops at the first decrease; the vertex of
    the parabola through the last three samples refines the maximum.  A
    maximum at ``x = 0`` (the pair ``(0, 0)``), where the family is flat,
    gives the first sample instead.
    """
    def weight(x):
        return band_pair_coupling(1.0, x, *pair)

    step = 0.05
    behind, x, peak = weight(0.0), step, weight(step)
    while (ahead := weight(x + step)) > peak:
        behind, x, peak = peak, x + step, ahead
    if behind >= peak:
        return x, peak
    curve = behind - 2.0 * peak + ahead
    return x + 0.5 * step * (behind - ahead) / curve, peak - 0.125 * (behind - ahead) ** 2 / curve


def _band(params: ModelParams, n: int) -> ModelParams:
    """The model at band order ``n``: its declared pair if ``n == params.n``, else ``(n, 0)``."""
    return params if n == params.n else params.but(n1=n, n2=0)


def _route_rate(params: ModelParams, cfg: SimConfig, route: str,
                gamma_eff_override: float | None) -> float:
    """``|Gamma|`` as the route reads it.

    The closed form uses the prescribed rate, else the model's.  The other
    routes read ``Gamma`` at the split-side points ``mu = +-(1.5, 2, 3) *
    scale``, ``scale = max(2*Gamma_eff, grid step)``, and average the six
    reads.  The monodromy route reads each by :func:`quasienergy_rate` from
    one batched integration, its scale capped at ``omega_b/7`` so that
    ``|mu| < omega_b/2`` and the folded gap cannot alias.

    The spectral route reads each from the transfer poles.  Near the coupled resonances
    ``c1 = delta0 + stark`` and ``c2 = n_s*omega_b + stark`` one Bessel block dominates the
    cross transfer ``P = Gamma_eff^2 * w @ (1/|det|^2)`` of :func:`steady_state_grid`, so
    ``P = J^2 Gamma^2 / |(delta - lam+)(delta - lam-)|^2`` and ``1/P`` is a real quartic with
    roots ``(c1 + c2)/2 +- r -+ i*gamma12``.  The quartic ``Q`` minimising ``sum (P*Q -
    1)^2`` is a linear least-squares fit (Levy 1959); ``Gamma^2 = mu^2/4 - r^2`` with ``r``
    half the spread of its roots' real parts.  The window is capped at ``0.15*omega_b`` to
    keep the other blocks out, and the probe goes to the channel with the larger block
    weight, ``|J_0(x)|`` or ``|J_n(x)|``.  The Bessel ladder, the probe and ``Gamma_eff^2``
    are computed once; each point then makes one real block-kernel call over its window.
    A transfer that is identically zero reads 0.
    """
    if route == "closed-form":
        return abs(coupling_rate(params) if gamma_eff_override is None else gamma_eff_override)
    geff = coupling_rate(params)
    scale = max(2.0 * geff, cfg.grid.step)
    if route == "monodromy":
        scale = min(scale, params.omega_b / 7.0)
    mus = np.array([1.5, 2.0, 3.0, -1.5, -2.0, -3.0]) * scale
    center = params.n * params.omega_b
    if route == "monodromy":
        sets = monodromy_quasienergies(params, cfg, center + mus)
        return float(np.mean([quasienergy_rate(q, m) for q, m in zip(sets, mus)]))
    ks, ladder = _bessel_ladder(params.modulation_index, params.n)
    probe = 1 if abs(ladder[0]) >= abs(ladder[params.n]) else 2
    cross = geff ** 2
    rates = []
    for p in (params.at_detuning(center + m) for m in mus):
        c1, c2 = p.delta0 + p.stark_shift, p.n_signed * p.omega_b + p.stark_shift
        mu = c1 - c2
        half = min(abs(mu) + 6.0 * p.gamma12 + 4.0 * geff, 0.15 * p.omega_b)
        u = np.arange(-half, half, cfg.grid.step) / half
        deltas = 0.5 * (c1 + c2) + half * u
        inv = _hb_blocks(p, ks, deltas, cross)[2]
        with np.errstate(invalid="ignore", over="ignore"):  # checked next
            transfer = cross * (ladder[np.abs(ks - (probe - 1) * p.n_signed)] ** 2 @ inv)
        _require_finite(transfer, inv, deltas)
        if (peak := transfer.max()) == 0.0:
            rates.append(0.0)
            continue
        quartic = np.linalg.lstsq((transfer / peak)[:, None] * np.vander(u, 5), np.ones(u.size),
                                  rcond=None)[0]
        re = np.roots(quartic).real
        r = 0.5 * half * (re.max() - re.min())
        rates.append(math.sqrt(max(0.25 * mu * mu - r * r, 0.0)))
    return float(np.mean(rates))


def locate_ep(params: ModelParams, n: int | None, route: str, cfg: SimConfig,
              bracket=None, gamma_eff: float | None = None) -> EpResult:
    """Locate the symmetry-breaking threshold of band order n on ``|delta0|``.

    Every route reads a rate ``|Gamma|`` by :func:`_route_rate`, once per
    call: the closed form takes the exact ``Gamma_eff``, the monodromy route
    reads it from the quasi-energies of one batched integration and the
    spectral route from six spectra.  The indicator ``| |delta0| -
    n*omega_b | > 2*|Gamma|`` must differ at the two ends of the bracket, by
    default ``[n*omega_b, n*omega_b + 10*gamma_c]``.  The result is the
    exact root ``n*omega_b + 2*|Gamma|`` (``-`` when the bracket holds the
    lower crossing), with ``iterations = 0`` and the bracket collapsed onto
    it.  The reported rate is ``|mu*|/2`` at either crossing.

    ``gamma_eff`` overrides the Bessel-product coupling rate for the
    closed-form route (used when the rate is prescribed rather than derived
    from the drive); its sign is ignored.

    Raises
    ------
    ValueError
        If the band order is negative (the default bracket would lie at
        negative ``|delta0|``), if ``bracket`` is not finite or not ordered
        ``lo < hi``, or if ``gamma_eff`` is given for a route other than
        closed-form, or if ``route`` is not one of :data:`ROUTES`.
    BracketError
        If the indicator does not change sign across the bracket.
    """
    if gamma_eff is not None and route != "closed-form":
        raise ValueError(f"a prescribed gamma_eff applies to the closed-form route only, not {route!r}")
    if n is not None:
        params = _band(params, n)
    n = params.n
    if n < 0:
        raise ValueError(f"band order n must be >= 0, got {n}")
    if bracket is None:
        lo = n * params.omega_b
        hi = n * params.omega_b + 10.0 * max(params.gamma_c, 1.0)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bracket must be finite with lo < hi, got [{lo:g}, {hi:g}]")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    rate = _route_rate(params, cfg, route, gamma_eff)
    split_lo, split_hi = (abs(d - n * params.omega_b) > 2.0 * rate for d in (lo, hi))
    if split_lo == split_hi:
        raise BracketError(
            f"no bifurcation in bracket [{lo:g}, {hi:g}] Hz via {route}: "
            f"indicator is {'split' if split_lo else 'merged'} at both ends"
        )
    # a bracket that starts split holds the lower crossing
    star = n * params.omega_b + (-2.0 if split_lo else 2.0) * rate
    return EpResult(
        delta0_star=star,
        gamma_eff=0.5 * abs(star - n * params.omega_b),
        route=route,
        bracket=(star, star),
        iterations=0,
    )


def gamma_curve(params: ModelParams, omega_b_grid, cfg: SimConfig,
                route: str = "spectral-pipeline") -> GammaCurve:
    """EP-extracted ``Gamma_eff(omega_b)`` and its ``|J_n1*J_n2|`` curve fit.

    For each drive frequency the EP of the declared band pair is located
    (spectral pipeline by default), ``mu*/2`` recorded, and the family
    ``gamma_c * |J_n1(delta_b/w) J_n2(delta_b/w)|`` fitted over
    ``(gamma_c, delta_b)``, from the first maximum of ``|J_n1*J_n2|`` placed
    at the largest rate.  The fit is rejected with a diagnostic when the
    extracted rates are all consistent with zero.
    """
    omegas = np.asarray(omega_b_grid, dtype=float)
    pair = (params.n1, params.n2)
    rates = np.empty(omegas.size)
    for i, w in enumerate(omegas):
        p = params.but(omega_b=w)
        rates[i] = locate_ep(p, p.n, route, cfg).gamma_eff

    if rates.max() < 1.0:
        return GammaCurve(omegas, rates, pair, math.nan, math.nan, math.nan,
                          ok=False, message="all extracted rates consistent with zero; nothing to fit")

    def model(p, w):
        return _rate_curve(abs(p[0]), p[1], w, pair)

    i_max = int(np.argmax(rates))
    x_peak, peak = _first_peak(pair)
    p0 = np.array([rates[i_max] / peak, x_peak * omegas[i_max]])
    fit = lm_fit(model, omegas, rates, p0)
    gc_fit, db_fit = abs(fit.parameters[0]), abs(fit.parameters[1])
    return GammaCurve(
        omega_b=omegas,
        gamma_eff=rates,
        pair=pair,
        gamma_c_fit=float(gc_fit),
        delta_b_fit=float(db_fit),
        residual_norm=fit.residual_norm,
        ok=fit.converged,
        message=fit.message,
    )


def harvest_sideband_heights(params: ModelParams, omega_b_grid, cfg: SimConfig,
                             orders=(0, 1, 2)):
    """Peak heights of the probed channel's sideband orders across drive frequencies.

    For each ``omega_b`` the single-probe spectrum is synthesized in
    windows of :data:`SIDEBAND_WINDOW` each side of ``delta0 + m*omega_b``
    and the detected peak height
    recorded per order m.  The probed channel's own response is read so the
    heights carry the bare ``J_m^2`` weights with an
    ``omega_b``-independent prefactor.

    Returns a dict ``m -> list[(omega_b, height)]``.
    """
    heights: dict[int, list] = {m: [] for m in orders}
    for w in np.asarray(omega_b_grid, dtype=float):
        p = params.but(omega_b=w)
        step = cfg.grid.step
        for m in orders:
            center = p.delta0 + p.stark_shift + m * w
            grid = np.arange(center - SIDEBAND_WINDOW, center + SIDEBAND_WINDOW + step, step)
            trace = synthesize_spectrum(p, cfg, probed_channels=(1,), grid=grid)
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

    if m == 0:
        p0 = [float(h.max()), 0.5 * float(np.min(w))]
    else:  # the tallest height sits at the first maximum of J_m^2
        x_peak, peak = _first_peak((m, m))
        p0 = [float(h.max()) / max(peak, 1e-3), x_peak * float(w[np.argmax(h)])]
    return lm_fit(model, w, h, np.array(p0))


def phase_diagram(params: ModelParams, delta0_abs_grid, omega_b_grid, n: int,
                  resolution: float = 1.0) -> np.ndarray:
    """Symmetry-phase classification over an (|delta0|, omega_b) grid.

    Returns an integer array of shape ``(len(delta0_grid), len(omega_b_grid))``
    with 0 = unbroken, 1 = EP band (``|mu - 2*Gamma_eff| < resolution``),
    2 = broken.  Classification uses the closed-form discriminant with the
    coupling rate of the band pair :func:`_band` picks; it is invariant under
    the rigid decay shift and the common Stark offset by construction.
    """
    d0s = np.asarray(delta0_abs_grid, dtype=float)
    ws = np.asarray(omega_b_grid, dtype=float)
    band = _band(params, n)
    geff = np.array([effective_coupling(params.gamma_c, params.delta_b, w, band.n1, band.n2)
                     for w in ws])
    mu_abs = np.abs(d0s[:, None] - n * ws[None, :])
    # the EP band is strict: |mu - 2*Gamma_eff| < resolution
    return classify_phase(mu_abs, 2.0 * geff, np.nextafter(resolution, -np.inf))


def solve_modulation_depth(gamma_c: float, omega_b: float, n1: int, n2: int,
                           target_gamma_eff: float) -> float:
    """Smallest drive depth ``delta_b`` with ``Gamma_eff = target``.

    Scans ``x = delta_b/omega_b`` up to :data:`MAX_MODULATION_INDEX` for
    the first bracket where ``|J_n1(x) J_n2(x)| * gamma_c`` crosses the
    target, then bisects until the bracket is two adjacent doubles.

    Raises
    ------
    ValueError
        If the target rate is unreachable for the given band pair.
    """
    if target_gamma_eff < 0:
        raise ValueError("target coupling rate must be >= 0")

    def f(x):
        return band_pair_coupling(gamma_c, x, n1, n2) - target_gamma_eff

    xs = np.arange(0.0, MAX_MODULATION_INDEX, 0.02)
    f_hi = f(xs[0])
    for a, b in zip(xs[:-1], xs[1:]):
        f_lo, f_hi = f_hi, f(b)
        if f_lo < 0.0 <= f_hi:
            lo, hi = a, b
            break
    else:
        raise ValueError(
            f"Gamma_eff = {target_gamma_eff:g} Hz unreachable for bands ({n1}, {n2}) "
            f"with gamma_c = {gamma_c:g} Hz over x <= {MAX_MODULATION_INDEX:g}"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return mid * omega_b
