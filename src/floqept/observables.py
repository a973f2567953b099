"""Measured quantities: synthesized spectra, peak extraction, EIT peak
separation curves and beat-note measurement.

The transmission observable is the time-averaged steady-state spin-wave
power per channel, ``P_j(delta) = sum_m |s_(j,m)|^2``; sideband heights
are the peak heights of these curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    EngineError,
    LabFrameModel,
    branch_root,
    coupling_rate,
    steady_state_grid,
)
from .numerics.spectral import parabolic_shift, refine_scan
from .params import ModelParams, SimConfig

__all__ = [
    "SpectrumTrace",
    "Peak",
    "PeakSet",
    "BeatMeasurement",
    "SeparationPoint",
    "synthesize_spectrum",
    "detect_peaks",
    "separation_curve",
    "beat_frequency",
]

REL_PROMINENCE = 0.02  # separation peaks: prominence relative to the window maximum
BEAT_CONFIDENCE = 20.0  # beat: required scan-maximum to scan-median ratio
BEAT_AMPLITUDE_FLOOR = 1e-6  # beat: smallest log-contrast amplitude that counts


@dataclass
class SpectrumTrace:
    """Response-power-vs-probe-detuning curves for both channels.

    ``powers[j]`` (j in {1, 2}) is the power read in channel j.  When a
    channel is probed its curve is its own response; an unprobed channel is
    read under the other channel's probe (cross-channel transfer, the
    single-probe configuration).
    """

    grid: np.ndarray
    powers: dict[int, np.ndarray]
    params: ModelParams = None


@dataclass(frozen=True)
class Peak:
    center: float
    height: float
    fwhm: float
    sideband: int | None = None


@dataclass
class PeakSet:
    """Detected peaks sorted by ascending center."""

    peaks: list[Peak] = field(default_factory=list)

    def __len__(self):
        return len(self.peaks)

    def __iter__(self):
        return iter(self.peaks)

    def __getitem__(self, i):
        return self.peaks[i]

    def tallest(self) -> Peak:
        return max(self.peaks, key=lambda p: p.height)

    def nearest(self, x: float) -> Peak:
        return min(self.peaks, key=lambda p: abs(p.center - x))


@dataclass(frozen=True)
class BeatMeasurement:
    """Dominant nonzero-frequency component of the two-mode interference."""

    frequency: float
    amplitude: float
    confidence: float
    found: bool


@dataclass(frozen=True)
class SeparationPoint:
    delta0_abs: float
    separation: float
    merged: bool
    eigen_separation: float


def synthesize_spectrum(params: ModelParams, cfg: SimConfig,
                        probed_channels=(1, 2), amplitude: complex = 1.0,
                        grid=None) -> SpectrumTrace:
    """Sweep the harmonic-balance solver over the probe-detuning grid.

    With both channels probed, each channel's curve is its own-probe power
    (the coupled two-channel configuration); both probes are solved in one
    :func:`~floqept.engine.steady_state_grid` call on the exact 2x2
    Bessel blocks, so ``cfg.truncation_m`` does not enter.
    With a single probed channel, both curves come from that one probe: the
    unprobed channel's curve is the dissipatively transferred response.
    """
    grid_pts = cfg.grid.points() if grid is None else np.asarray(grid, dtype=float)
    probed = tuple(sorted(set(probed_channels)))
    if probed == (1, 2):
        p = steady_state_grid(params, cfg, probed, grid_pts, amplitude)
        powers = {ch: p[ch - 1, ch - 1] for ch in (1, 2)}
    elif len(probed) == 1:
        p = steady_state_grid(params, cfg, probed[0], grid_pts, amplitude)
        powers = {read: p[read - 1] for read in (1, 2)}
    else:
        raise ValueError(f"probed_channels must be (1,), (2,) or (1, 2); got {probed_channels}")
    return SpectrumTrace(grid=grid_pts, powers=powers, params=params)


def _prominences(y: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    out = np.empty(maxima.size)
    for k, i in enumerate(maxima):
        h = y[i]
        base_l = y[:i].min() if i > 0 else h
        j = i - 1
        while j >= 0 and y[j] <= h:
            j -= 1
        if j >= 0:
            base_l = y[j + 1 : i + 1].min()
        base_r = y[i + 1 :].min() if i < y.size - 1 else h
        j = i + 1
        while j < y.size and y[j] <= h:
            j += 1
        if j < y.size:
            base_r = y[i : j].min()
        out[k] = h - max(base_l, base_r)
    return out


def _half_crossing(x, y, i_peak, half, direction):
    i = i_peak
    while 0 <= i + direction < y.size and y[i + direction] > half:
        i += direction
    j = i + direction
    if j < 0 or j >= y.size:
        return x[i]
    # linear interpolation between samples i and j
    if y[i] == y[j]:
        return x[j]
    frac = (y[i] - half) / (y[i] - y[j])
    return x[i] + frac * (x[j] - x[i])


def detect_peaks(trace, prominence: float, channel: int | None = None,
                 omega_b: float | None = None, reference: float | None = None) -> PeakSet:
    """Local maxima above a prominence threshold, with refined centers.

    Centers are refined by three-point parabolic interpolation; FWHM by
    linear interpolation of the half-height crossings.  ``trace`` is either
    a :class:`SpectrumTrace` (then ``channel`` selects the curve) or an
    ``(x, y)`` pair of arrays.  Detection is invariant under uniform scaling
    of the trace up to the prominence threshold, which is absolute.

    Sideband labels are attached when the drive frequency is resolvable:
    ``label = round((center - reference) / omega_b)``, the displacement of
    the peak from the channel resonance in drive quanta.  For a
    SpectrumTrace both ``omega_b`` and the channel resonance default from
    its parameters.
    """
    if prominence <= 0:
        raise ValueError("prominence must be positive")
    if isinstance(trace, SpectrumTrace):
        if channel is None:
            raise ValueError("channel required when passing a SpectrumTrace")
        x, y = trace.grid, trace.powers[channel]
        if omega_b is None and trace.params is not None:
            omega_b = trace.params.omega_b
            if reference is None:
                reference = trace.params.stark_shift + (
                    trace.params.delta0 if channel == 1 else 0.0
                )
    else:
        x, y = trace
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
    if reference is None:
        reference = 0.0
    if x.size == 0 or y.size == 0:
        raise ValueError("empty trace")
    if x.size != y.size:
        raise ValueError("grid and power arrays must have matching length")

    interior = np.arange(1, y.size - 1)
    is_max = (y[interior] > y[interior + 1]) & (y[interior] >= y[interior - 1])
    maxima = interior[is_max]
    if maxima.size == 0:
        return PeakSet([])
    proms = _prominences(y, maxima)
    keep = maxima[proms >= prominence]

    peaks = []
    for i in keep:
        ym, y0, yp = y[i - 1], y[i], y[i + 1]
        shift = parabolic_shift(ym, y0, yp)
        step = x[i + 1] - x[i] if shift >= 0 else x[i] - x[i - 1]
        center = x[i] + shift * step
        height = y0 - 0.25 * (ym - yp) * shift
        half = 0.5 * height
        left = _half_crossing(x, y, i, half, -1)
        right = _half_crossing(x, y, i, half, +1)
        fwhm = max(right - left, np.finfo(float).tiny)
        label = int(round((center - reference) / omega_b)) if omega_b else None
        peaks.append(Peak(center=float(center), height=float(height), fwhm=float(fwhm),
                          sideband=label))
    peaks.sort(key=lambda p: p.center)
    return PeakSet(peaks)


def separation_curve(params: ModelParams, delta0_abs_grid,
                     cfg: SimConfig) -> list[SeparationPoint]:
    """Coupled-pipeline EIT separation versus ``|delta0|``.

    For each ``|delta0|`` the coupled two-channel spectra are synthesized;
    the channel-1 peak is searched within half a drive period of the
    channel-1 resonance, the channel-2 peak within the same window of the
    coupled sideband (peaks of prominence at least :data:`REL_PROMINENCE`
    of the window maximum), and the center difference recorded.  Peaks closer
    than ``max(2 grid steps, 0.2*FWHM)`` are reported merged with
    separation 0.  Each point also carries the closed-form eigenmode
    separation ``2*Re sqrt(mu^2/4 - Gamma_eff^2)`` for comparison.
    """
    return [_separation_point(params.at_detuning(d0_abs), cfg)
            for d0_abs in np.asarray(delta0_abs_grid, dtype=float)]


def _separation_point(params: ModelParams, cfg: SimConfig) -> SeparationPoint:
    ns = params.n_signed
    c1 = params.delta0 + params.stark_shift
    c2 = ns * params.omega_b + params.stark_shift
    half_window = 0.5 * params.omega_b
    step = cfg.grid.step
    lo = min(c1, c2) - half_window
    hi = max(c1, c2) + half_window
    grid = np.arange(lo, hi + step, step)
    trace = synthesize_spectrum(params, cfg, probed_channels=(1, 2), grid=grid)

    centers = []
    for ch, cc in ((1, c1), (2, c2)):
        mask = np.abs(grid - cc) <= half_window
        xs, ys = grid[mask], trace.powers[ch][mask]
        prom = REL_PROMINENCE * ys.max()
        found = detect_peaks((xs, ys), prominence=prom)
        if len(found) == 0:
            # single monotone bump clipped by the window; fall back to argmax
            i = int(np.argmax(ys))
            centers.append(xs[i])
            continue
        centers.append(found.tallest().center)

    separation = abs(centers[0] - centers[1])
    eigen_sep = 2.0 * float(branch_root(params.mismatch, coupling_rate(params)).real)
    # the floor uses the nominal linewidth (power FWHM 2*gamma12): the measured
    # FWHM degenerates right at the coalescence, where the criterion has to act
    merged = separation < max(2.0 * step, 0.2 * (2.0 * params.gamma12))
    return SeparationPoint(
        delta0_abs=abs(params.delta0),
        separation=0.0 if merged else separation,
        merged=merged,
        eigen_separation=eigen_sep,
    )


def beat_frequency(params: ModelParams, cfg: SimConfig) -> BeatMeasurement:
    """Beat note of the coupled lab-frame dynamics with both modes seeded.

    Evaluates the exact lab-frame states
    (:meth:`~floqept.engine.LabFrameModel.undamped_states`) with equal
    seeding of both channels, discards a five-decay-time transient, and
    records the channel-1 power ``|s_1(t)|^2`` over ``cfg.sim_duration``,
    read as ``|u_1(t)|^2`` of the interaction-frame amplitude: the lab frame
    and the common-mode phase have unit modulus.
    The rigid ``-i*gamma12`` decay is left out (it factors out of the
    dynamics as ``exp(-2 pi gamma12 t)`` and carries no beat information),
    which keeps the projection window flat.  The log-power series is
    detrended and its single-frequency projection scanned up to half the
    drive frequency (one chirp z-transform); the refined maximum is
    returned when its magnitude stands above the scan median by
    :data:`BEAT_CONFIDENCE`.

    At zero mismatch there is no oscillating component and the result has
    ``found = False`` rather than raising: a component counts as found only
    when it stands above the scan median by :data:`BEAT_CONFIDENCE` and
    its log-contrast amplitude exceeds :data:`BEAT_AMPLITUDE_FLOOR`.

    Raises
    ------
    EngineError
        When a sampled power is not finite: for ``|mismatch| <
        2*Gamma_eff`` the undamped states grow exponentially and overflow.
    """
    duration = cfg.sim_duration
    transient = 5.0 / (2.0 * math.pi * params.gamma12) if params.gamma12 > 0 else 0.0
    transient = min(transient, 2.0 * duration)  # keep pathological gamma12 bounded
    dt = 1.0 / (3.0 * params.omega_b)
    ts = np.arange(transient, transient + duration, dt)
    y0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(LabFrameModel(params)._amplitude(y0, ts[:, None])[:, 0]) ** 2
    if not np.all(np.isfinite(power)):
        raise EngineError(
            "beat: channel-1 power is not finite within the simulated span "
            "(|mismatch| < 2*Gamma_eff: the undamped states grow exponentially)"
        )

    logp = np.log(power + 1e-300)
    coeff = np.polyfit(ts, logp, 1)
    detrended = logp - np.polyval(coeff, ts)

    f_lo = 2.0 / duration
    f_hi = 0.5 * params.omega_b
    f_step = 0.25 / duration
    f_grid = np.arange(f_lo, f_hi, f_step)
    f_star, amp, mags = refine_scan(detrended, dt, f_grid, t0=ts[0])
    med = float(np.median(mags))
    confidence = float(abs(amp) / med) if med > 0 else 0.0
    found = confidence >= BEAT_CONFIDENCE and abs(amp) >= BEAT_AMPLITUDE_FLOOR
    return BeatMeasurement(
        frequency=f_star if found else 0.0,
        amplitude=float(abs(amp)),
        confidence=confidence,
        found=found,
    )
