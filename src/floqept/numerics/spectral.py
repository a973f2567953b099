"""Spectral projection of uniform time series (discrete Fourier evaluation).

Used for beat-note extraction.  ``spectral_amplitude`` projects onto one
frequency; ``refine_scan`` scans a uniform frequency grid with the
Bluestein chirp z-transform (Rabiner, Schafer & Rader 1969), which
evaluates the same sums as the per-frequency projection in
O((N + K) log(N + K)) for N samples and K frequencies, on an arbitrary
grid start and step (no power-of-two or bin-alignment constraint).
"""

from __future__ import annotations

import numpy as np

__all__ = ["spectral_amplitude", "parabolic_shift", "refine_scan"]


def spectral_amplitude(samples, dt: float, f: float, t0: float = 0.0) -> complex:
    """Projection of a uniform time series onto ``exp(-i 2 pi f t)``.

    Returns ``(1/N) * sum_k y_k exp(+i 2 pi f t_k)`` so a real tone
    ``cos(2 pi f t)`` projects to magnitude 1/2 at its own frequency.

    Raises
    ------
    ValueError
        If fewer than two samples are given or ``|f|`` is at/above the
        Nyquist frequency of the sampling.
    """
    y = np.asarray(samples)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need at least two samples")
    if dt <= 0:
        raise ValueError("dt must be positive")
    nyquist = 0.5 / dt
    if abs(f) >= nyquist:
        raise ValueError(f"frequency {f} Hz is at or above Nyquist {nyquist} Hz")
    t = t0 + dt * np.arange(y.size)
    return complex(np.mean(y * np.exp(2j * np.pi * f * t)))


def parabolic_shift(ym, y0, yp) -> float:
    """Vertex offset, in sample spacings from ``y0``, of the parabola through
    three equally spaced samples; clipped to ``[-1/2, 1/2]``, 0 if collinear."""
    denom = ym - 2 * y0 + yp
    shift = 0.5 * (ym - yp) / denom if denom != 0 else 0.0
    return float(np.clip(shift, -0.5, 0.5))


def _chirp_z_magnitudes(y: np.ndarray, dt: float, f0: float, df: float, count: int) -> np.ndarray:
    """``|sum_j y_j exp(i 2 pi (f0 + k df) j dt)|`` for ``k < count`` (Bluestein).

    With ``jk = (j^2 + k^2 - (k - j)^2) / 2`` the sum is, up to a unit-modulus
    factor per k, the linear convolution of ``y_j exp(i 2 pi f0 j dt)
    exp(i pi r j^2)`` with the chirp ``exp(-i pi r n^2)``, ``r = df*dt``,
    which one zero-padded FFT product evaluates.
    """
    n = y.size
    r = df * dt
    size = 1 << (n + count - 2).bit_length()  # >= n + count - 1
    j = np.arange(n)
    a = np.zeros(size, dtype=complex)
    a[:n] = y * np.exp(1j * np.pi * (2.0 * f0 * dt * j + r * (j * j)))
    lags = np.arange(-(n - 1), count)
    b = np.zeros(size, dtype=complex)
    b[lags] = np.exp(-1j * np.pi * r * (lags * lags))  # negative lags wrap to the end
    return np.abs(np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:count])


def refine_scan(samples, dt: float, f_grid, t0: float = 0.0):
    """Scan ``|spectral_amplitude|`` over a frequency grid and refine the peak.

    The magnitudes over the uniform grid come from one chirp z-transform.
    A local three-point parabolic interpolation over the scan maximum gives
    the refined frequency; the amplitude is re-evaluated there.

    Returns
    -------
    (f_star, amplitude, magnitudes) : (float, complex, ndarray)

    Raises
    ------
    ValueError
        If fewer than three frequencies are given or the grid is not uniform.
    """
    y = np.asarray(samples)
    fs = np.asarray(f_grid, dtype=float)
    if fs.size < 3:
        raise ValueError("need at least three candidate frequencies")
    df = (fs[-1] - fs[0]) / (fs.size - 1)
    if not np.allclose(np.diff(fs), df, rtol=1e-6, atol=0.0):
        raise ValueError("f_grid must be uniformly spaced")
    mags = _chirp_z_magnitudes(y, dt, fs[0], df, fs.size) / y.size
    i = int(np.argmax(mags))
    shift = parabolic_shift(*mags[i - 1:i + 2]) if 0 < i < fs.size - 1 else 0.0
    f_star = fs[i] + shift * (fs[1] - fs[0])
    amp = spectral_amplitude(y, dt, f_star, t0=t0)
    return float(f_star), amp, mags
