import numpy as np
import pytest

from floqept.numerics.spectral import refine_scan, spectral_amplitude


def make_tone(freq, dt, duration, phase=0.0):
    t = np.arange(0.0, duration, dt)
    return np.cos(2 * np.pi * freq * t + phase), t


def test_pure_tone_recovery():
    y, _ = make_tone(50.0, 1e-3, 10.0)
    amp = spectral_amplitude(y, 1e-3, 50.0)
    assert abs(amp) == pytest.approx(0.5, abs=1e-3)


def test_leakage_bound():
    y, _ = make_tone(50.0, 1e-3, 10.0)
    assert abs(spectral_amplitude(y, 1e-3, 60.0)) <= 0.01


def test_two_tone_linearity():
    dt, dur = 1e-3, 10.0
    t = np.arange(0.0, dur, dt)
    y = np.cos(2 * np.pi * 50 * t) + 0.25 * np.cos(2 * np.pi * 100 * t)
    assert abs(spectral_amplitude(y, dt, 50.0)) == pytest.approx(0.5, abs=1e-3)
    assert abs(spectral_amplitude(y, dt, 100.0)) == pytest.approx(0.125, abs=1e-3)


def test_above_nyquist_rejected():
    y, _ = make_tone(50.0, 1e-3, 1.0)
    with pytest.raises(ValueError):
        spectral_amplitude(y, 1e-3, 500.0)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        spectral_amplitude(np.array([1.0]), 1e-3, 10.0)


def test_refine_scan_localizes_off_grid_tone():
    dt, dur = 1e-3, 4.0
    f_true = 73.37
    t = np.arange(0.0, dur, dt)
    y = np.cos(2 * np.pi * f_true * t)
    f_grid = np.arange(50.0, 100.0, 0.25 / dur)
    f_star, amp, mags = refine_scan(y, dt, f_grid)
    assert f_star == pytest.approx(f_true, abs=0.1)
    assert abs(amp) == pytest.approx(0.5, abs=5e-3)
    assert mags.size == f_grid.size


def dense_scan_magnitudes(y, dt, f_grid, t0=0.0):
    """The per-frequency DFT that the chirp z-transform scan replaces."""
    t = t0 + dt * np.arange(y.size)
    mags = np.empty(f_grid.size)
    chunk = max(1, int(4_000_000 // max(1, y.size)))
    for lo in range(0, f_grid.size, chunk):
        hi = min(f_grid.size, lo + chunk)
        basis = np.exp(2j * np.pi * np.outer(f_grid[lo:hi], t))
        mags[lo:hi] = np.abs(basis @ y) / y.size
    return mags


def off_grid_tone():
    dt, dur = 1e-3, 4.0
    t = np.arange(0.0, dur, dt)
    return np.cos(2 * np.pi * 73.37 * t), dt, np.arange(50.0, 100.0, 0.25 / dur), 0.0


def noisy_beat_series():
    # the beat's sampling: 3 samples per drive period of 3 kHz over 0.4 s
    rng = np.random.default_rng(7)
    dt = 1.0 / 9000.0
    t = 0.0123 + dt * np.arange(3600)
    y = 0.05 * np.cos(2 * np.pi * 49.8 * t) + 0.01 * rng.standard_normal(t.size)
    return y, dt, np.arange(5.0, 1500.0, 0.25 / 0.4), 0.0123


@pytest.mark.parametrize("case", [off_grid_tone, noisy_beat_series])
def test_refine_scan_matches_dense_dft(case):
    y, dt, f_grid, t0 = case()
    _, _, mags = refine_scan(y, dt, f_grid, t0=t0)
    want = dense_scan_magnitudes(y, dt, f_grid, t0=t0)
    # round-off of either sum is relative to the largest term, not to each bin
    np.testing.assert_allclose(mags, want, rtol=0.0, atol=1e-12 * want.max())
    assert np.argmax(mags) == np.argmax(want)


def test_refine_scan_rejects_non_uniform_grid():
    y, dt, f_grid, _ = off_grid_tone()
    bent = f_grid.copy()
    bent[10] += 0.3 * (f_grid[1] - f_grid[0])
    with pytest.raises(ValueError, match="uniform"):
        refine_scan(y, dt, bent)
