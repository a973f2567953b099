"""Error paths and secondary surfaces: solver-error annotation, sideband
labels, degenerate-fit diagnostics, strong-decay quasi-energies, transfer
scaling across the drive frequency."""

import numpy as np
import pytest

from floqept import (
    GridSpec,
    ModelParams,
    SimConfig,
    SingularSteadyStateError,
    detect_peaks,
    effective_coupling,
    fit_sideband_heights,
    gamma_curve,
    monodromy_quasienergies,
    separation_curve,
    synthesize_spectrum,
)
from floqept.engine import steady_state_response


def test_grid_error_names_offending_point():
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=0.0, delta_b=0.0, omega_b=3000.0)
    cfg = SimConfig(truncation_m=2)
    grid = np.array([-10.0, 0.0, 10.0])
    with pytest.raises(SingularSteadyStateError, match="delta = 0"):
        synthesize_spectrum(p, cfg, probed_channels=(1,), grid=grid)


def test_two_channel_grid_error_names_offending_point():
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=0.0, delta_b=0.0, omega_b=3000.0)
    cfg = SimConfig(truncation_m=2)
    grid = np.array([-10.0, 0.0, 10.0])
    with pytest.raises(SingularSteadyStateError, match="delta = 0"):
        synthesize_spectrum(p, cfg, probed_channels=(1, 2), grid=grid)


def test_sideband_labels_from_trace_params():
    p = ModelParams(delta0=0.0, gamma_c=5.0, gamma12=50.0, delta_b=3000.0,
                    omega_b=3100.0, n1=0, n2=0)
    cfg = SimConfig(truncation_m=7, grid=GridSpec(-6500.0, 6500.0, 4.0))
    trace = synthesize_spectrum(p, cfg, probed_channels=(1,))
    found = detect_peaks(trace, prominence=1e-4 * trace.powers[2].max(), channel=2)
    labels = sorted(q.sideband for q in found)
    for m in (-2, -1, 0, 1, 2):
        assert m in labels


def test_sideband_labels_absent_without_drive_frequency():
    x = np.linspace(-5.0, 5.0, 101)
    y = np.exp(-(x**2))
    found = detect_peaks((x, y), prominence=0.5)
    assert found[0].sideband is None


def test_degenerate_heights_diagnostic():
    data = [(1000.0, 0.5), (2000.0, 0.5), (4000.0, 0.5)]
    fit = fit_sideband_heights(data, 1)
    assert not fit.converged
    assert "degenerate" in fit.message


def test_gamma_curve_residuals_shape():
    p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                    omega_b=3000.0, n1=1, n2=0)
    cfg = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
    omegas = np.array([2500.0, 4000.0, 6000.0])
    curve = gamma_curve(p, omegas, cfg, route="closed-form")
    res = curve.residuals()
    assert res.shape == omegas.shape
    assert np.max(np.abs(res)) <= 0.05 * np.max(curve.gamma_eff)


def test_monodromy_strong_decay_exact():
    # exp(-2 pi gamma12 T) underflows over one period, but the decay is an exact factor
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=200.0, delta_b=0.0, omega_b=1.0)
    q = monodromy_quasienergies(p, SimConfig(rel_tol=1e-8, abs_tol=1e-310))
    assert [v.imag for v in q.values] == [-200.0, -200.0]


def test_transfer_tracks_band_weights_across_drive_frequency():
    # probing channel 1 at its resonance, the power landing in channel 2
    # scales as Gamma_eff(omega_b)^2 = |J0 J1|^2 gamma_c^2 across the drive
    p = ModelParams(delta0=-3050.0, gamma_c=2.0, gamma12=50.0, delta_b=4300.0,
                    omega_b=3000.0, n1=1, n2=0)
    cfg = SimConfig(truncation_m=6)
    ratios = []
    geffs = []
    for w in (2500.0, 3000.0, 4000.0, 6000.0, 8000.0):
        q = p.but(omega_b=w, delta0=-(w + 50.0))
        sol = steady_state_response(q, cfg, (1, q.delta0, 1.0))
        ratios.append(sol.channel_power(2) / sol.channel_power(1))
        geffs.append(effective_coupling(q.gamma_c, q.delta_b, w, 1, 0))
    ratios = np.asarray(ratios)
    geffs = np.asarray(geffs)
    norm = ratios / geffs**2
    assert np.max(norm) / np.min(norm) - 1.0 <= 0.05


def test_separation_curve_stark_invariance():
    base = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                       omega_b=3000.0, n1=1, n2=0)
    cfg = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
    plain = separation_curve(base, [3080.0], cfg)[0]
    shifted = separation_curve(base.but(stark_shift=100.0), [3080.0], cfg)[0]
    assert plain.merged == shifted.merged
    assert plain.separation == pytest.approx(shifted.separation, abs=0.5)
