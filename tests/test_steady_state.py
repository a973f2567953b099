import math

import numpy as np
import pytest

from floqept import ModelParams, SimConfig, SingularSteadyStateError
from floqept.engine import (
    TWO_PI,
    LabFrameModel,
    _comb,
    branch_root,
    coupling_rate,
    effective_coupling,
    steady_state_grid,
    steady_state_response,
)
from floqept.numerics.bessel import bessel_j


def test_single_damped_mode():
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=0.0, omega_b=3000.0)
    cfg = SimConfig(truncation_m=3)
    sol = steady_state_response(p, cfg, (1, 0.0, 1.0))
    assert sol.amps[0, 3] == pytest.approx(1.0 / 50j, abs=1e-14)
    others = np.delete(sol.amps.ravel(), 3)
    assert np.max(np.abs(others)) <= 1e-14


def test_probe_amplitude_linearity(coupled_point, base_cfg):
    a = steady_state_response(coupled_point, base_cfg, (1, -3025.0, 1.0))
    b = steady_state_response(coupled_point, base_cfg, (1, -3025.0, 2.0))
    assert np.allclose(b.amps, 2.0 * a.amps, rtol=1e-12, atol=0.0)


def test_back_substitution_residual(coupled_point):
    # reconstructed steady state must satisfy the lab-frame ODE
    p = coupled_point.but(delta_b=1500.0)
    cfg = SimConfig(truncation_m=12)
    delta, amp = -3020.0, 1.0
    sol = steady_state_response(p, cfg, (1, delta, amp))
    model = LabFrameModel(p)
    worst = 0.0
    for t in np.linspace(0.0, 2.0 / p.omega_b, 31):
        freqs = delta + sol.m_indices * p.omega_b
        phases = np.exp(-2j * np.pi * freqs * t)
        s = sol.amps @ phases
        dsdt = sol.amps @ (-2j * np.pi * freqs * phases)
        drive = np.array([amp * np.exp(-2j * np.pi * delta * t), 0.0])
        resid = dsdt + 1j * TWO_PI * (model.matrix(t) @ s + drive)
        worst = max(worst, float(np.max(np.abs(resid))) / (TWO_PI * amp))
    assert worst <= 1e-8


def test_solver_residual_reported_small(coupled_point, base_cfg):
    sol = steady_state_response(coupled_point, base_cfg, (2, -3000.0, 1.0))
    assert sol.residual <= 1e-10


def test_singular_system_raises():
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=0.0, delta_b=0.0, omega_b=3000.0)
    cfg = SimConfig(truncation_m=3)  # the least the dense solve accepts: ceil(0) + 3
    with pytest.raises(SingularSteadyStateError):
        steady_state_response(p, cfg, (1, 0.0, 1.0))


def _grid_point(coupled_point, case):
    """``n<order>_<sign of delta0>``: band order 1, 2 or 3, 50 Hz off its
    sideband; or "ep": gamma_c = 111 puts the rounded mismatch exactly on
    2*Gamma_eff."""
    if case == "ep":
        geff = effective_coupling(111.0, 4300.0, 3000.0, 1, 0)
        p = coupled_point.but(delta0=-(3000.0 + 2.0 * geff), gamma_c=111.0, gamma12=20.0)
        assert branch_root(p.delta0 - p.n_signed * p.omega_b, geff) == 0.0
        return p
    n, sign = int(case[1]), (1.0 if case.endswith("pos") else -1.0)
    return coupled_point.but(delta0=sign * (n * 3000.0 + 50.0), n1=n)


@pytest.mark.parametrize("channels", [1, 2, (1, 2)], ids=["ch1", "ch2", "both"])
@pytest.mark.parametrize(
    "case", ["n1_neg", "n1_pos", "n2_neg", "n2_pos", "n3_neg", "n3_pos", "ep"]
)
def test_grid_matches_single_solves(coupled_point, base_cfg, case, channels):
    # the grid is the untruncated limit: compare with a converged dense LU
    p = _grid_point(coupled_point, case)
    sideband = p.n_signed * p.omega_b
    deltas = np.array([p.delta0 - 50.0, p.delta0, p.delta0 + 50.0, 0.0, sideband,
                       sideband + 25.0])
    powers = steady_state_grid(p, base_cfg, channels, deltas)
    if np.ndim(channels) == 0:
        assert powers.shape == (2, deltas.size)
        powers = powers[None]
    assert powers.shape == (np.size(channels), 2, deltas.size)
    converged = SimConfig(truncation_m=16)
    for i, channel in enumerate(np.atleast_1d(channels)):
        for g, delta in enumerate(deltas):
            sol = steady_state_response(p, converged, (int(channel), float(delta), 1.0))
            assert powers[i, 0, g] == pytest.approx(sol.channel_power(1), rel=1e-10)
            assert powers[i, 1, g] == pytest.approx(sol.channel_power(2), rel=1e-10)


def _dense_case(coupled_point, case):
    """``(params, deltas, converged truncation)``.  "x20", "x50": a strong drive, up
    to the largest accepted index.  "narrow": gamma12 = 0.5 Hz, probed 0.01 Hz from
    the bare channel-1 line and from both coupled lines of block 0 (``a*b =
    -Gamma_eff^2``), where ``|det|`` nearly vanishes."""
    deltas = np.array([-3100.0, -3050.0, -3025.0, -3000.0, 0.0, 1234.5])
    if case.startswith("x"):
        x = float(case[1:])
        return coupled_point.but(delta_b=x * coupled_point.omega_b), deltas, int(x) + 30
    p = coupled_point.but(delta0=-3200.0, gamma12=0.5)
    c1, c2 = p.delta0, p.n_signed * p.omega_b
    root = math.sqrt(0.25 * (c1 - c2) ** 2 - coupling_rate(p) ** 2)
    lines = np.array([c1, 0.5 * (c1 + c2) - root, 0.5 * (c1 + c2) + root])
    return p, np.concatenate([lines - 0.01, lines + 0.01]), 16


@pytest.mark.parametrize("channel", [1, 2])
@pytest.mark.parametrize("case", ["x20", "x50", "narrow"])
def test_grid_matches_dense_solve_at_strong_drive_and_narrow_lines(coupled_point, case, channel):
    p, deltas, truncation = _dense_case(coupled_point, case)
    powers = steady_state_grid(p, SimConfig(), channel, deltas)
    converged = SimConfig(truncation_m=truncation)
    for g, delta in enumerate(deltas):
        sol = steady_state_response(p, converged, (channel, float(delta), 1.0))
        assert powers[:, g] == pytest.approx([sol.channel_power(1), sol.channel_power(2)],
                                             rel=1e-10)


@pytest.mark.parametrize("ns", [0, 3, -3])
@pytest.mark.parametrize("x", [0.0, 1e-4, 0.3, 1.433, 12.0, 12.5, 20.0, 49.9])
def test_comb_weights_keep_the_sum_rule(x, ns):
    # the cut drops less than 1e-18 of J_0^2 + 2*sum J_k^2 = 1 from either channel; the
    # rest of the bound is the ladder's rounding
    p = ModelParams(delta0=math.copysign(3050.0, ns), delta_b=x * 3000.0, omega_b=3000.0,
                    n1=abs(ns))
    ks, weights = _comb(p)
    assert p.n_signed == ns and weights.shape == (2, ks.size)
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-15


def test_comb_cut_at_readme_drive(coupled_point):
    # x = 4300/3000: orders end at k = 12, where J_12^2 = 1.4e-21, so |k| <= 13 for n = 1
    ks, _ = _comb(coupled_point)
    assert ks.size == 27


def test_grid_raises_where_the_dense_solve_does():
    # gamma12 = gamma_c = 0 with the probe on the channel-1 resonance: block
    # k = 0 has det == 0 exactly, and the dense LU rejects the point too
    p = ModelParams(delta0=-3050.0, gamma_c=0.0, gamma12=0.0, delta_b=4300.0,
                    omega_b=3000.0, n1=1)
    cfg = SimConfig(truncation_m=5)
    with pytest.raises(SingularSteadyStateError):
        steady_state_response(p, cfg, (1, -3050.0, 1.0))
    with pytest.raises(SingularSteadyStateError, match="delta = -3050 Hz: singular 2x2 block"):
        steady_state_grid(p, cfg, 1, np.array([-3100.0, -3050.0, -3000.0]))
    assert np.all(np.isfinite(steady_state_grid(p, cfg, 1, np.array([-3100.0, -3025.0]))))


def test_sideband_weights_follow_bessel_squares():
    # single modulated mode probed at its p-th pumping pathway: the physical
    # sideband content of the response carries J_m^2 weights
    x = 1.2
    omega_b = 3000.0
    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=40.0, delta_b=x * omega_b,
                    omega_b=omega_b)
    cfg = SimConfig(truncation_m=8)
    sol = steady_state_response(p, cfg, (1, 0.0, 1.0))
    total = sol.channel_power(1)
    for m in (0, 1, 2, 3):
        frac_hi = sol.sideband_power(1, m) / total
        frac_lo = sol.sideband_power(1, -m) / total
        want = bessel_j(m, x) ** 2
        assert frac_hi == pytest.approx(want, rel=2e-3, abs=1e-6)
        assert frac_lo == pytest.approx(want, rel=2e-3, abs=1e-6)


def test_truncation_convergence_ladder(coupled_point):
    # the validated minimum (ceil(x)+3) of the dense solve is accurate to
    # ~1e-3 relative; three further orders reach solver precision
    deltas = (-3100.0, -3050.0, -3025.0, -3000.0)

    def powers(m):
        cfg = SimConfig(truncation_m=m)
        return np.array([steady_state_response(coupled_point, cfg, (1, d, 1.0)).channel_power(1)
                         for d in deltas])

    p_min, p_mid, p_big = powers(5), powers(8), powers(14)
    assert np.max(np.abs(p_min - p_big) / p_big) <= 1e-3
    assert np.max(np.abs(p_mid - p_big) / p_big) <= 1e-8


def test_random_parameter_sweep_properties(rng):
    # any validated parameter set solves cleanly: small residual, nonnegative
    # powers, exact probe linearity
    from floqept import validate

    for _ in range(40):
        omega_b = rng.uniform(800.0, 5000.0)
        p = ModelParams(
            delta0=rng.uniform(-6000.0, 6000.0),
            gamma_c=rng.uniform(0.0, 200.0),
            gamma12=rng.uniform(5.0, 120.0),
            delta_b=rng.uniform(0.0, 2.5) * omega_b,
            omega_b=omega_b,
            n1=int(rng.integers(0, 3)),
            n2=int(rng.integers(0, 2)),
            stark_shift=rng.uniform(-100.0, 100.0),
        )
        cfg = SimConfig(truncation_m=6)
        assert validate(p, cfg).ok
        delta = rng.uniform(-6000.0, 1000.0)
        sol = steady_state_response(p, cfg, (1, delta, 1.0))
        assert sol.residual <= 1e-10
        assert sol.channel_power(1) >= 0.0 and sol.channel_power(2) >= 0.0
        doubled = steady_state_response(p, cfg, (1, delta, 2.0))
        assert np.allclose(doubled.amps, 2.0 * sol.amps, rtol=1e-12, atol=0.0)


def test_cross_channel_transfer_scales_with_band_weights(coupled_point):
    # weak-coupling transfer at the coupled band pair: the channel-2 response
    # at its sideband resonance scales like gamma_eff^2
    from floqept import effective_coupling

    cfg = SimConfig(truncation_m=5)
    p_weak = coupled_point.but(gamma_c=1.0)
    sol = steady_state_response(p_weak, cfg, (1, -3050.0, 1.0))
    p2 = sol.channel_power(2)
    p_weak2 = coupled_point.but(gamma_c=2.0)
    sol2 = steady_state_response(p_weak2, cfg, (1, -3050.0, 1.0))
    assert sol2.channel_power(2) / p2 == pytest.approx(4.0, rel=1e-3)
