import numpy as np
import pytest

from floqept import (
    GridSpec,
    ModelParams,
    SimConfig,
    beat_frequency,
    detect_peaks,
    separation_curve,
    synthesize_spectrum,
)
from floqept.numerics.bessel import bessel_j


def lorentzian(x, c, w, h=1.0):
    return h * (w / 2) ** 2 / ((x - c) ** 2 + (w / 2) ** 2)


class TestDetectPeaks:
    def test_triangle_apex(self):
        # symmetric triangle: the three points around the apex are symmetric,
        # so the parabolic refinement returns the apex exactly
        x = np.linspace(-5.0, 5.0, 101)
        y = np.maximum(0.0, 1.0 - np.abs(x - 0.4))
        found = detect_peaks((x, y), prominence=0.5)
        assert len(found) == 1
        step = x[1] - x[0]
        assert abs(found[0].center - 0.4) <= step * 1e-2

    def test_two_lorentzians_well_separated(self):
        w = 1.0
        x = np.linspace(-20.0, 20.0, 4001)
        y = lorentzian(x, -5.0, w) + lorentzian(x, 5.0, w)
        found = detect_peaks((x, y), prominence=0.3)
        assert len(found) == 2
        assert found[0].center == pytest.approx(-5.0, abs=0.01 * w)
        assert found[1].center == pytest.approx(5.0, abs=0.01 * w)
        assert found[0].fwhm == pytest.approx(w, rel=0.05)

    def test_scaling_invariance(self):
        x = np.linspace(-10.0, 10.0, 2001)
        y = lorentzian(x, 1.0, 2.0) + lorentzian(x, -4.0, 1.0, h=0.7)
        a = detect_peaks((x, y), prominence=0.1)
        b = detect_peaks((x, 1000.0 * y), prominence=100.0)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.center == pytest.approx(pb.center, abs=1e-12)
            assert pa.fwhm == pytest.approx(pb.fwhm, abs=1e-9)
            assert pb.height == pytest.approx(1000.0 * pa.height, rel=1e-12)

    def test_prominence_filters_ripple(self):
        x = np.linspace(0.0, 10.0, 1001)
        y = lorentzian(x, 5.0, 1.0) + 0.01 * np.sin(40.0 * x)
        found = detect_peaks((x, y), prominence=0.1)
        assert len(found) == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            detect_peaks((np.array([]), np.array([])), prominence=1.0)


class TestSpectrum:
    def test_static_single_resonance(self):
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=0.0, omega_b=3000.0)
        cfg = SimConfig(truncation_m=3, grid=GridSpec(-400.0, 400.0, 2.0))
        trace = synthesize_spectrum(p, cfg, probed_channels=(1,))
        found = detect_peaks(trace, prominence=0.1 * trace.powers[1].max(), channel=1)
        assert len(found) == 1
        assert found[0].center == pytest.approx(0.0, abs=0.5)
        assert found[0].fwhm == pytest.approx(2 * 50.0, rel=0.05)

    def test_driven_sideband_positions_and_order(self):
        # single-probe configuration: carrier and first/second-order sideband peaks
        # read out in the unprobed channel, heights ordered by J_m^2 weights
        omega_b = 3100.0
        x = 3000.0 / omega_b
        p = ModelParams(delta0=0.0, gamma_c=5.0, gamma12=50.0, delta_b=3000.0,
                        omega_b=omega_b, n1=0, n2=0)
        cfg = SimConfig(truncation_m=7, grid=GridSpec(-6500.0, 6500.0, 4.0))
        trace = synthesize_spectrum(p, cfg, probed_channels=(1,))
        found = detect_peaks(trace, prominence=1e-4 * trace.powers[2].max(), channel=2)
        centers = np.array([q.center for q in found])
        for m in (-2, -1, 0, 1, 2):
            assert np.min(np.abs(centers - m * omega_b)) < 10.0
        # within-trace height ordering per J_m^2
        weights = [bessel_j(abs(m), x) ** 2 for m in (0, 1, 2)]
        heights = []
        for m in (0, 1, 2):
            idx = np.argmin(np.abs(centers - m * omega_b))
            heights.append(found[int(idx)].height)
        assert (np.argsort(weights)[::-1] == np.argsort(heights)[::-1]).all()

    def test_stark_shift_moves_all_peaks(self):
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=0.0,
                        omega_b=3000.0, stark_shift=100.0)
        cfg = SimConfig(truncation_m=3, grid=GridSpec(-400.0, 400.0, 2.0))
        trace = synthesize_spectrum(p, cfg, probed_channels=(1,))
        found = detect_peaks(trace, prominence=0.1 * trace.powers[1].max(), channel=1)
        assert found[0].center == pytest.approx(100.0, abs=0.5)

    def test_power_conservation_across_drive(self):
        # for gamma_c = 0 the summed peak heights over all sideband orders are
        # independent of the drive ratio (Bessel sum rule on the observable)
        from floqept.engine import steady_state_grid

        totals = []
        omega_b = 3000.0
        for x in (0.5, 1.0, 2.0, 3.0):
            p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0,
                            delta_b=x * omega_b, omega_b=omega_b)
            cfg = SimConfig(truncation_m=9)
            # peak of sideband m sits at the m-th pumping pathway delta = m*w
            deltas = omega_b * np.arange(-8, 9, dtype=float)
            powers = steady_state_grid(p, cfg, 1, deltas)
            totals.append(float(np.sum(powers[0])))
        totals = np.array(totals)
        assert np.max(np.abs(totals / totals[0] - 1.0)) <= 0.02


class TestSeparationCurve:
    def test_uncoupled_separation_equals_mismatch(self, base_cfg):
        p = ModelParams(delta0=-3050.0, gamma_c=0.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        pts = separation_curve(p, [3050.0, 3100.0], base_cfg)
        assert pts[0].separation == pytest.approx(50.0, abs=2.0)
        assert pts[1].separation == pytest.approx(100.0, abs=2.0)

    def test_merged_inside_unbroken_region(self, coupled_point, base_cfg):
        p = coupled_point.but(gamma12=20.0)
        pts = separation_curve(p, [3010.0, 3040.0], base_cfg)
        assert all(q.merged and q.separation == 0.0 for q in pts)
        assert all(q.eigen_separation == 0.0 for q in pts)

    def test_monotone_and_asymptotic_above_bifurcation(self, coupled_point, base_cfg):
        p = coupled_point.but(gamma12=20.0)
        geff = 27.949285748601174
        grid = 3000.0 + np.arange(4.2 * geff, 10 * geff, 8.0)
        pts = separation_curve(p, grid, base_cfg)
        seps = np.array([q.separation for q in pts])
        assert np.all(np.diff(seps) >= -base_cfg.grid.step)
        for q in pts:
            mu = q.delta0_abs - 3000.0
            want = np.sqrt(mu**2 - 4 * geff**2)
            assert q.separation == pytest.approx(want, rel=0.05)


class TestBeat:
    def make_params(self, mu):
        return ModelParams(delta0=-(3000.0 + mu), gamma_c=93.0, gamma12=50.0,
                           delta_b=150.0, omega_b=3000.0, n1=1, n2=0)

    def test_mismatch_recovered(self):
        cfg = SimConfig(truncation_m=4, sim_duration=0.4, rel_tol=1e-6, abs_tol=1e-9)
        m = beat_frequency(self.make_params(100.0), cfg)
        assert m.found
        assert m.frequency == pytest.approx(100.0, abs=1.0 / cfg.sim_duration)

    def test_zero_mismatch_none_found(self):
        cfg = SimConfig(truncation_m=4, sim_duration=0.4, rel_tol=1e-6, abs_tol=1e-9)
        m = beat_frequency(self.make_params(0.0), cfg)
        assert not m.found

    def test_below_nyquist_guard(self):
        m = self.make_params(50.0)
        cfg = SimConfig(truncation_m=4, sim_duration=0.4, rel_tol=1e-6, abs_tol=1e-9)
        out = beat_frequency(m, cfg)
        assert 0.0 <= out.frequency < 1.5 * m.omega_b
