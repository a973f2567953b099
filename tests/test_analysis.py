import numpy as np
import pytest

from floqept import analysis
from floqept import (
    BracketError,
    GridSpec,
    ModelParams,
    SimConfig,
    coupling_rate,
    effective_coupling,
    fit_sideband_heights,
    harvest_sideband_heights,
    locate_ep,
    monodromy_quasienergies,
    phase_diagram,
    solve_modulation_depth,
)
from floqept.numerics.bessel import bessel_j


@pytest.fixture
def floquet_template():
    return ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                       omega_b=3000.0, n1=1, n2=0)


@pytest.fixture
def ep_cfg():
    return SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))


def _spectral_ep_cases():
    """The spectral-route EP configurations of acceptance criteria 2, 6, 8 and 9, plus
    growing-mode ones (``Gamma_eff > gamma12``) and one at a zero of ``J_0``."""
    fine = SimConfig(truncation_m=5, grid=GridSpec(-4000.0, 1000.0, 2.0))
    drive = dict(gamma_c=93.0, gamma12=20.0, delta_b=4300.0, n1=1)
    cases = {
        "c2": (ModelParams(delta0=-200.0, gamma_c=93.0, gamma12=50.0, omega_b=3000.0), 0,
               SimConfig(truncation_m=3, grid=GridSpec(-500.0, 500.0, 1.0)), (100.0, 400.0)),
        "c6": (ModelParams(delta0=-3050.0, omega_b=3000.0, **drive), 1, fine, None),
        "c6-g10": (ModelParams(delta0=-3050.0, omega_b=3000.0, **{**drive, "gamma12": 10.0}), 1,
                   fine, None),
        # J_0(x) = 0: the coupled block carries no channel-1 weight, so channel 2 is probed
        "j0-zero": (ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0,
                                delta_b=2.4048 * 3000.0, omega_b=3000.0, n1=2, n2=1), 1,
                    fine.but(truncation_m=6), None),
    }
    for w in np.arange(2500.0, 8001.0, 500.0):
        cases[f"c8-{w:g}"] = (ModelParams(delta0=-3000.0, omega_b=w, **drive), 1, fine, None)
    higher = (("c9-n2", 2, 1500.0, 43.0, 25.0), ("c9-n2-g10", 2, 1500.0, 43.0, 10.0),
              ("c9-n3", 3, 1000.0, 45.0, 40.0), ("c9-n3-g10", 3, 1000.0, 45.0, 10.0),
              ("c9-n3-g20", 3, 1000.0, 45.0, 20.0))
    for name, n, w, target, g12 in higher:
        db = solve_modulation_depth(300.0, w, n, 0, target)
        p = ModelParams(delta0=-(n * w + 50.0), gamma_c=300.0, gamma12=g12, delta_b=db,
                        omega_b=w, n1=n)
        cases[name] = (p, n, SimConfig(truncation_m=8, grid=GridSpec(-7000.0, 1000.0, 2.0)), None)
    return cases


SPECTRAL_EP_CASES = _spectral_ep_cases()


class TestLocateEp:
    def test_closed_form_with_prescribed_rate(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg, gamma_eff=27.9)
        assert r.delta0_star == pytest.approx(3055.8, abs=0.5)

    def test_degenerate_zero_coupling(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg, gamma_eff=0.0)
        assert r.delta0_star == pytest.approx(3000.0, abs=0.5)

    def test_monotone_correct_indicator(self, floquet_template, ep_cfg):
        # merged just below the exact root and split just above it
        star = locate_ep(floquet_template, 1, "closed-form", ep_cfg).delta0_star
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg, bracket=(star - 5.0, star + 5.0))
        assert r.delta0_star == star
        for bracket in ((star - 10.0, star - 5.0), (star + 5.0, star + 10.0)):
            with pytest.raises(BracketError):
                locate_ep(floquet_template, 1, "closed-form", ep_cfg, bracket=bracket)

    def test_route_consistency(self, floquet_template, ep_cfg):
        mu_stars = {}
        for route in ("closed-form", "monodromy", "spectral-pipeline"):
            mu_stars[route] = locate_ep(floquet_template, 1, route, ep_cfg).mismatch_star
        resolution = max(2.0, 2 * ep_cfg.grid.step, 0.2 * 2 * floquet_template.gamma12)
        assert abs(mu_stars["monodromy"] - mu_stars["closed-form"]) <= 1e-6
        assert abs(mu_stars["spectral-pipeline"] - mu_stars["closed-form"]) <= resolution

    def test_monodromy_route_higher_band_orders(self, ep_cfg):
        # the exact quasi-energy EP sits at 2*Gamma_eff for any band order
        for n, w, target in ((2, 1500.0, 43.0), (3, 1000.0, 45.0)):
            db = solve_modulation_depth(300.0, w, n, 0, target)
            p = ModelParams(delta0=-(n * w + 50.0), gamma_c=300.0, gamma12=25.0,
                            delta_b=db, omega_b=w, n1=n, n2=0)
            r = locate_ep(p, n, "monodromy", ep_cfg)
            assert r.mismatch_star == pytest.approx(2.0 * target, abs=1e-6)

    def test_bad_bracket_raises(self, floquet_template, ep_cfg):
        with pytest.raises(BracketError):
            locate_ep(floquet_template, 1, "closed-form", ep_cfg,
                      bracket=(3200.0, 3400.0))

    @pytest.mark.parametrize("route", analysis.ROUTES)
    def test_negative_band_order_raises(self, floquet_template, ep_cfg, route):
        # with n < 0 the default bracket lies at negative |delta0|, where no
        # |delta0| >= 0 can meet the threshold
        with pytest.raises(ValueError, match="band order"):
            locate_ep(floquet_template, -1, route, ep_cfg)
        with pytest.raises(ValueError, match="band order"):
            locate_ep(floquet_template.but(n1=0, n2=1), None, route, ep_cfg)

    @pytest.mark.parametrize("bracket", [(float("nan"), 3100.0), (3100.0, 3000.0),
                                         (3050.0, 3050.0)])
    def test_non_finite_or_reversed_bracket_raises(self, floquet_template, ep_cfg, bracket):
        with pytest.raises(ValueError, match="lo < hi"):
            locate_ep(floquet_template, 1, "closed-form", ep_cfg, bracket=bracket)

    def test_closed_form_is_the_exact_root(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg)
        star = floquet_template.omega_b + 2 * coupling_rate(floquet_template)
        assert r.delta0_star == star
        assert r.iterations == 0
        assert r.bracket == (star, star)

    def test_closed_form_lower_crossing(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg, bracket=(2900.0, 3000.0))
        rate = coupling_rate(floquet_template)
        assert r.delta0_star == floquet_template.omega_b - 2 * rate
        assert r.iterations == 0
        # the rate is |mu*|/2 at the lower crossing too
        assert r.gamma_eff == pytest.approx(rate, rel=1e-12)
        assert r.mismatch_star == pytest.approx(2.0 * rate, rel=1e-12)

    @pytest.mark.parametrize("rate", [30.0, -30.0])
    def test_closed_form_prescribed_rate_sign_ignored(self, floquet_template, ep_cfg, rate):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg, gamma_eff=rate)
        assert r.delta0_star == floquet_template.omega_b + 60.0
        assert r.gamma_eff == 30.0

    @pytest.mark.parametrize("route,case", [
        *(pytest.param("spectral-pipeline", c, id=c) for c in SPECTRAL_EP_CASES),
        *(pytest.param("monodromy", c, id=f"monodromy-{c}") for c in SPECTRAL_EP_CASES),
    ])
    def test_spectral_route_within_1hz(self, route, case):
        # the transfer poles give Gamma with no linewidth bias: within 0.05 Hz, also
        # where Gamma_eff > gamma12 and where the coupled block has no channel-1 weight;
        # the monodromy quasi-energies give it exactly, up to the integration error
        p, n, cfg, bracket = SPECTRAL_EP_CASES[case]
        r = locate_ep(p, n, route, cfg, bracket=bracket)
        bound = {"spectral-pipeline": 0.05, "monodromy": 1e-6}[route]
        assert abs(r.mismatch_star - 2.0 * coupling_rate(p)) <= bound
        assert r.iterations == 0 and r.bracket == (r.delta0_star, r.delta0_star)

    @pytest.mark.parametrize("gamma_c", [800.0, 1500.0, 2500.0])
    def test_monodromy_route_strong_coupling(self, floquet_template, ep_cfg, gamma_c):
        # 2*Gamma_eff = 481, 902 and 1503 Hz against omega_b = 3000 Hz: the read-out
        # points stay inside |mu| < omega_b/2, where the folded gap cannot alias
        p = floquet_template.but(gamma_c=gamma_c)
        r = locate_ep(p, 1, "monodromy", ep_cfg)
        assert abs(r.mismatch_star - 2.0 * coupling_rate(p)) <= 1e-6

    def test_monodromy_route_one_integration(self, floquet_template, ep_cfg, monkeypatch):
        integrations = []

        def counted(*args):
            integrations.append(args)
            return monodromy_quasienergies(*args)

        monkeypatch.setattr(analysis, "monodromy_quasienergies", counted)
        locate_ep(floquet_template, 1, "monodromy", ep_cfg)
        assert len(integrations) == 1
        assert len(integrations[0][2]) == 6

    def test_spectral_route_one_bessel_ladder(self, floquet_template, ep_cfg, monkeypatch):
        # the six reads share one ladder J_0 .. J_top: the top order is evaluated once,
        # and the only other calls are the coupling rate's J_n1 and J_n2
        orders = []

        def counted(m, x):
            orders.append(m)
            return bessel_j(m, x)

        monkeypatch.setattr("floqept.engine.bessel_j", counted)
        locate_ep(floquet_template, 1, "spectral-pipeline", ep_cfg)
        assert orders.count(max(orders)) == 1
        assert len(orders) == max(orders) + 1 + 2

    def test_monodromy_route_lower_crossing(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "monodromy", ep_cfg, bracket=(2900.0, 3000.0))
        rate = coupling_rate(floquet_template)
        assert r.delta0_star == pytest.approx(floquet_template.omega_b - 2.0 * rate, abs=1e-6)
        assert r.gamma_eff == pytest.approx(rate, abs=1e-6)

    def test_monodromy_route_zero_coupling(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template.but(gamma_c=0.0), 1, "monodromy", ep_cfg)
        assert r.mismatch_star <= 1e-5

    def test_spectral_route_zero_coupling(self, floquet_template, ep_cfg):
        # with gamma_c = 0 the transfer is identically zero and the rate reads 0
        r = locate_ep(floquet_template.but(gamma_c=0.0), 1, "spectral-pipeline", ep_cfg)
        assert r.mismatch_star <= 0.5

    def test_spectral_route_weak_coupling_peaks_pulled_apart(self, ep_cfg):
        # Gamma_eff = 0.116 Hz, far below gamma12: the resolved peaks sit 0.5 Hz
        # further apart than |mu|, but the transfer poles sit at the eigenvalues
        p = ModelParams(delta0=-6050.0, gamma_c=93.0, gamma12=20.0, delta_b=300.0,
                        omega_b=3000.0, n1=2)
        r = locate_ep(p, 2, "spectral-pipeline", ep_cfg)
        assert r.mismatch_star <= 0.5

    def test_spectral_route_lower_crossing(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "spectral-pipeline", ep_cfg, bracket=(2900.0, 3000.0))
        rate = coupling_rate(floquet_template)
        assert r.delta0_star < floquet_template.omega_b
        assert abs(r.mismatch_star - 2.0 * rate) <= 0.05
        assert r.gamma_eff == pytest.approx(0.5 * r.mismatch_star, rel=1e-9)

    @pytest.mark.parametrize("route", ["monodromy", "spectral-pipeline"])
    def test_prescribed_rate_rejected_off_closed_form(self, floquet_template, ep_cfg, route):
        with pytest.raises(ValueError, match="closed-form route only"):
            locate_ep(floquet_template, 1, route, ep_cfg, gamma_eff=30.0)

    def test_bracket_contains_threshold(self, floquet_template, ep_cfg):
        r = locate_ep(floquet_template, 1, "closed-form", ep_cfg)
        assert r.bracket[0] <= r.delta0_star <= r.bracket[1]


class TestGammaCurve:
    def test_rejects_zero_drive(self, ep_cfg):
        from floqept import gamma_curve

        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=0.0,
                        omega_b=3000.0, n1=1, n2=0)
        curve = gamma_curve(p, [2500.0, 3000.0, 3500.0], ep_cfg, route="closed-form")
        assert not curve.ok
        assert "zero" in curve.message

    def test_small_closure_closed_form_route(self, ep_cfg):
        from floqept import gamma_curve

        p = ModelParams(delta0=-3050.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=1, n2=0)
        omegas = np.arange(2500.0, 8001.0, 1000.0)
        curve = gamma_curve(p, omegas, ep_cfg, route="closed-form")
        assert curve.ok
        assert curve.gamma_c_fit == pytest.approx(93.0, rel=0.02)
        assert curve.delta_b_fit == pytest.approx(4300.0, rel=0.02)

    @pytest.mark.parametrize("pair", [(2, 0), (2, 1), (3, 0)])
    def test_declared_pair_closure(self, ep_cfg, pair):
        # criterion 8's 5 % closure, with the family of the declared band pair
        from floqept import gamma_curve

        p = ModelParams(delta0=-3000.0, gamma_c=93.0, gamma12=20.0, delta_b=4300.0,
                        omega_b=3000.0, n1=pair[0], n2=pair[1])
        curve = gamma_curve(p, np.arange(2500.0, 8001.0, 500.0), ep_cfg)
        truth = [effective_coupling(93.0, 4300.0, w, *pair) for w in curve.omega_b]
        assert curve.gamma_eff == pytest.approx(truth, rel=0.05)
        assert curve.ok
        assert curve.gamma_c_fit == pytest.approx(93.0, rel=0.05)
        assert curve.delta_b_fit == pytest.approx(4300.0, rel=0.05)
        assert curve.fitted() == pytest.approx(truth, rel=0.05)


class TestSidebandHeights:
    def test_forward_model_roundtrip(self):
        omegas = np.linspace(1000.0, 8000.0, 15)
        truth = (1.0, 3000.0)
        data = [(w, truth[0] * bessel_j(1, truth[1] / w) ** 2) for w in omegas]
        fit = fit_sideband_heights(data, 1)
        assert fit.converged
        assert fit.parameters[0] == pytest.approx(1.0, rel=1e-6)
        assert abs(fit.parameters[1]) == pytest.approx(3000.0, rel=1e-6)

    def test_forward_model_roundtrip_m4(self):
        # the start point is the first maximum of J_4^2, at x = 5.3175
        k = 6000.0
        omegas = np.linspace(k / 7.4, k / 2.0, 15)
        data = [(w, 0.8 * bessel_j(4, k / w) ** 2) for w in omegas]
        fit = fit_sideband_heights(data, 4)
        assert fit.converged
        assert fit.parameters[0] == pytest.approx(0.8, rel=1e-6)
        assert abs(fit.parameters[1]) == pytest.approx(k, rel=1e-6)

    def test_m0_large_omega_plateau(self):
        omegas = np.linspace(5e4, 5e5, 12)
        data = [(w, 0.42 * bessel_j(0, 3000.0 / w) ** 2) for w in omegas]
        fit = fit_sideband_heights(data, 0)
        assert fit.parameters[0] == pytest.approx(0.42, rel=1e-3)

    def test_pipeline_recovers_drive_depth(self):
        p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=3000.0,
                        omega_b=3000.0, n1=0, n2=0)
        cfg = SimConfig(truncation_m=7, grid=GridSpec(-100.0, 100.0, 2.0))
        omegas = np.arange(1500.0, 8001.0, 1000.0)
        heights = harvest_sideband_heights(p, omegas, cfg, orders=(1,))
        fit = fit_sideband_heights(heights[1], 1)
        assert fit.converged
        assert abs(fit.parameters[1]) == pytest.approx(3000.0, rel=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_sideband_heights([(1000.0, 1.0), (2000.0, 0.5)], 1)


class TestPhaseDiagram:
    def test_classification_cells(self):
        p = ModelParams(gamma_c=93.0, delta_b=4300.0, n1=1, n2=0)
        geff = effective_coupling(93.0, 4300.0, 3000.0, 1, 0)
        d0s = np.array([3000.0, 3000.0 + 2 * geff, 3000.0 + 4 * geff])
        grid = phase_diagram(p, d0s, np.array([3000.0]), 1, resolution=1.0)
        assert grid[0, 0] == 0  # zero mismatch: unbroken
        assert grid[1, 0] == 1  # at the threshold: EP band
        assert grid[2, 0] == 2  # beyond: broken

    def test_transition_column_at_coupled_point(self):
        p = ModelParams(gamma_c=93.0, delta_b=4300.0, n1=1, n2=0)
        d0s = np.arange(3040.0, 3070.0, 1.0)
        grid = phase_diagram(p, d0s, np.array([3000.0]), 1, resolution=0.5)
        flips = np.where(np.diff((grid[:, 0] == 2).astype(int)) == 1)[0]
        assert flips.size == 1
        assert d0s[flips[0]] == pytest.approx(3055.8, abs=1.5)

    def test_matches_pointwise_reference(self):
        p = ModelParams(gamma_c=93.0, delta_b=4300.0, n1=1, n2=0)
        d0s = np.arange(2900.0, 3200.0, 0.5)
        ws = np.arange(2800.0, 3200.0, 25.0)
        for n, resolution in ((1, 1.0), (1, 0.0), (2, 3.0)):
            expected = np.empty((d0s.size, ws.size), dtype=int)
            for j, w in enumerate(ws):
                geff = effective_coupling(p.gamma_c, p.delta_b, w, n, 0)
                for i, d0 in enumerate(d0s):
                    mu = d0 - n * w
                    if abs(abs(mu) - 2.0 * geff) < resolution:
                        expected[i, j] = 1
                    elif abs(mu) < 2.0 * geff:
                        expected[i, j] = 0
                    else:
                        expected[i, j] = 2
            grid = phase_diagram(p, d0s, ws, n, resolution=resolution)
            assert grid.dtype == expected.dtype
            assert np.array_equal(grid, expected)

    def test_band_edge_is_strict(self):
        # |mu - 2*Gamma_eff| exactly equal to the resolution is outside the band
        p = ModelParams(gamma_c=0.0, n1=1, n2=0)
        grid = phase_diagram(p, np.array([3001.0, 3002.0]), np.array([3000.0]), 1, resolution=1.0)
        assert grid[:, 0].tolist() == [2, 2]

    def test_invariance_under_decay_and_stark(self):
        base = ModelParams(gamma_c=93.0, delta_b=4300.0, n1=1, n2=0)
        shifted = base.but(gamma12=175.0, stark_shift=100.0)
        d0s = np.arange(2900.0, 3200.0, 10.0)
        ws = np.array([2500.0, 3000.0, 3500.0])
        assert np.array_equal(
            phase_diagram(base, d0s, ws, 1), phase_diagram(shifted, d0s, ws, 1)
        )


class TestModulationDepthSolver:
    def test_fig4_targets(self):
        db2 = solve_modulation_depth(300.0, 1500.0, 2, 0, 43.0)
        assert db2 / 1500.0 == pytest.approx(3.10941193, abs=1e-4)
        assert effective_coupling(300.0, db2, 1500.0, 2, 0) == pytest.approx(43.0, abs=1e-6)
        db3 = solve_modulation_depth(300.0, 1000.0, 3, 0, 45.0)
        assert db3 / 1000.0 == pytest.approx(3.53017356, abs=1e-4)
        assert effective_coupling(300.0, db3, 1000.0, 3, 0) == pytest.approx(45.0, abs=1e-6)

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            solve_modulation_depth(93.0, 1500.0, 2, 0, 43.0)

    @pytest.mark.parametrize(
        "args, recorded",
        [
            ((93.0, 3000.0, 1, 0, 30.0), 2584.60666160496),
            ((300.0, 1500.0, 2, 0, 43.0), 4664.117899278028),
            ((300.0, 1000.0, 3, 0, 45.0), 3530.173559248021),
        ],
    )
    def test_bisection_values_unchanged(self, args, recorded):
        # recorded from the inline-Bessel-product solver; the shared
        # band_pair_coupling works on x directly, so nothing moves by rounding
        assert solve_modulation_depth(*args) == recorded

    def test_coupling_blockade_at_j0_zero(self):
        # drive ratio at the first J0 zero kills the first-order coupling
        x0 = 2.404825557695773
        g = effective_coupling(93.0, x0 * 3000.0, 3000.0, 1, 0)
        assert g <= 1e-6 * 93.0
