import math

import pytest

from floqept import GridSpec, ModelParams, SimConfig, validate
from floqept.params import load_config_file, params_from_mapping, required_truncation


def test_valid_point():
    p = ModelParams(omega_b=3000.0, delta_b=3000.0)
    cfg = SimConfig(truncation_m=4)
    assert validate(p, cfg).ok  # ceil(1) + 3 = 4 satisfied


def test_at_detuning_keeps_the_side_of_delta0():
    red, blue = ModelParams(delta0=-3050.0, gamma_c=93.0), ModelParams(delta0=3050.0)
    assert red.at_detuning(2900.0) == red.but(delta0=-2900.0)
    assert blue.at_detuning(2900.0).delta0 == 2900.0
    assert math.copysign(1.0, blue.at_detuning(0.0).delta0) == 1.0
    # delta0 = 0 counts as red, so the swept zero is -0.0
    for p in (red, ModelParams(delta0=0.0)):
        assert math.copysign(1.0, p.at_detuning(0.0).delta0) == -1.0


def test_zero_omega_b_flagged():
    report = validate(ModelParams(omega_b=0.0))
    assert not report.ok
    assert any("omega_b" in v for v in report.violations)


def test_truncation_too_small_flagged():
    p = ModelParams(delta0=-3050.0, gamma_c=93.0, omega_b=3000.0, delta_b=4300.0)
    assert required_truncation(p) == 5  # ceil(4300/3000) + 3
    report = validate(p, SimConfig(truncation_m=2))
    assert not report.ok
    assert any("truncation_m" in v for v in report.violations)


def test_negative_rates_flagged():
    report = validate(ModelParams(gamma_c=-1.0, gamma12=-2.0, delta_b=-3.0))
    joined = "\n".join(report.violations)
    assert "gamma_c" in joined and "gamma12" in joined and "delta_b" in joined


def test_validation_pure_and_idempotent():
    p = ModelParams(omega_b=0.0)
    cfg = SimConfig()
    first = validate(p, cfg)
    second = validate(p, cfg)
    assert first == second


def test_band_index_accessor():
    p = ModelParams(n1=3, n2=1)
    assert p.n == 2
    assert ModelParams(delta0=-100.0, n1=1).n_signed == -1
    assert ModelParams(delta0=+100.0, n1=1).n_signed == 1


def test_grid_points_inclusive():
    g = GridSpec(2900.0, 3200.0, 1.0)
    pts = g.points()
    assert pts.size == 301
    assert pts[0] == 2900.0 and pts[-1] == 3200.0


def test_bad_grid_flagged():
    cfg = SimConfig(grid=GridSpec(10.0, -10.0, 1.0))
    report = validate(ModelParams(), cfg)
    assert any("grid" in v for v in report.violations)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        """
        # coupled working point
        delta0 = -3050
        gamma_c = 93
        delta_b = 4300
        omega_b = 3000
        n1 = 1
        truncation_m = 5
        grid_start = -4000
        grid_stop = 1000
        grid_step = 2
        """
    )
    raw = load_config_file(path)
    params, cfg = params_from_mapping(raw)
    assert params.delta0 == -3050.0
    assert params.n == 1
    assert cfg.truncation_m == 5
    assert cfg.grid == GridSpec(-4000.0, 1000.0, 2.0)


def test_unknown_config_key_rejected():
    with pytest.raises(KeyError):
        params_from_mapping({"not_a_key": "1"})


def test_immutable_updates():
    p = ModelParams(delta0=-100.0)
    q = p.but(delta0=-200.0)
    assert p.delta0 == -100.0 and q.delta0 == -200.0


NAN, INF = float("nan"), float("inf")
_FLOAT_PARAMS = ("delta0", "gamma_c", "gamma12", "delta_b", "omega_b", "delta_zeeman0", "stark_shift")
_BAD_INPUTS = (
    [pytest.param({f: v}, {}, f"{f} must be finite", id=f"{f}={v}")
     for f in _FLOAT_PARAMS for v in (NAN, INF, -INF)]
    + [pytest.param({}, {f: v}, f"{f} must be finite", id=f"{f}={v}")
       for f in ("rel_tol", "abs_tol", "sim_duration") for v in (NAN, INF)]
    + [pytest.param({}, {"grid": GridSpec(NAN, 1000.0, 2.0)}, "grid_start must be finite",
                    id="grid_start=nan"),
       pytest.param({}, {"grid": GridSpec(-4000.0, INF, 2.0)}, "grid_stop must be finite",
                    id="grid_stop=inf"),
       pytest.param({}, {"grid": GridSpec(-4000.0, 1000.0, NAN)}, "grid_step must be finite",
                    id="grid_step=nan")]
)


@pytest.mark.parametrize("pchanges, cchanges, expected", _BAD_INPUTS)
def test_non_finite_fields_rejected(pchanges, cchanges, expected):
    p = ModelParams(delta0=-3050.0, gamma_c=93.0, omega_b=3000.0, delta_b=4300.0, n1=1).but(**pchanges)
    report = validate(p, SimConfig(truncation_m=5).but(**cchanges))  # must not raise
    assert not report.ok
    assert any(expected in v for v in report.violations), report.violations
