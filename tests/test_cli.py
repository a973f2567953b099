import json
import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "floqept"]


def run_cli(*args, env=None):
    import os

    full_env = os.environ.copy()
    if env:
        full_env.update(env)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=full_env, timeout=300
    )


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_validate_ok(tmp_path):
    r = run_cli("validate", "--out", str(tmp_path), "--delta0", "-3050", "--gamma-c", "93")
    assert r.returncode == 0
    assert "valid" in r.stdout


def test_validate_failure_exit_2(tmp_path):
    r = run_cli("validate", "--out", str(tmp_path), "--omega-b", "0")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [
    ("validate", "--delta-b", "inf"),
    ("validate", "--delta-b", "nan"),
    ("eigen", "--delta0", "nan", "--static"),
])
def test_non_finite_input_exit_2_with_message(tmp_path, args):
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "must be finite" in r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "eigen.csv").exists()


def test_invalid_params_on_compute_commands_exit_2(tmp_path):
    r = run_cli("eigen", "--out", str(tmp_path), "--omega-b", "0", "--static")
    assert r.returncode == 2


def test_eigen_single_ep_row(tmp_path):
    r = run_cli("eigen", "--out", str(tmp_path), "--delta0", "-186", "--gamma-c", "93", "--static")
    assert r.returncode == 0
    header, rows = read_csv(tmp_path / "eigen.csv")
    assert header == [
        "delta0_abs", "route", "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus", "phase_tag",
    ]
    assert len(rows) == 1
    assert rows[0][1] == "static"
    assert rows[0][6] == "ep"
    assert (tmp_path / "eigen_manifest.json").exists()


def test_eigen_sweep_row_count(tmp_path):
    r = run_cli(
        "eigen", "--out", str(tmp_path), "--sweep-delta0", "2900:3200:1",
        "--delta0", "-3000", "--gamma-c", "93", "--omega-b", "3000", "--n1", "1",
    )
    assert r.returncode == 0
    _, rows = read_csv(tmp_path / "eigen.csv")
    assert len(rows) == 301


def test_eigen_monodromy_matches_rwa_gap(tmp_path):
    common = [
        "--delta0", "-3000", "--gamma-c", "93", "--omega-b", "3000", "--n1", "1",
        "--delta-b", "4300", "--gamma12", "20", "--truncation-m", "5",
        "--sweep-delta0", "3010:3090:40",
    ]
    ra = run_cli("eigen", "--out", str(tmp_path / "a"), "--route", "rwa", *common)
    rb = run_cli("eigen", "--out", str(tmp_path / "b"), "--route", "monodromy", *common)
    assert ra.returncode == 0 and rb.returncode == 0
    _, rows_a = read_csv(tmp_path / "a" / "eigen.csv")
    _, rows_b = read_csv(tmp_path / "b" / "eigen.csv")
    w = 3000.0
    for a, b in zip(rows_a, rows_b):
        gap_a = abs(float(a[2]) - float(a[4]))
        gap_a = abs((gap_a + w / 2) % w - w / 2)
        gap_b = abs(float(b[2]) - float(b[4]))
        gap_b = abs((gap_b + w / 2) % w - w / 2)
        assert gap_a == pytest.approx(gap_b, abs=0.5)


EP_POINT = ["--delta0", "-3050", "--gamma-c", "93", "--gamma12", "20", "--delta-b", "4300",
            "--omega-b", "3000", "--n1", "1", "--truncation-m", "5"]


def test_eigen_monodromy_unbroken_rows_list_slower_decay_first(tmp_path):
    # in the anti-PT phase the real parts tie; integration noise must not order them
    r = run_cli("eigen", "--out", str(tmp_path), "--sweep-delta0", "2900:3200:1",
                "--route", "monodromy", *EP_POINT)
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "eigen.csv")
    unbroken = [row for row in rows if row[6] == "unbroken"]
    assert len(unbroken) == 111
    assert [row[0] for row in unbroken if not float(row[3]) > float(row[5])] == []


def test_ep_gamma_eff_off_closed_form_exit_2(tmp_path):
    r = run_cli("ep", "--out", str(tmp_path), "--route", "monodromy", "--n", "1", *EP_POINT,
                "--gamma-eff", "30")
    assert r.returncode == 2
    assert "--gamma-eff" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "ep.csv").exists()


@pytest.mark.parametrize("order", [("--n", "-1"), ("--n1", "0", "--n2", "1")],
                         ids=["n", "n1-n2"])
def test_ep_negative_band_order_exit_2(tmp_path, order):
    r = run_cli("ep", "--out", str(tmp_path), *EP_POINT, *order)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "ep.csv").exists()


def test_ep_lower_crossing_reports_positive_rate(tmp_path):
    r = run_cli("ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1", *EP_POINT,
                "--bracket", "2900:3000")
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "ep.csv")
    row = dict(zip(header, rows[0]))
    assert (row["mu_star_hz"], row["gamma_eff_hz"]) == ("55.8985714972", "27.9492857486")


def test_spectrum_sidebands_and_determinism(tmp_path):
    args = [
        "spectrum", "--probe", "ch1", "--delta0", "0", "--gamma-c", "5",
        "--gamma12", "50", "--delta-b", "3000", "--omega-b", "3100",
        "--truncation-m", "7", "--grid=-6500:6500:4", "--prominence-rel", "0.001",
    ]
    r1 = run_cli(*args, "--out", str(tmp_path / "run1"))
    r2 = run_cli(*args, "--out", str(tmp_path / "run2"))
    assert r1.returncode == 0 and r2.returncode == 0
    body1 = (tmp_path / "run1" / "spectrum.csv").read_bytes()
    body2 = (tmp_path / "run2" / "spectrum.csv").read_bytes()
    assert body1 == body2
    summary = json.loads((tmp_path / "run1" / "spectrum_summary.json").read_text())
    centers = [p["center_hz"] for p in summary["peaks"]["ch2"]]
    for m in (-2, -1, 0, 1, 2):
        assert min(abs(c - m * 3100.0) for c in centers) < 15.0


def test_beat_summary(tmp_path):
    r = run_cli(
        "beat", "--out", str(tmp_path), "--delta0", "-3050", "--gamma-c", "93",
        "--gamma12", "50", "--delta-b", "150", "--omega-b", "3000", "--n1", "1",
        "--truncation-m", "4", "--sim-duration", "0.4", "--rel-tol", "1e-6",
        "--abs-tol", "1e-9",
    )
    assert r.returncode == 0
    summary = json.loads((tmp_path / "beat_summary.json").read_text())
    assert summary["found"]
    assert abs(summary["beat_hz"] - 50.0) < 2.5


def test_beat_overflow_exit_3_without_nan_csv(tmp_path):
    # |mismatch| = 0 < 2*Gamma_eff: the undamped states grow past float range
    r = run_cli(
        "beat", "--out", str(tmp_path), "--delta0", "-3000", "--gamma-c", "2000",
        "--gamma12", "50", "--delta-b", "4300", "--omega-b", "3000", "--n1", "1",
        "--sim-duration", "0.5", "--rel-tol", "1e-6", "--abs-tol", "1e-9",
    )
    assert r.returncode == 3
    assert r.stderr.strip()
    csv = tmp_path / "beat.csv"
    assert not csv.exists() or "nan" not in csv.read_text().lower()


def test_ep_closed_form(tmp_path):
    r = run_cli(
        "ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "93", "--omega-b", "3000",
        "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
    )
    assert r.returncode == 0
    summary = json.loads((tmp_path / "ep_summary.json").read_text())
    assert abs(summary["delta0_star_abs"] - 3055.9) < 1.0


def test_ep_bad_bracket_exit_3(tmp_path):
    r = run_cli(
        "ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "93", "--omega-b", "3000",
        "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
        "--bracket", "3200:3400",
    )
    assert r.returncode == 3


@pytest.mark.parametrize("bracket", ["nan:3100", "3100:3000", "1:2:3"])
def test_ep_malformed_bracket_exit_2(tmp_path, bracket):
    r = run_cli(
        "ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "93", "--omega-b", "3000",
        "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
        f"--bracket={bracket}",
    )
    assert r.returncode == 2
    assert "bracket" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "ep.csv").exists()


@pytest.mark.parametrize("args", [
    ("eigen", "--sweep-delta0", "5:1:1"),
    ("eigen", "--sweep-delta0", "1:5:0"),
    ("eigen", "--sweep-delta0", "a:b:c"),
    ("eigen", "--sweep-delta0", "0:inf:1"),
    ("eigen", "--sweep-delta0", "0:nan:1"),
    ("eigen", "--sweep-delta0=-1e308:1e308:1"),
    ("spectrum", "--grid=-6500:6500:-4"),
    ("gamma-curve", "--sweep-omega-b", "8000:2500:500"),
], ids=lambda args: " ".join(args))
def test_malformed_sweep_exit_2(tmp_path, args):
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not list(tmp_path.glob("*.csv"))


EP_CLOSED_FORM = ("ep", "--route", "closed-form", "--n", "1", "--delta0", "-3050",
                  "--gamma-c", "93", "--omega-b", "3000", "--delta-b", "4300", "--n1", "1",
                  "--truncation-m", "5")
SMALL_SPECTRUM = ("spectrum", "--probe", "ch1", "--grid=-100:100:4")


@pytest.mark.parametrize("args", [
    ("phase-diagram", "--sweep-delta0", "2900:3200:5", "--sweep-omega-b", "2800:3200:50",
     "--n", "1", "--gamma-c", "93", "--delta-b", "4300", "--n1", "1", "--resolution", "nan"),
    EP_CLOSED_FORM + ("--gamma-eff", "-5"),
    EP_CLOSED_FORM + ("--gamma-eff", "nan"),
    SMALL_SPECTRUM + ("--amplitude", "nan"),
    SMALL_SPECTRUM + ("--amplitude", "0"),
    SMALL_SPECTRUM + ("--prominence-rel", "-1"),
], ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_malformed_float_option_exit_2(tmp_path, args):
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_fit_non_finite_param_exit_2_without_manifest(tmp_path):
    data = tmp_path / "heights.csv"
    data.write_text("omega_b,height\n1000,0.1\n2000,0.2\n4000,0.3\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(data), "--delta0", "nan")
    assert r.returncode == 2
    assert "must be finite" in r.stderr
    assert not (tmp_path / "fit_manifest.json").exists()


def test_fit_missing_input_exit_4(tmp_path):
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(tmp_path / "missing.csv"))
    assert r.returncode == 4


@pytest.mark.parametrize("row", ["2500", "2500,nan", "2500,inf", "nan,0.2"],
                         ids=["short", "nan-height", "inf-height", "nan-omega-b"])
def test_fit_bad_heights_row_exit_4(tmp_path, row):
    data = tmp_path / "heights.csv"
    data.write_text(f"omega_b,height\n1000,0.1\n{row}\n4000,0.3\n8000,0.2\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(data))
    assert r.returncode == 4
    assert f"{data}:3" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "fit.csv").exists()


def test_fit_negative_order_exit_2(tmp_path):
    data = tmp_path / "heights.csv"
    data.write_text("omega_b,height\n1000,0.1\n2000,0.2\n4000,0.3\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "-1", "--input", str(data))
    assert r.returncode == 2
    assert "integer >= 0" in r.stderr
    assert not (tmp_path / "fit.csv").exists()


def test_fit_roundtrip_from_csv(tmp_path):
    import math

    from floqept.numerics.bessel import bessel_j

    rows = ["omega_b,height"]
    for w in range(1000, 8001, 500):
        rows.append(f"{w},{bessel_j(1, 3000.0 / w) ** 2:.15g}")
    data = tmp_path / "heights.csv"
    data.write_text("\n".join(rows) + "\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(data))
    assert r.returncode == 0
    summary = json.loads((tmp_path / "fit_summary.json").read_text())
    assert summary["converged"]
    assert abs(abs(summary["k_hz"]) - 3000.0) / 3000.0 < 0.05


def test_phase_diagram_counts(tmp_path):
    r = run_cli(
        "phase-diagram", "--out", str(tmp_path), "--sweep-delta0", "3040:3070:1",
        "--sweep-omega-b", "3000:3000:1", "--n", "1",
        "--gamma-c", "93", "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
    )
    assert r.returncode == 0
    header, rows = read_csv(tmp_path / "phase_diagram.csv")
    assert header == ["delta0_abs", "omega_b_hz", "phase", "phase_tag"]
    tags = [row[3] for row in rows]
    assert "unbroken" in tags and "broken" in tags


def test_malformed_config_exit_2(tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text("delta0 -3050\n")  # missing '='
    r = run_cli("eigen", "--out", str(tmp_path), "--static", "--config", str(conf))
    assert r.returncode == 2


def test_unknown_config_key_exit_2(tmp_path):
    conf = tmp_path / "typo.conf"
    conf.write_text("delta_zero = -3050\n")
    r = run_cli("eigen", "--out", str(tmp_path), "--static", "--config", str(conf))
    assert r.returncode == 2


def test_single_point_grid_rejected(tmp_path):
    r = run_cli("spectrum", "--out", str(tmp_path), "--grid", "0:0:1")
    assert r.returncode == 2


def test_config_file_and_env_override(tmp_path):
    conf = tmp_path / "point.conf"
    conf.write_text("delta0 = -186\ngamma_c = 93\n")
    out1 = tmp_path / "o1"
    r = run_cli("eigen", "--out", str(out1), "--static", env={"FLOQEPT_CONFIG": str(conf)})
    assert r.returncode == 0
    _, rows = read_csv(out1 / "eigen.csv")
    assert rows[0][6] == "ep"
    # explicit flag beats the config file
    out2 = tmp_path / "o2"
    r = run_cli("eigen", "--out", str(out2), "--static", "--delta0", "-1000",
                env={"FLOQEPT_CONFIG": str(conf)})
    assert r.returncode == 0
    _, rows = read_csv(out2 / "eigen.csv")
    assert rows[0][6] == "broken"


def test_manifest_reproduces_run(tmp_path):
    out1 = tmp_path / "m1"
    r = run_cli("eigen", "--out", str(out1), "--static", "--delta0", "-186", "--gamma-c", "93")
    assert r.returncode == 0
    manifest = json.loads((out1 / "eigen_manifest.json").read_text())
    p = manifest["params"]
    out2 = tmp_path / "m2"
    r = run_cli(
        "eigen", "--out", str(out2), "--static",
        "--delta0", str(p["delta0"]), "--gamma-c", str(p["gamma_c"]),
        "--gamma12", str(p["gamma12"]), "--delta-b", str(p["delta_b"]),
        "--omega-b", str(p["omega_b"]),
    )
    assert r.returncode == 0
    assert (out1 / "eigen.csv").read_bytes() == (out2 / "eigen.csv").read_bytes()


def test_manifest_records_main_argv(tmp_path):
    from floqept.cli import main

    argv = ["eigen", "--static", "--delta0", "-186", "--gamma-c", "93", "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "eigen_manifest.json").read_text())
    assert manifest["argv"] == argv


def test_gamma_curve_smoke(tmp_path):
    r = run_cli(
        "gamma-curve", "--out", str(tmp_path), "--sweep-omega-b", "2500:6500:2000",
        "--delta0", "-3000", "--gamma-c", "93", "--gamma12", "20",
        "--delta-b", "4300", "--omega-b", "3000", "--n1", "1",
        "--truncation-m", "5", "--grid=-4000:1000:2",
    )
    assert r.returncode == 0
    header, rows = read_csv(tmp_path / "gamma_curve.csv")
    assert header == ["omega_b_hz", "gamma_eff_hz", "gamma_eff_fit_hz"]
    assert len(rows) == 3
    summary = json.loads((tmp_path / "gamma_curve_summary.json").read_text())
    assert summary["ok"]
    assert abs(summary["gamma_c_fit_hz"] - 93.0) / 93.0 < 0.1


def test_eigen_route_all(tmp_path):
    r = run_cli(
        "eigen", "--out", str(tmp_path), "--route", "all",
        "--delta0", "-3050", "--gamma-c", "93", "--gamma12", "20",
        "--delta-b", "4300", "--omega-b", "3000", "--n1", "1", "--truncation-m", "5",
    )
    assert r.returncode == 0
    _, rows = read_csv(tmp_path / "eigen.csv")
    assert [row[1] for row in rows] == ["static", "rwa", "monodromy"]


def test_separation_smoke(tmp_path):
    r = run_cli(
        "separation", "--out", str(tmp_path), "--sweep-delta0", "3040:3070:10",
        "--delta0", "-3050", "--gamma-c", "93", "--gamma12", "20",
        "--delta-b", "4300", "--omega-b", "3000", "--n1", "1",
        "--truncation-m", "5", "--grid=-4000:1000:2",
    )
    assert r.returncode == 0
    header, rows = read_csv(tmp_path / "separation.csv")
    assert header == ["delta0_abs", "separation_hz", "merged", "eigen_separation_hz"]
    assert len(rows) == 4
    summary = json.loads((tmp_path / "separation_summary.json").read_text())
    assert summary["first_split_delta0_abs"] == pytest.approx(3060.0, abs=10.0)


def test_separation_parallel_jobs_deterministic(tmp_path):
    args = [
        "separation", "--sweep-delta0", "3040:3070:10",
        "--delta0", "-3050", "--gamma-c", "93", "--gamma12", "20",
        "--delta-b", "4300", "--omega-b", "3000", "--n1", "1",
        "--truncation-m", "5", "--grid=-4000:1000:2",
    ]
    r1 = run_cli(*args, "--out", str(tmp_path / "serial"), "--jobs", "1")
    r2 = run_cli(*args, "--out", str(tmp_path / "parallel"), "--jobs", "3")
    assert r1.returncode == 0 and r2.returncode == 0
    assert (tmp_path / "serial" / "separation.csv").read_bytes() == (
        tmp_path / "parallel" / "separation.csv"
    ).read_bytes()


def test_fit_closure_on_pipeline_output(tmp_path):
    # harvest heights through the simulation pipeline, export, fit via CLI
    import numpy as np

    from floqept import GridSpec, ModelParams, SimConfig, harvest_sideband_heights

    p = ModelParams(delta0=0.0, gamma_c=0.0, gamma12=50.0, delta_b=3000.0,
                    omega_b=3000.0, n1=0, n2=0)
    cfg = SimConfig(truncation_m=7, grid=GridSpec(-100.0, 100.0, 2.0))
    heights = harvest_sideband_heights(p, np.arange(1500.0, 8001.0, 1000.0), cfg, orders=(1,))
    csv = tmp_path / "heights.csv"
    csv.write_text(
        "omega_b,height\n" + "\n".join(f"{w},{h:.15g}" for w, h in heights[1]) + "\n"
    )
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(csv))
    assert r.returncode == 0
    summary = json.loads((tmp_path / "fit_summary.json").read_text())
    assert summary["converged"]
    assert abs(abs(summary["k_hz"]) - 3000.0) / 3000.0 < 0.05
