"""The command line, run in this process through ``main(argv)``.

A few tests run a fresh interpreter instead: ``python -m floqept``, the
console entry point and one command for each exit code 2, 3 and 4.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from floqept import GridSpec
from floqept.cli import build_parser, main
from floqept.engine import classify_phase, effective_coupling, floquet_eigenvalues

BASE = [sys.executable, "-m", "floqept"]


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_subprocess(*args, env=None, base=BASE):
    full_env = os.environ.copy()
    if env:
        full_env.update(env)
    r = subprocess.run(base + list(args), capture_output=True, text=True, env=full_env, timeout=300)
    return Run(r.returncode, r.stdout, r.stderr)


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """``main(argv)`` in this process, with its exit code and captured output."""

    def run(*args, env=None):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            for key, value in (env or {}).items():
                patch.setenv(key, value)
            try:
                code = main(list(args))
            except SystemExit as exc:  # argparse errors and the runner's typed failures
                code = 0 if exc.code is None else exc.code
        out, err = capsys.readouterr()
        return Run(code, out, err)

    return run


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_validate_ok(tmp_path):
    r = run_subprocess("validate", "--out", str(tmp_path), "--delta0", "-3050", "--gamma-c", "93")
    assert r.returncode == 0
    assert "valid" in r.stdout


def test_validate_failure_exit_2(tmp_path):
    r = run_subprocess("validate", "--out", str(tmp_path), "--omega-b", "0")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [
    ("validate", "--delta-b", "inf"),
    ("validate", "--delta-b", "nan"),
    ("eigen", "--delta0", "nan", "--static"),
])
def test_non_finite_input_exit_2_with_message(tmp_path, args, run_cli):
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "must be finite" in r.stdout + r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "eigen.csv").exists()


def test_invalid_params_on_compute_commands_exit_2(tmp_path, run_cli):
    r = run_cli("eigen", "--out", str(tmp_path), "--omega-b", "0", "--static")
    assert r.returncode == 2


def test_eigen_single_ep_row(tmp_path, run_cli):
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


def test_eigen_sweep_row_count(tmp_path, run_cli):
    r = run_cli(
        "eigen", "--out", str(tmp_path), "--sweep-delta0", "2900:3200:1",
        "--delta0", "-3000", "--gamma-c", "93", "--omega-b", "3000", "--n1", "1",
    )
    assert r.returncode == 0
    _, rows = read_csv(tmp_path / "eigen.csv")
    assert len(rows) == 301


def test_eigen_monodromy_matches_rwa_gap(tmp_path, run_cli):
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


def test_eigen_monodromy_unbroken_rows_list_slower_decay_first(tmp_path, run_cli):
    # in the anti-PT phase the real parts tie; integration noise must not order them
    r = run_cli("eigen", "--out", str(tmp_path), "--sweep-delta0", "2900:3200:1",
                "--route", "monodromy", *EP_POINT)
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "eigen.csv")
    unbroken = [row for row in rows if row[6] == "unbroken"]
    assert len(unbroken) == 111
    assert [row[0] for row in unbroken if not float(row[3]) > float(row[5])] == []


def test_ep_gamma_eff_off_closed_form_exit_2(tmp_path, run_cli):
    r = run_cli("ep", "--out", str(tmp_path), "--route", "monodromy", "--n", "1", *EP_POINT,
                "--gamma-eff", "30")
    assert r.returncode == 2
    assert "--gamma-eff" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "ep.csv").exists()


@pytest.mark.parametrize("order", [("--n", "-1"), ("--n1", "0", "--n2", "1")],
                         ids=["n", "n1-n2"])
def test_ep_negative_band_order_exit_2(tmp_path, order, run_cli):
    r = run_cli("ep", "--out", str(tmp_path), *EP_POINT, *order)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "ep.csv").exists()


def test_ep_lower_crossing_reports_positive_rate(tmp_path, run_cli):
    r = run_cli("ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1", *EP_POINT,
                "--bracket", "2900:3000")
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(tmp_path / "ep.csv")
    row = dict(zip(header, rows[0]))
    assert (row["mu_star_hz"], row["gamma_eff_hz"]) == ("55.8985714972", "27.9492857486")


def test_spectrum_sidebands_and_determinism(tmp_path, run_cli):
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


def test_beat_summary(tmp_path, run_cli):
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


def test_beat_overflow_exit_3_without_nan_csv(tmp_path, run_cli):
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


def test_ep_spectral_singular_block_exit_3(tmp_path, run_cli):
    # gamma_c = gamma12 = 0: the window of the |mu| = 4 Hz read holds the channel-1
    # line of block 0 exactly, where the block determinant is zero
    r = run_cli(
        "ep", "--out", str(tmp_path), "--route", "spectral-pipeline", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "0", "--gamma12", "0", "--delta-b", "4300",
        "--omega-b", "3000", "--n1", "1",
    )
    assert r.returncode == 3
    assert "delta = -3004 Hz: singular 2x2 block" in r.stderr
    assert not (tmp_path / "ep.csv").exists()


def test_ep_closed_form(tmp_path, run_cli):
    r = run_cli(
        "ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "93", "--omega-b", "3000",
        "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
    )
    assert r.returncode == 0
    summary = json.loads((tmp_path / "ep_summary.json").read_text())
    assert abs(summary["delta0_star_abs"] - 3055.9) < 1.0


def test_ep_monodromy_matches_closed_form(tmp_path, run_cli):
    summaries = {}
    for route in ("closed-form", "monodromy"):
        r = run_cli("ep", "--out", str(tmp_path / route), "--route", route, "--n", "1", *EP_POINT)
        assert r.returncode == 0, r.stderr
        summaries[route] = json.loads((tmp_path / route / "ep_summary.json").read_text())
    mono = summaries["monodromy"]
    star = mono["delta0_star_abs"]
    assert mono["iterations"] == 0 and mono["bracket"] == [star, star]
    assert abs(mono["mu_star_hz"] - summaries["closed-form"]["mu_star_hz"]) <= 1e-6


def test_ep_bad_bracket_exit_3(tmp_path):
    r = run_subprocess(
        "ep", "--out", str(tmp_path), "--route", "closed-form", "--n", "1",
        "--delta0", "-3050", "--gamma-c", "93", "--omega-b", "3000",
        "--delta-b", "4300", "--n1", "1", "--truncation-m", "5",
        "--bracket", "3200:3400",
    )
    assert r.returncode == 3


@pytest.mark.parametrize("bracket", ["nan:3100", "3100:3000", "1:2:3"])
def test_ep_malformed_bracket_exit_2(tmp_path, bracket, run_cli):
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
def test_malformed_sweep_exit_2(tmp_path, args, run_cli):
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
def test_malformed_float_option_exit_2(tmp_path, args, run_cli):
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_fit_non_finite_param_exit_2_without_manifest(tmp_path, run_cli):
    data = tmp_path / "heights.csv"
    data.write_text("omega_b,height\n1000,0.1\n2000,0.2\n4000,0.3\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(data), "--delta0", "nan")
    assert r.returncode == 2
    assert "must be finite" in r.stderr
    assert not (tmp_path / "fit_manifest.json").exists()


def test_fit_missing_input_exit_4(tmp_path):
    r = run_subprocess("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(tmp_path / "missing.csv"))
    assert r.returncode == 4


@pytest.mark.parametrize("row", ["2500", "2500,nan", "2500,inf", "nan,0.2"],
                         ids=["short", "nan-height", "inf-height", "nan-omega-b"])
def test_fit_bad_heights_row_exit_4(tmp_path, row, run_cli):
    data = tmp_path / "heights.csv"
    data.write_text(f"omega_b,height\n1000,0.1\n{row}\n4000,0.3\n8000,0.2\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "1", "--input", str(data))
    assert r.returncode == 4
    assert f"{data}:3" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "fit.csv").exists()


def test_fit_negative_order_exit_2(tmp_path, run_cli):
    data = tmp_path / "heights.csv"
    data.write_text("omega_b,height\n1000,0.1\n2000,0.2\n4000,0.3\n")
    r = run_cli("fit", "--out", str(tmp_path), "--model", "bessel-heights",
                "--m", "-1", "--input", str(data))
    assert r.returncode == 2
    assert "integer >= 0" in r.stderr
    assert not (tmp_path / "fit.csv").exists()


def test_fit_roundtrip_from_csv(tmp_path, run_cli):
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


def test_phase_diagram_counts(tmp_path, run_cli):
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


DRIVE = ("--gamma-c", "93", "--n1", "1")
PHASE = ("phase-diagram", "--sweep-delta0", "2900:3200:5", "--n", "1") + DRIVE


@pytest.mark.parametrize("args,message", [
    (("gamma-curve", "--sweep-omega-b", "50:100:10", "--delta-b", "4300") + DRIVE,
     "omega_b = 50 Hz:\n- delta_b/omega_b exceeds 50"),
    (PHASE + ("--sweep-omega-b", "0:100:50", "--delta-b", "150"),
     "omega_b = 0 Hz:\n- omega_b must be positive"),
    (PHASE + ("--sweep-omega-b=-100:-50:50", "--delta-b", "150"),
     "omega_b = -100 Hz:\n- omega_b must be positive"),
    (("gamma-curve", "--sweep-omega-b=-3000:-1000:1000", "--delta-b", "4300") + DRIVE,
     "omega_b = -3000 Hz:\n- omega_b must be positive"),
    (("gamma-curve", "--sweep-omega-b", "3000:3000:1", "--delta-b", "4300") + DRIVE,
     "gamma-curve needs at least 2 drive frequencies, got 1"),
], ids=["above-range", "through-zero", "negative-map", "negative-curve", "one-point"])
def test_swept_drive_frequency_out_of_range_exit_2(tmp_path, args, message, run_cli):
    # every swept omega_b must pass validate() as --omega-b does; the first bad one is named
    r = run_cli(*args, "--out", str(tmp_path))
    assert r.returncode == 2
    assert message in r.stderr
    assert not list(tmp_path.iterdir())


def test_phase_diagram_negative_band_order_exit_2(tmp_path, run_cli):
    r = run_cli(
        "phase-diagram", "--out", str(tmp_path), "--sweep-delta0", "2900:3200:50",
        "--sweep-omega-b", "3000:3000:1", "--n", "-1",
        "--gamma-c", "93", "--delta-b", "4300", "--n1", "1",
    )
    assert r.returncode == 2
    assert "integer >= 0" in r.stderr
    assert not list(tmp_path.iterdir())


def test_spectrum_uncoupled_transfer_has_no_peaks(tmp_path, run_cli):
    # with gamma_c = 0 nothing reaches channel 2 under a channel-1 probe
    r = run_cli(
        "spectrum", "--out", str(tmp_path), "--probe", "ch1", "--delta0", "0", "--gamma-c", "0",
        "--delta-b", "3000", "--omega-b", "3100", "--truncation-m", "7", "--grid=-6500:6500:4",
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["peaks"]["ch2"] == []
    assert len(summary["peaks"]["ch1"]) >= 3
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert all(float(row[2]) == 0.0 for row in rows)


def test_malformed_config_exit_2(tmp_path, run_cli):
    conf = tmp_path / "broken.conf"
    conf.write_text("delta0 -3050\n")  # missing '='
    r = run_cli("eigen", "--out", str(tmp_path), "--static", "--config", str(conf))
    assert r.returncode == 2


def test_unknown_config_key_exit_2(tmp_path, run_cli):
    conf = tmp_path / "typo.conf"
    conf.write_text("delta_zero = -3050\n")
    r = run_cli("eigen", "--out", str(tmp_path), "--static", "--config", str(conf))
    assert r.returncode == 2


def test_single_point_grid_rejected(tmp_path, run_cli):
    r = run_cli("spectrum", "--out", str(tmp_path), "--grid", "0:0:1")
    assert r.returncode == 2


def test_config_file_and_env_override(tmp_path, run_cli):
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


def test_manifest_reproduces_run(tmp_path, run_cli):
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
    argv = ["eigen", "--static", "--delta0", "-186", "--gamma-c", "93", "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "eigen_manifest.json").read_text())
    assert manifest["argv"] == argv


def test_gamma_curve_smoke(tmp_path, run_cli):
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


def test_gamma_curve_rejected_fit_exit_3(tmp_path, capsys):
    # with no drive every extracted rate is 0 and the fit is rejected
    argv = ["gamma-curve", "--out", str(tmp_path), "--sweep-omega-b", "2500:8000:500",
            "--delta0", "-3000", "--gamma-c", "93", "--gamma12", "20", "--delta-b", "0",
            "--n1", "1", "--truncation-m", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "all extracted rates consistent with zero" in capsys.readouterr().err
    assert not (tmp_path / "gamma_curve.csv").exists()
    assert not (tmp_path / "gamma_curve_summary.json").exists()


def test_eigen_monodromy_large_decay_exit_0(tmp_path, run_cli):
    # the decay is an exact factor of the monodromy, so no decay is too large to resolve
    point = ["--delta0", "-3050", "--gamma-c", "93", "--delta-b", "4300", "--omega-b", "3000",
             "--n1", "1", "--truncation-m", "5"]
    closed = floquet_eigenvalues(-3050.0, 3000.0, 1, effective_coupling(93.0, 4300.0, 3000.0, 1, 0))
    for gamma12 in (2e4, 1e5):
        out = tmp_path / f"{gamma12:g}"
        r = run_cli("eigen", "--out", str(out), "--route", "monodromy", "--gamma12", str(gamma12),
                    *point)
        assert r.returncode == 0, r.stderr
        _, rows = read_csv(out / "eigen.csv")
        want = sorted(v.imag - gamma12 for v in closed.values)
        assert sorted(float(rows[0][i]) for i in (3, 5)) == pytest.approx(want, rel=0.0, abs=1e-6)


@pytest.mark.parametrize("args", [
    ("--sweep-delta0", "2990:3010:1", "--omega-b", "3000", "--n1", "1"),
    ("--delta0", "-4537.423", "--omega-b", "2269.111", "--gamma-c", "241.25",
     "--delta-b", "7.358", "--gamma12", "126.06", "--n1", "2"),
], ids=["uncoupled-sweep", "sub-hertz-gap"])
def test_eigen_monodromy_tags_match_rwa(tmp_path, run_cli, args):
    # both routes tag through one rule: the monodromy at the rate its quasi-energies read
    r = run_cli("eigen", "--out", str(tmp_path), "--route", "all", *args)
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "eigen.csv")
    tags = {}
    for row in rows:
        tags.setdefault(row[0], {})[row[1]] = row[6]
    assert [d for d, by_route in tags.items() if by_route["monodromy"] != by_route["rwa"]] == []


def test_ep_and_phase_diagram_share_the_declared_pair(tmp_path, run_cli):
    # with (n1, n2) = (2, 1) both commands use |J2*J1|, not |J1*J0|
    pair = ["--n", "1", "--n1", "2", "--n2", "1", "--gamma-c", "93", "--delta-b", "4300"]
    assert run_cli("ep", "--out", str(tmp_path), *pair).returncode == 0
    star = json.loads((tmp_path / "ep_summary.json").read_text())["delta0_star_abs"]
    assert star == pytest.approx(3000.0 + 2.0 * effective_coupling(93.0, 4300.0, 3000.0, 2, 1))
    assert run_cli("phase-diagram", "--out", str(tmp_path), "--sweep-delta0", "3000:3100:1",
                   "--sweep-omega-b", "3000:3000:1", *pair).returncode == 0
    _, rows = read_csv(tmp_path / "phase_diagram.csv")
    assert [float(row[0]) for row in rows if row[3] == "ep-band"] == [3021.0, 3022.0]
    assert 3021.0 < star < 3022.0


def test_memory_error_exit_3(tmp_path, run_cli, monkeypatch):
    def out_of_memory(params, cfg):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr("floqept.cli.beat_frequency", out_of_memory)
    r = run_cli("beat", "--out", str(tmp_path))
    assert r.returncode == 3
    assert "numerical failure: out of memory: Unable to allocate" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "beat.csv").exists()


def test_eigen_route_all(tmp_path, run_cli):
    r = run_cli(
        "eigen", "--out", str(tmp_path), "--route", "all",
        "--delta0", "-3050", "--gamma-c", "93", "--gamma12", "20",
        "--delta-b", "4300", "--omega-b", "3000", "--n1", "1", "--truncation-m", "5",
    )
    assert r.returncode == 0
    _, rows = read_csv(tmp_path / "eigen.csv")
    assert [row[1] for row in rows] == ["static", "rwa", "monodromy"]


def test_separation_smoke(tmp_path, run_cli):
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


def test_separation_parallel_jobs_deterministic(tmp_path, run_cli):
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


def test_fit_closure_on_pipeline_output(tmp_path, run_cli):
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


def test_console_entry_point(tmp_path):
    # run what the installed `floqept` script runs: the [project.scripts] target
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^floqept = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    r = run_subprocess("eigen", "--out", str(tmp_path), "--delta0", "-186", "--gamma-c", "93",
                       "--static", base=[sys.executable, "-c", script])
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "eigen.csv")
    assert rows[0][6] == "ep"


def _run_record(out: Path) -> dict:
    """What a run leaves in ``out``, less the manifest's wall clock and paths."""
    if not out.exists():
        return {}
    record = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith("manifest.json")}
    for p in out.glob("*_manifest.json"):
        manifest = json.loads(p.read_text())
        record[p.name] = [manifest[k] for k in ("subcommand", "params", "config")]
    return record


# consecutive argv that differ only in flags a leaked parser state would carry over
PARSER_REUSE_ARGV = [
    ("eigen", "--route", "all", *EP_POINT),
    ("eigen", *EP_POINT),
    ("ep", "--gamma-eff", "30", *EP_POINT),
    ("ep", *EP_POINT),
    ("eigen", "--sweep-delta0", "5:1:1"),
    ("eigen", "--sweep-delta0", "2900:2910:5", *EP_POINT),
]


def test_shared_parser_matches_fresh_process(tmp_path, run_cli):
    assert build_parser() is build_parser()
    codes = []
    for i, argv in enumerate(PARSER_REUSE_ARGV):
        here, fresh = tmp_path / f"in-process-{i}", tmp_path / f"fresh-{i}"
        r = run_cli(*argv, "--out", str(here))
        f = run_subprocess(*argv, "--out", str(fresh))
        assert r == f, argv
        assert _run_record(here) == _run_record(fresh), argv
        codes.append(r.returncode)
    assert codes == [0, 0, 0, 0, 2, 0]


def test_phase_diagram_cells_row_major(tmp_path, run_cli):
    r = run_cli("phase-diagram", "--out", str(tmp_path), "--sweep-delta0", "2850:3150:1",
                "--sweep-omega-b", "2800:3200:10", "--n", "1", "--gamma-c", "93",
                "--delta-b", "4300", "--n1", "1")
    assert r.returncode == 0, r.stderr
    _, rows = read_csv(tmp_path / "phase_diagram.csv")
    d0s, ws = GridSpec(2850.0, 3150.0, 1.0).points(), GridSpec(2800.0, 3200.0, 10.0).points()
    assert len(rows) == d0s.size * ws.size == 301 * 41
    assert [row[:2] for row in rows] == [[f"{d:.12g}", f"{w:.12g}"] for d in d0s for w in ws]
    rates = np.array([effective_coupling(93.0, 4300.0, w, 1, 0) for w in ws])
    want = classify_phase(np.abs(d0s[:, None] - ws[None, :]), 2.0 * rates,
                          np.nextafter(1.0, -np.inf)).ravel()
    assert set(want.tolist()) == {0, 1, 2}
    assert [int(row[2]) for row in rows] == want.tolist()
    names = ("unbroken", "ep-band", "broken")
    assert [row[3] for row in rows] == [names[k] for k in want]


def test_spectrum_does_not_validate_truncation_m(tmp_path, run_cli):
    # the grid never reads truncation_m: the default 6 gives the same CSV as the old minimum 13
    args = ("spectrum", "--probe", "ch1", "--delta0", "-3050", "--gamma-c", "93",
            "--delta-b", "30000", "--omega-b", "3000", "--n1", "1")
    r = run_cli(*args, "--out", str(tmp_path / "default"))
    assert r.returncode == 0, r.stderr
    assert run_cli(*args, "--truncation-m", "13", "--out", str(tmp_path / "m13")).returncode == 0
    body = (tmp_path / "default" / "spectrum.csv").read_bytes()
    assert body == (tmp_path / "m13" / "spectrum.csv").read_bytes()
