"""Byte-exact outputs of the fast closed-form CLI commands.

Each case runs one command and compares every CSV body and JSON summary it
writes against the recorded copy under ``tests/data/golden/<case>/``.  The
manifest sidecar carries wall time and is not compared.  The cases cover
the README commands plus rows that pin signed zeros (``delta0 = 0``) and
the ``ep`` tag at exact coalescences.

Regenerate the recorded copies (only when an output change is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import sys
from pathlib import Path

import pytest

from floqept.cli import main

DATA = Path(__file__).parent / "data" / "golden"

COUPLED = ["--gamma-c", "93", "--delta-b", "4300", "--omega-b", "3000", "--n1", "1"]

CASES = {
    "eigen_static_ep": ["eigen", "--delta0", "-186", "--gamma-c", "93", "--static"],
    "eigen_static_zero": ["eigen", "--delta0", "0", "--gamma-c", "93", "--static"],
    "eigen_rwa_ep": ["eigen", "--route", "rwa", "--delta0", "-186", "--gamma-c", "93"],
    "eigen_rwa_zero": ["eigen", "--route", "rwa", "--delta0", "0", "--gamma-c", "93"],
    "eigen_sweep_static": ["eigen", "--sweep-delta0", "2900:3200:1", "--omega-b", "3000",
                           "--n1", "1", "--route", "static"],
    "eigen_sweep_rwa": ["eigen", "--sweep-delta0", "2900:3200:1", "--omega-b", "3000",
                        "--n1", "1", "--route", "rwa"],
    "eigen_static_through_ep": ["eigen", "--sweep-delta0", "0:400:2", "--gamma-c", "93",
                                "--static"],
    "eigen_rwa_red": ["eigen", "--sweep-delta0", "2900:3400:1", "--delta0", "-3000",
                      "--route", "rwa", "--truncation-m", "5"] + COUPLED,
    "eigen_rwa_blue": ["eigen", "--sweep-delta0", "2900:3400:1", "--delta0", "3000",
                       "--route", "rwa", "--truncation-m", "5"] + COUPLED,
    "ep_closed_form": ["ep", "--route", "closed-form", "--n", "1", "--delta0", "-3050",
                       "--gamma12", "20", "--truncation-m", "5"] + COUPLED,
    "ep_closed_form_prescribed": ["ep", "--route", "closed-form", "--n", "1", "--gamma-eff", "30",
                                  "--gamma-c", "93", "--omega-b", "3000", "--n1", "1"],
    "phase_diagram": ["phase-diagram", "--sweep-delta0", "2900:3200:5",
                      "--sweep-omega-b", "2800:3200:50", "--n", "1"] + COUPLED,
    "phase_diagram_n2": ["phase-diagram", "--sweep-delta0", "5900:6200:5",
                         "--sweep-omega-b", "2900:3100:25", "--n", "2", "--gamma-c", "93",
                         "--delta-b", "4300", "--n1", "2", "--resolution", "3"],
}


def _outputs(out: Path) -> dict[str, bytes]:
    return {
        f.name: f.read_bytes()
        for f in sorted(out.iterdir())
        if not f.name.endswith("_manifest.json")
    }


def _run(case: str, out: Path) -> dict[str, bytes]:
    assert main(CASES[case] + ["--out", str(out)]) == 0
    return _outputs(out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path):
    expected = _outputs(DATA / case)
    assert expected, f"no recorded outputs for {case}"
    got = _run(case, tmp_path)
    assert sorted(got) == sorted(expected)
    for name, body in expected.items():
        assert got[name] == body, f"{case}/{name} differs from the recorded output"


if __name__ == "__main__":
    for name in sorted(CASES):
        target = DATA / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        _run(name, target)
        for manifest in target.glob("*_manifest.json"):
            manifest.unlink()
        print(f"recorded {name}", file=sys.stderr)
