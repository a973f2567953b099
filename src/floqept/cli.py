"""Command-line front end.

Subcommands map one-to-one onto the engine and analysis operations:
``eigen``, ``spectrum``, ``separation``, ``beat``, ``ep``, ``gamma-curve``,
``fit``, ``phase-diagram`` and ``validate``.  Each compute command writes
one primary CSV plus a JSON summary and a manifest sidecar into ``--out``.

Parameters resolve in three layers: package defaults, then a flat
``key = value`` config file (``--config`` or the ``FLOQEPT_CONFIG``
environment variable), then explicit flags.  Range arguments
(``START:STOP:STEP``, ``LO:HI``) are checked while the command line is
parsed, so a malformed one exits 2 before anything runs.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    BracketError,
    ROUTES,
    fit_sideband_heights,
    gamma_curve,
    locate_ep,
    phase_diagram,
)
from .engine import (
    EngineError,
    coupling_rate,
    floquet_eigenvalues,
    monodromy_quasienergies,
    phase_tag,
    quasienergy_rate,
    static_eigenvalues,
)
from .io import RunManifest, fmt, read_xy_csv, write_csv, write_json
from .numerics.integrate import StiffnessError
from .observables import beat_frequency, detect_peaks, separation_curve, synthesize_spectrum
from .params import (
    _CFG_FIELDS,
    _PARAM_FIELDS,
    GridSpec,
    ModelParams,
    SimConfig,
    load_config_file,
    params_from_mapping,
    validate,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# solver settings with a flag of their own; the grid has one START:STOP:STEP flag
_CFG_FLAGS = {k: typ for k, typ in _CFG_FIELDS.items() if not k.startswith("grid_")}


# ---------------------------------------------------------------------------
# argument types: each string is parsed and checked once, by argparse
# ---------------------------------------------------------------------------


def _numbers(text: str, form: str) -> list[float]:
    """The finite numbers of a colon-separated argument shaped like ``form``."""
    try:
        parts = [float(v) for v in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) != len(form.split(":")) or not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"expected finite {form}, got {text!r}")
    return parts


def _sweep(text: str) -> np.ndarray:
    """``START:STOP:STEP`` as the points ``start + k*step`` up to ``stop``."""
    a, b, s = _numbers(text, "START:STOP:STEP")
    if not (s > 0 and a <= b and math.isfinite((b - a) / s)):
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: need start <= stop and step > 0")
    return GridSpec(a, b, s).points()


def _grid(text: str) -> GridSpec:
    sweep = _sweep(text)
    if sweep.size < 2:
        raise argparse.ArgumentTypeError(f"grid {text!r} needs at least two points")
    return GridSpec(float(sweep[0]), float(sweep[-1]), float(sweep[1] - sweep[0]))


def _positive(text: str) -> float:
    (value,) = _numbers(text, "NUMBER")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    (value,) = _numbers(text, "NUMBER")
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _order(text: str) -> int:
    """A band or Bessel order: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _bracket(text: str) -> tuple[float, float]:
    lo, hi = _numbers(text, "LO:HI")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"bad bracket {text!r}: need lo < hi")
    return lo, hi


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _resolve(args) -> tuple[ModelParams, SimConfig]:
    try:
        path = args.config or os.environ.get("FLOQEPT_CONFIG")
        params, cfg = params_from_mapping(load_config_file(path) if path else {})
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(_fail(EXIT_VALIDATION, f"bad configuration: {exc}"))
    given = {k: v for k, v in vars(args).items() if v is not None}
    params = params.but(**{k: v for k, v in given.items() if k in _PARAM_FIELDS})
    cfg = cfg.but(**{k: v for k, v in given.items() if k in _CFG_FLAGS or k == "grid"})
    return params, cfg


def _run(args, argv: list) -> int:
    """Resolve and validate the parameters, run the command body, write its outputs.

    A body returns ``(header, columns, summary)``; the runner writes
    ``<name>.csv`` and ``<name>_summary.json`` (hyphens as underscores)
    and the ``<command>_manifest.json`` sidecar.  ``validate`` has no body:
    it prints the report and stops.
    """
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    report = validate(params, cfg)
    if args.body is None:
        print(str(report))
        return EXIT_OK if report.ok else EXIT_VALIDATION
    if not report.ok:
        raise SystemExit(_fail(EXIT_VALIDATION, f"invalid parameters:\n{report}"))
    ws = getattr(args, "sweep_omega_b", None)
    if ws is not None and args.command == "gamma-curve" and ws.size < 2:
        raise SystemExit(_fail(EXIT_VALIDATION,
                               f"gamma-curve needs at least 2 drive frequencies, got {ws.size}"))
    # validate() bounds omega_b from below only, so an ascending sweep first fails at its start
    if ws is not None and not (low := validate(params.but(omega_b=float(ws[0])))).ok:
        raise SystemExit(_fail(EXIT_VALIDATION, f"invalid swept omega_b = {ws[0]:g} Hz:\n{low}"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header, columns, summary = args.body(args, params, cfg)
    stem = args.command.replace("-", "_")
    csv_path = out / f"{stem}.csv"
    write_csv(csv_path, header, columns)
    write_json(out / f"{stem}_summary.json", summary)
    manifest = RunManifest(
        subcommand=args.command,
        params=params,
        cfg=cfg,
        outputs=[csv_path],
        tool_version=__version__,
        duration_s=time.perf_counter() - t0,
        argv=argv,
    )
    manifest.write(out / f"{args.command}_manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# command bodies: (args, params, cfg) -> (header, columns, summary)
# ---------------------------------------------------------------------------


def _eigen(args, params, cfg):
    routes = ("static", "rwa", "monodromy") if args.route == "all" else (args.route,)
    gamma_eff = coupling_rate(params)
    sweep = [abs(params.delta0)] if args.sweep_delta0 is None else args.sweep_delta0
    # every monodromy point of the sweep in one batched integration
    mono = monodromy_quasienergies(params, cfg, sweep) if "monodromy" in routes else None
    rows = []
    for i, d0_abs in enumerate(sweep):
        p = params.at_detuning(d0_abs)
        for route in routes:
            if route == "monodromy":
                q = mono[i]
                values, tag = q.values, phase_tag(p.mismatch, quasienergy_rate(q, p.mismatch))
            else:
                b = (static_eigenvalues(p.delta0, p.gamma_c) if route == "static"
                     else floquet_eigenvalues(p.delta0, p.omega_b, p.n, gamma_eff))
                values, tag = b.values, b.tag
            nu_p, nu_m = values
            rows.append((d0_abs, route, nu_p.real, nu_p.imag, nu_m.real, nu_m.imag, tag))
    header = ["delta0_abs", "route", "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus",
              "phase_tag"]
    return header, list(zip(*rows)), {"rows": len(rows), "routes": list(routes)}


def _spectrum(args, params, cfg):
    probed = {"ch1": (1,), "ch2": (2,), "both": (1, 2)}[args.probe]
    trace = synthesize_spectrum(params, cfg, probed_channels=probed, amplitude=args.amplitude)
    peaks = {}
    for ch in (1, 2):
        top = trace.powers[ch].max()
        # an identically zero curve (an uncoupled channel read under the other probe) has no peaks
        found = (detect_peaks(trace, prominence=args.prominence_rel * top, channel=ch)
                 if top > 0 else [])
        peaks[f"ch{ch}"] = [
            {"center_hz": p.center, "height": p.height, "fwhm_hz": p.fwhm, "sideband": p.sideband}
            for p in found
        ]
    columns = (trace.grid, trace.powers[1], trace.powers[2])
    return ["delta_hz", "power_ch1", "power_ch2"], columns, {"peaks": peaks, "probed": list(probed)}


def _separation(args, params, cfg):
    points = separation_curve(params, args.sweep_delta0, cfg)
    rows = [(p.delta0_abs, p.separation, p.merged, p.eigen_separation) for p in points]
    threshold = next((p.delta0_abs for p in points if not p.merged), None)
    summary = {"first_split_delta0_abs": threshold, "points": len(points)}
    header = ["delta0_abs", "separation_hz", "merged", "eigen_separation_hz"]
    return header, list(zip(*rows)), summary


def _beat(args, params, cfg):
    meas = beat_frequency(params, cfg)
    header = ["beat_hz", "amplitude", "confidence", "found"]
    row = (meas.frequency, meas.amplitude, meas.confidence, meas.found)
    return header, list(zip(row)), dict(zip(header, row), mismatch_hz=abs(params.mismatch))


def _ep(args, params, cfg):
    if args.gamma_eff is not None and args.route != "closed-form":
        raise SystemExit(_fail(EXIT_VALIDATION,
                               f"--gamma-eff applies to --route closed-form only, not {args.route}"))
    n = params.n if args.n is None else args.n
    if n < 0:
        raise SystemExit(_fail(EXIT_VALIDATION, f"ep needs band order n = n1 - n2 >= 0, got {n}"))
    result = locate_ep(params, n, args.route, cfg, bracket=args.bracket,
                       gamma_eff=args.gamma_eff)
    header = ["route", "delta0_star_abs", "mu_star_hz", "gamma_eff_hz", "iterations"]
    row = (result.route, result.delta0_star, result.mismatch_star, result.gamma_eff,
           result.iterations)
    return header, list(zip(row)), dict(zip(header, row), bracket=list(result.bracket))


def _gamma_curve(args, params, cfg):
    curve = gamma_curve(params, args.sweep_omega_b, cfg)
    if not curve.ok:
        raise SystemExit(_fail(EXIT_NUMERICAL, f"numerical failure: fit rejected: {curve.message}"))
    columns = (curve.omega_b, curve.gamma_eff, curve.fitted())
    summary = {
        "gamma_c_fit_hz": curve.gamma_c_fit,
        "delta_b_fit_hz": curve.delta_b_fit,
        "residual_norm": curve.residual_norm,
        "ok": curve.ok,
        "message": curve.message,
    }
    return ["omega_b_hz", "gamma_eff_hz", "gamma_eff_fit_hz"], columns, summary


def _fit(args, params, cfg):
    try:
        xs, ys = read_xy_csv(args.input, "omega_b", "height")
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read {args.input}: {exc}"))
    result = fit_sideband_heights(list(zip(xs, ys)), args.m)
    alpha, k_hz = (float(v) for v in result.parameters)
    header = ["alpha", "k_hz", "residual_norm", "converged", "iterations"]
    row = (alpha, k_hz, result.residual_norm, result.converged, result.iterations)
    summary = {
        "model": args.model,
        "m": args.m,
        "alpha": alpha,
        "k_hz": k_hz,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
        "message": result.message,
    }
    return header, list(zip(row)), summary


def _phase_diagram(args, params, cfg):
    d0s, ws = args.sweep_delta0, args.sweep_omega_b
    grid = phase_diagram(params, d0s, ws, args.n, resolution=args.resolution)
    names = ("unbroken", "ep-band", "broken")
    codes = [fmt(k) for k in range(len(names))]
    phases = grid.ravel().tolist()  # row-major: delta0 outer, omega_b inner
    # each axis value and each phase is formatted once; the cells repeat those strings
    columns = ([cell for cell in map(fmt, d0s) for _ in ws], list(map(fmt, ws)) * len(d0s),
               list(map(codes.__getitem__, phases)), list(map(names.__getitem__, phases)))
    counts = {names[k]: int(np.sum(grid == k)) for k in (0, 1, 2)}
    return ["delta0_abs", "omega_b_hz", "phase", "phase_tag"], columns, {"cells": counts}


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_SWEEP = {"type": _sweep, "metavar": "A:B:STEP"}

# name -> (help, body, options beyond the shared flags)
_COMMANDS = {
    "validate": ("check parameters and exit", None, {}),
    "eigen": ("eigenvalue branches (static, RWA, monodromy)", _eigen, {
        "--route": {"choices": ("static", "rwa", "monodromy", "all"), "default": "static"},
        "--static": {"dest": "route", "action": "store_const", "const": "static",
                     "help": "shorthand for --route static"},
        "--sweep-delta0": {**_SWEEP, "help": "|delta0| sweep, Hz"},
    }),
    "spectrum": ("synthesized response spectra", _spectrum, {
        "--probe": {"choices": ("ch1", "ch2", "both"), "default": "both"},
        "--amplitude": {"type": _positive, "default": 1.0},
        "--prominence-rel": {"type": _positive, "default": 0.02},
    }),
    "separation": ("EIT peak separation vs |delta0|", _separation, {
        "--sweep-delta0": {**_SWEEP, "required": True},
    }),
    "beat": ("beat note of the coupled dynamics", _beat, {}),
    "ep": ("locate the exceptional point", _ep, {
        "--route": {"choices": ROUTES, "default": "closed-form"},
        "--n": {"type": _order, "help": "band order >= 0 (default: n1-n2)"},
        "--gamma-eff": {"type": _nonnegative, "help": "prescribed coupling rate, Hz (closed-form route)"},
        "--bracket": {"type": _bracket, "metavar": "LO:HI", "help": "|delta0| bracket, Hz"},
    }),
    "gamma-curve": ("EP-extracted coupling rate vs drive frequency", _gamma_curve, {
        "--sweep-omega-b": {**_SWEEP, "required": True},
    }),
    "fit": ("fit sideband heights to Bessel weights", _fit, {
        "--model": {"choices": ("bessel-heights",), "default": "bessel-heights"},
        "--m": {"type": _order, "required": True, "help": "Bessel order >= 0"},
        "--input": {"required": True, "help": "CSV with omega_b and height columns"},
    }),
    "phase-diagram": ("symmetry phase over (|delta0|, omega_b)", _phase_diagram, {
        "--sweep-delta0": {**_SWEEP, "required": True},
        "--sweep-omega-b": {**_SWEEP, "required": True},
        "--n": {"type": _order, "required": True, "help": "band order >= 0"},
        "--resolution": {"type": _positive, "default": 1.0},
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="floqept",
        description="Floquet dissipative coupling toolkit: eigenvalue branches, "
        "spectra, beat notes and exceptional-point analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, body, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(body=body)
        p.add_argument("--config", help="flat key=value parameter file (default: $FLOQEPT_CONFIG)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        for field, typ in {**_PARAM_FIELDS, **_CFG_FLAGS}.items():
            p.add_argument(f"--{field.replace('_', '-')}", type=typ)
        p.add_argument("--grid", type=_grid, metavar="START:STOP:STEP",
                       help="probe-detuning grid, Hz (use --grid=-A:B:S for negative starts)")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except SystemExit:
        raise
    except (EngineError, BracketError, StiffnessError, np.linalg.LinAlgError, ValueError) as exc:
        return _fail(EXIT_NUMERICAL, f"numerical failure: {exc}")
    except MemoryError as exc:
        return _fail(EXIT_NUMERICAL,
                     f"numerical failure: out of memory: {str(exc) or 'allocation failed'}")
    except OSError as exc:
        return _fail(EXIT_IO, f"I/O failure: {exc}")


if __name__ == "__main__":
    sys.exit(main())
