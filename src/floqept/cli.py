"""Command-line front end.

Subcommands map one-to-one onto the engine and analysis operations:
``eigen``, ``spectrum``, ``separation``, ``beat``, ``ep``, ``gamma-curve``,
``fit``, ``phase-diagram`` and ``validate``.  Each writes one primary CSV
plus a JSON summary and a manifest sidecar into ``--out``.

Parameters resolve in three layers: package defaults, then a flat
``key = value`` config file (``--config`` or the ``FLOQEPT_CONFIG``
environment variable), then explicit flags.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
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
    effective_coupling,
    monodromy_quasienergies,
    quasienergy_gap,
    rwa_model,
    static_eigenvalues,
)
from .io import RunManifest, read_xy_csv, write_csv, write_json
from .numerics.integrate import StiffnessError
from .observables import beat_frequency, detect_peaks, separation_curve, synthesize_spectrum
from .params import GridSpec, ModelParams, SimConfig, load_config_file, params_from_mapping, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_PARAM_FLAGS = {
    "delta0": float,
    "gamma_c": float,
    "gamma12": float,
    "delta_b": float,
    "omega_b": float,
    "delta_zeeman0": float,
    "stark_shift": float,
    "n1": int,
    "n2": int,
}
_CFG_FLAGS = {
    "truncation_m": int,
    "rel_tol": float,
    "abs_tol": float,
    "sim_duration": float,
}


def _parse_sweep(text: str) -> np.ndarray:
    try:
        a, b, s = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}") from exc
    if s <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad sweep {text!r}: need start <= stop and step > 0")
    count = int(np.floor((b - a) / s + 0.5)) + 1
    return a + s * np.arange(count)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value parameter file (default: $FLOQEPT_CONFIG)")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (sweeps run serially)")
    for name, typ in _PARAM_FLAGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None, dest=name)
    for name, typ in _CFG_FLAGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None, dest=name)
    p.add_argument("--grid", default=None, metavar="START:STOP:STEP",
                   help="probe-detuning grid, Hz (use --grid=-A:B:S for negative starts)")


def _resolve(args) -> tuple[ModelParams, SimConfig]:
    try:
        raw = {}
        path = args.config or os.environ.get("FLOQEPT_CONFIG")
        if path:
            raw.update(load_config_file(path))
        params, cfg = params_from_mapping(raw)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(_fail(EXIT_VALIDATION, f"bad configuration: {exc}"))
    pkw = {k: getattr(args, k) for k in _PARAM_FLAGS if getattr(args, k) is not None}
    ckw = {k: getattr(args, k) for k in _CFG_FLAGS if getattr(args, k) is not None}
    if pkw:
        params = params.but(**pkw)
    if ckw:
        cfg = cfg.but(**ckw)
    if args.grid:
        sweep = _parse_sweep(args.grid)
        if sweep.size < 2:
            raise SystemExit(_fail(EXIT_VALIDATION, "--grid needs at least two points"))
        cfg = cfg.but(grid=GridSpec(float(sweep[0]), float(sweep[-1]), float(sweep[1] - sweep[0])))
    return params, cfg


def _check(params, cfg) -> None:
    report = validate(params, cfg)
    if not report.ok:
        raise SystemExit(_fail(EXIT_VALIDATION, f"invalid parameters:\n{report}"))


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _finish(args, name, params, cfg, outputs, t0) -> int:
    manifest = RunManifest(
        subcommand=name,
        params=params,
        cfg=cfg,
        outputs=outputs,
        tool_version=__version__,
        duration_s=time.perf_counter() - t0,
        argv=sys.argv[1:],
    )
    manifest.write(Path(args.out) / f"{name}_manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    params, cfg = _resolve(args)
    report = validate(params, cfg)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_eigen(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d0_values = _parse_sweep(args.sweep_delta0) if args.sweep_delta0 else [abs(params.delta0)]
    routes = ("static", "rwa", "monodromy") if args.route == "all" else (args.route,)
    sign = -1.0 if params.delta0 <= 0 else 1.0

    def one(d0_abs):
        rows = []
        p = params.but(delta0=sign * d0_abs)
        for route in routes:
            if route == "static":
                b = static_eigenvalues(p.delta0, p.gamma_c)
                nu_p, nu_m, tag = b.nu_plus, b.nu_minus, b.tag
            elif route == "rwa":
                b = rwa_model(p).branches()
                nu_p, nu_m, tag = b.nu_plus, b.nu_minus, b.tag
            else:
                q = monodromy_quasienergies(p, cfg)
                nu_p, nu_m = q.values
                tag = "broken" if quasienergy_gap(q) > 1.0 else "unbroken"
            rows.append(
                (d0_abs, route, nu_p.real, nu_p.imag, nu_m.real, nu_m.imag, tag)
            )
        return rows

    rows = [r for d0_abs in d0_values for r in one(d0_abs)]
    csv_path = out / "eigen.csv"
    write_csv(
        csv_path,
        ["delta0_abs", "route", "re_nu_plus", "im_nu_plus", "re_nu_minus", "im_nu_minus", "phase_tag"],
        rows,
    )
    write_json(out / "eigen_summary.json", {"rows": len(rows), "routes": list(routes)})
    return _finish(args, "eigen", params, cfg, [csv_path], t0)


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probed = {"ch1": (1,), "ch2": (2,), "both": (1, 2)}[args.probe]
    trace = synthesize_spectrum(params, cfg, probed_channels=probed, amplitude=args.amplitude)
    csv_path = out / "spectrum.csv"
    write_csv(
        csv_path,
        ["delta_hz", "power_ch1", "power_ch2"],
        zip(trace.grid, trace.powers[1], trace.powers[2]),
    )
    peaks = {}
    for ch in (1, 2):
        found = detect_peaks(trace, prominence=args.prominence_rel * trace.powers[ch].max(), channel=ch)
        peaks[f"ch{ch}"] = [
            {"center_hz": p.center, "height": p.height, "fwhm_hz": p.fwhm, "sideband": p.sideband}
            for p in found
        ]
    write_json(out / "spectrum_summary.json", {"peaks": peaks, "probed": list(probed)})
    return _finish(args, "spectrum", params, cfg, [csv_path], t0)


def cmd_separation(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d0_values = _parse_sweep(args.sweep_delta0)
    points = separation_curve(params, d0_values, cfg)
    csv_path = out / "separation.csv"
    write_csv(
        csv_path,
        ["delta0_abs", "separation_hz", "merged", "eigen_separation_hz"],
        ((p.delta0_abs, p.separation, p.merged, p.eigen_separation) for p in points),
    )
    threshold = next((p.delta0_abs for p in points if not p.merged), None)
    write_json(
        out / "separation_summary.json",
        {"first_split_delta0_abs": threshold, "points": len(points)},
    )
    return _finish(args, "separation", params, cfg, [csv_path], t0)


def cmd_beat(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meas = beat_frequency(params, cfg)
    csv_path = out / "beat.csv"
    write_csv(
        csv_path,
        ["beat_hz", "amplitude", "confidence", "found"],
        [(meas.frequency, meas.amplitude, meas.confidence, meas.found)],
    )
    write_json(
        out / "beat_summary.json",
        {
            "beat_hz": meas.frequency,
            "amplitude": meas.amplitude,
            "confidence": meas.confidence,
            "found": meas.found,
            "mismatch_hz": abs(params.mismatch),
        },
    )
    return _finish(args, "beat", params, cfg, [csv_path], t0)


def cmd_ep(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bracket = None
    if args.bracket:
        lo, hi = (float(v) for v in args.bracket.split(":"))
        bracket = (lo, hi)
    result = locate_ep(params, args.n, args.route, cfg, bracket=bracket, gamma_eff=args.gamma_eff)
    csv_path = out / "ep.csv"
    write_csv(
        csv_path,
        ["route", "delta0_star_abs", "mu_star_hz", "gamma_eff_hz", "iterations"],
        [(result.route, result.delta0_star, result.mismatch_star, result.gamma_eff, result.iterations)],
    )
    write_json(
        out / "ep_summary.json",
        {
            "route": result.route,
            "delta0_star_abs": result.delta0_star,
            "mu_star_hz": result.mismatch_star,
            "gamma_eff_hz": result.gamma_eff,
            "bracket": list(result.bracket),
            "iterations": result.iterations,
        },
    )
    return _finish(args, "ep", params, cfg, [csv_path], t0)


def cmd_gamma_curve(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    omegas = _parse_sweep(args.sweep_omega_b)
    curve = gamma_curve(params, omegas, cfg)
    csv_path = out / "gamma_curve.csv"
    rows = []
    for w, g in zip(curve.omega_b, curve.gamma_eff):
        model_val = (
            effective_coupling(curve.gamma_c_fit, curve.delta_b_fit, w, 0, 1)
            if curve.ok
            else float("nan")
        )
        rows.append((w, g, model_val))
    write_csv(csv_path, ["omega_b_hz", "gamma_eff_hz", "gamma_eff_fit_hz"], rows)
    write_json(
        out / "gamma_curve_summary.json",
        {
            "gamma_c_fit_hz": curve.gamma_c_fit,
            "delta_b_fit_hz": curve.delta_b_fit,
            "residual_norm": curve.residual_norm,
            "ok": curve.ok,
            "message": curve.message,
        },
    )
    return _finish(args, "gamma-curve", params, cfg, [csv_path], t0)


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.model != "bessel-heights":
        raise SystemExit(_fail(EXIT_VALIDATION, f"unknown fit model {args.model!r}"))
    try:
        xs, ys = read_xy_csv(args.input, "omega_b", "height")
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read {args.input}: {exc}"))
    result = fit_sideband_heights(list(zip(xs, ys)), args.m)
    csv_path = out / "fit.csv"
    write_csv(
        csv_path,
        ["alpha", "k_hz", "residual_norm", "converged", "iterations"],
        [(result.parameters[0], result.parameters[1], result.residual_norm,
          result.converged, result.iterations)],
    )
    write_json(
        out / "fit_summary.json",
        {
            "model": args.model,
            "m": args.m,
            "alpha": float(result.parameters[0]),
            "k_hz": float(result.parameters[1]),
            "residual_norm": result.residual_norm,
            "converged": result.converged,
            "message": result.message,
        },
    )
    return _finish(args, "fit", params, cfg, [csv_path], t0)


def cmd_phase_diagram(args) -> int:
    t0 = time.perf_counter()
    params, cfg = _resolve(args)
    _check(params, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d0s = _parse_sweep(args.sweep_delta0)
    ws = _parse_sweep(args.sweep_omega_b)
    grid = phase_diagram(params, d0s, ws, args.n, resolution=args.resolution)
    names = {0: "unbroken", 1: "ep-band", 2: "broken"}
    csv_path = out / "phase_diagram.csv"
    rows = (
        (d0, w, int(grid[i, j]), names[int(grid[i, j])])
        for i, d0 in enumerate(d0s)
        for j, w in enumerate(ws)
    )
    write_csv(csv_path, ["delta0_abs", "omega_b_hz", "phase", "phase_tag"], rows)
    counts = {names[k]: int(np.sum(grid == k)) for k in (0, 1, 2)}
    write_json(out / "phase_diagram_summary.json", {"cells": counts})
    return _finish(args, "phase-diagram", params, cfg, [csv_path], t0)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqept",
        description="Floquet dissipative coupling toolkit: eigenvalue branches, "
        "spectra, beat notes and exceptional-point analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check parameters and exit")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eigen", help="eigenvalue branches (static, RWA, monodromy)")
    _add_common(p)
    p.add_argument("--route", choices=("static", "rwa", "monodromy", "all"), default="static")
    p.add_argument("--static", dest="route", action="store_const", const="static",
                   help="shorthand for --route static")
    p.add_argument("--sweep-delta0", default=None, metavar="A:B:STEP", help="|delta0| sweep, Hz")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("spectrum", help="synthesized response spectra")
    _add_common(p)
    p.add_argument("--probe", choices=("ch1", "ch2", "both"), default="both")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--prominence-rel", type=float, default=0.02)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("separation", help="EIT peak separation vs |delta0|")
    _add_common(p)
    p.add_argument("--sweep-delta0", required=True, metavar="A:B:STEP")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("beat", help="beat note of the coupled dynamics")
    _add_common(p)
    p.set_defaults(func=cmd_beat)

    p = sub.add_parser("ep", help="locate the exceptional point")
    _add_common(p)
    p.add_argument("--route", choices=ROUTES, default="closed-form")
    p.add_argument("--n", type=int, default=None, help="band order (default: n1-n2)")
    p.add_argument("--gamma-eff", type=float, default=None,
                   help="prescribe the coupling rate (closed-form route)")
    p.add_argument("--bracket", default=None, metavar="LO:HI", help="|delta0| bracket, Hz")
    p.set_defaults(func=cmd_ep)

    p = sub.add_parser("gamma-curve", help="EP-extracted coupling rate vs drive frequency")
    _add_common(p)
    p.add_argument("--sweep-omega-b", required=True, metavar="A:B:STEP")
    p.set_defaults(func=cmd_gamma_curve)

    p = sub.add_parser("fit", help="fit sideband heights to Bessel weights")
    _add_common(p)
    p.add_argument("--model", default="bessel-heights")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", required=True, help="CSV with omega_b and height columns")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("phase-diagram", help="symmetry phase over (|delta0|, omega_b)")
    _add_common(p)
    p.add_argument("--sweep-delta0", required=True, metavar="A:B:STEP")
    p.add_argument("--sweep-omega-b", required=True, metavar="A:B:STEP")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--resolution", type=float, default=1.0)
    p.set_defaults(func=cmd_phase_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (EngineError, BracketError, StiffnessError, np.linalg.LinAlgError, ValueError) as exc:
        return _fail(EXIT_NUMERICAL, f"numerical failure: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, f"I/O failure: {exc}")


if __name__ == "__main__":
    sys.exit(main())
