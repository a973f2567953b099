"""Physical model parameters, simulation configuration and validation.

Unit conventions
----------------
All rates, detunings and frequencies are plain frequencies in Hz.  Time is
measured in seconds, and every time-domain phase in the package evolves as
``exp(-i 2 pi nu t)`` with ``nu`` in Hz, so no stray 2*pi factors appear in
the algebraic model equations.

Sign conventions
----------------
``delta0`` keeps its experimental sign internally (red detuning is
negative).  User-facing reports use ``abs(delta0)`` and the mismatch
``mu = abs(delta0) - n*omega_b`` with ``n = n1 - n2``.  ``n`` may be
negative (``n1 < n2``): the coupling rate uses ``|J_-m| = |J_m|``, so a
negative ``n`` only flips the sign of the sideband offset ``n*omega_b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "ModelParams",
    "GridSpec",
    "SimConfig",
    "ValidationReport",
    "validate",
    "load_config_file",
    "params_from_mapping",
]


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of every physical parameter of the two-mode model.

    Attributes
    ----------
    delta0 : float
        Signed difference of single-photon control detunings between the two
        channels, Hz.  Negative in the red-detuned experimental convention.
    gamma_c : float
        Bare dissipative coupling rate between the channels, Hz, >= 0.
    gamma12 : float
        Common spin-wave decay rate, Hz, >= 0.  Enters all eigenvalue
        branches as a rigid -i*gamma12 shift only.
    delta_b : float
        Zeeman modulation depth, Hz, >= 0.
    omega_b : float
        Modulation frequency, Hz, > 0.
    delta_zeeman0 : float
        Static common Zeeman shift, Hz.  Common-mode: stored for provenance
        and applied only as a global frame shift, never entering the
        two-channel difference dynamics.
    stark_shift : float
        Optional common spectral offset, Hz (default 0).  Shifts both
        channel resonances rigidly; separations and phase classification
        are invariant under it.
    n1, n2 : int
        Floquet band indices of the dissipatively coupled sideband pair, in
        channels 1 and 2.
    """

    delta0: float = 0.0
    gamma_c: float = 0.0
    gamma12: float = 50.0
    delta_b: float = 0.0
    omega_b: float = 3000.0
    delta_zeeman0: float = 17000.0
    stark_shift: float = 0.0
    n1: int = 0
    n2: int = 0

    @property
    def n(self) -> int:
        """Band-index difference ``n1 - n2`` of the coupled sideband pair."""
        return self.n1 - self.n2

    @property
    def n_signed(self) -> int:
        """Signed band offset: ``n`` co-rotating with the sign of delta0."""
        return self.n if self.delta0 >= 0 else -self.n

    @property
    def modulation_index(self) -> float:
        """Dimensionless drive strength ``delta_b / omega_b``."""
        return self.delta_b / self.omega_b

    @property
    def mismatch(self) -> float:
        """``mu = |delta0| - n * omega_b``, the Floquet frame detuning in Hz."""
        return abs(self.delta0) - self.n * self.omega_b

    def at_detuning(self, d0_abs: float) -> "ModelParams":
        """Copy with ``|delta0| = d0_abs`` on the side of ``delta0`` (red when ``delta0 = 0``)."""
        sign = -1.0 if self.delta0 <= 0 else 1.0
        return self.but(delta0=sign * d0_abs)

    def but(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class GridSpec:
    """Uniform probe-detuning sampling: ``start <= delta <= stop`` in Hz."""

    start: float
    stop: float
    step: float

    def points(self):
        import numpy as np

        count = int(math.floor((self.stop - self.start) / self.step + 0.5)) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True)
class SimConfig:
    """Numerical knobs shared by the solvers.

    ``truncation_m`` is the number of Floquet sideband orders kept on each side
    (indices -M..+M) by the dense single-point harmonic-balance solve
    (``engine.steady_state_response``), the reference for the spectra; that
    solve requires ``truncation_m >= ceil(delta_b/omega_b) + 3``.  The
    spectra themselves (``engine.steady_state_grid``) are the exact
    untruncated solution and do not read it, so :func:`validate` does not
    check it.
    """

    truncation_m: int = 6
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    grid: GridSpec = field(default_factory=lambda: GridSpec(-4000.0, 1000.0, 2.0))
    sim_duration: float = 1.0

    def but(self, **changes) -> "SimConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; empty ``violations`` means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"- {v}" for v in self.violations)


def validate(params: ModelParams, cfg: SimConfig | None = None) -> ValidationReport:
    """Check parameters and configuration, returning a report of violations.

    Pure and idempotent: never mutates its inputs, never raises.  Any
    parameter set accepted here is accepted by every downstream operation
    without further parameter errors, except the dense reference solve
    ``engine.steady_state_response``, which checks ``truncation_m`` itself:
    nothing else reads it.  Every float field must be finite.
    """
    floats = {k: getattr(params, k) for k, typ in _PARAM_FIELDS.items() if typ is float}
    if cfg is not None:
        for k, typ in _CFG_FIELDS.items():
            if typ is float:
                owner = cfg.grid if k.startswith("grid_") else cfg
                floats[k] = getattr(owner, k.removeprefix("grid_"))
    bad = [f"{k} must be finite, got {v}" for k, v in floats.items() if not math.isfinite(v)]
    if not params.omega_b > 0:
        bad.append("omega_b must be positive")
    if params.gamma_c < 0:
        bad.append("gamma_c must be >= 0")
    if params.gamma12 < 0:
        bad.append("gamma12 must be >= 0")
    if params.delta_b < 0:
        bad.append("delta_b must be >= 0")
    if params.omega_b > 0 and params.modulation_index > 50.0:
        bad.append("delta_b/omega_b exceeds 50, outside the supported Bessel range")

    if cfg is not None:
        if cfg.grid.step <= 0:
            bad.append("grid step must be positive")
        if not cfg.grid.start < cfg.grid.stop:
            bad.append("grid start must be below grid stop")
        if cfg.rel_tol <= 0 or cfg.abs_tol <= 0:
            bad.append("integrator tolerances must be positive")
        if cfg.sim_duration <= 0:
            bad.append("sim_duration must be positive")

    return ValidationReport(tuple(bad))


_PARAM_FIELDS = {
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

_CFG_FIELDS = {
    "truncation_m": int,
    "rel_tol": float,
    "abs_tol": float,
    "grid_start": float,
    "grid_stop": float,
    "grid_step": float,
    "sim_duration": float,
}


def params_from_mapping(raw: dict) -> tuple[ModelParams, SimConfig]:
    """Build (ModelParams, SimConfig) from a flat string/number mapping.

    Unknown keys raise ``KeyError`` so typos in config files surface early.
    """
    pkw, ckw, grid = {}, {}, {}
    defaults = SimConfig()
    for key, value in raw.items():
        if key in _PARAM_FIELDS:
            pkw[key] = _PARAM_FIELDS[key](value)
        elif key in _CFG_FIELDS:
            if key.startswith("grid_"):
                grid[key.removeprefix("grid_")] = float(value)
            else:
                ckw[key] = _CFG_FIELDS[key](value)
        else:
            raise KeyError(f"unknown configuration key: {key!r}")
    gs = GridSpec(
        grid.get("start", defaults.grid.start),
        grid.get("stop", defaults.grid.stop),
        grid.get("step", defaults.grid.step),
    )
    return ModelParams(**pkw), SimConfig(grid=gs, **ckw)


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` text file into a string mapping.

    Blank lines and ``#`` comments are ignored.  Values stay strings; type
    coercion happens in :func:`params_from_mapping`.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, value = text.split("=", 1)
            out[key.strip()] = value.strip()
    return out
