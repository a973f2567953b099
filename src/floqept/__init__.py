"""floqept: two periodically driven, dissipatively coupled spin-wave modes.

Eigenvalue branches (static and band-pair closed forms, exact monodromy),
harmonic-balance spectra, peak/separation/beat observables and
exceptional-point analysis, all in plain Hz units.
"""

from .params import GridSpec, ModelParams, SimConfig, ValidationReport, validate
from .engine import (
    Branches,
    EngineError,
    LabFrameModel,
    QuasiEnergySet,
    SingularSteadyStateError,
    coupling_rate,
    effective_coupling,
    floquet_eigenvalues,
    monodromy_quasienergies,
    quasienergy_gap,
    static_eigenvalues,
    steady_state_grid,
    steady_state_response,
)
from .observables import (
    BeatMeasurement,
    Peak,
    PeakSet,
    SeparationPoint,
    SpectrumTrace,
    beat_frequency,
    detect_peaks,
    separation_curve,
    synthesize_spectrum,
)
from .analysis import (
    BracketError,
    EpResult,
    GammaCurve,
    fit_sideband_heights,
    gamma_curve,
    harvest_sideband_heights,
    locate_ep,
    phase_diagram,
    solve_modulation_depth,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ModelParams",
    "SimConfig",
    "ValidationReport",
    "validate",
    "Branches",
    "EngineError",
    "LabFrameModel",
    "QuasiEnergySet",
    "SingularSteadyStateError",
    "coupling_rate",
    "effective_coupling",
    "floquet_eigenvalues",
    "monodromy_quasienergies",
    "quasienergy_gap",
    "static_eigenvalues",
    "steady_state_grid",
    "steady_state_response",
    "BeatMeasurement",
    "Peak",
    "PeakSet",
    "SeparationPoint",
    "SpectrumTrace",
    "beat_frequency",
    "detect_peaks",
    "separation_curve",
    "synthesize_spectrum",
    "BracketError",
    "EpResult",
    "GammaCurve",
    "fit_sideband_heights",
    "gamma_curve",
    "harvest_sideband_heights",
    "locate_ep",
    "phase_diagram",
    "solve_modulation_depth",
    "__version__",
]
