"""Self-contained numerical kernels: Bessel functions, complex eigenproblems,
adaptive Runge-Kutta integration, spectral projection (single frequency and
chirp z-transform scan) and Levenberg-Marquardt least squares."""

from .bessel import bessel_j
from .eig import EigenPair, eig_small
from .integrate import StiffnessError, Trajectory, integrate_linear
from .spectral import refine_scan, spectral_amplitude
from .fit import FitResult, lm_fit

__all__ = [
    "bessel_j",
    "EigenPair",
    "eig_small",
    "StiffnessError",
    "Trajectory",
    "integrate_linear",
    "spectral_amplitude",
    "refine_scan",
    "FitResult",
    "lm_fit",
]
