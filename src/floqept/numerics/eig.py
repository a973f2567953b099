"""Dense complex eigendecomposition for small matrices.

Backed by LAPACK through numpy; this module pins the package-wide ordering
convention (descending real part, ties broken by descending imaginary part)
so branch labels are reproducible everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EigenPair", "eig_small", "order_eigenvalues"]

MAX_DIM = 64
_TIE_REL = 1e-8


def order_eigenvalues(values, tie_tol: float | None = None) -> np.ndarray:
    """Indices sorting eigenvalues by the global branch convention.

    Descending real part; real parts closer than ``tie_tol`` count as ties
    and are broken by descending imaginary part.  ``tie_tol`` defaults to
    ``1e-8`` relative to the spectrum scale; callers whose values carry a
    larger error pass that error.
    """
    values = np.asarray(values, dtype=complex)
    if tie_tol is None:
        scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
        tie_tol = _TIE_REL * scale
    # quantize real parts onto a tie-tolerant ladder, then lexsort
    re = values.real.copy()
    order = np.argsort(-re, kind="stable")
    groups = np.zeros(values.size, dtype=int)
    gid = 0
    for pos in range(1, values.size):
        if re[order[pos - 1]] - re[order[pos]] > tie_tol:
            gid += 1
        groups[order[pos]] = gid
    idx = np.lexsort((-values.imag, groups))
    return idx


@dataclass
class EigenPair:
    """Eigenvalues (ordered by the branch convention) and unit eigenvectors."""

    values: np.ndarray  # shape (d,), complex
    vectors: np.ndarray  # shape (d, d), columns matching values

    def residuals(self, h: np.ndarray) -> np.ndarray:
        """Per-pair residual norms ``|| H v - nu v ||``."""
        h = np.asarray(h, dtype=complex)
        r = h @ self.vectors - self.vectors * self.values[None, :]
        return np.linalg.norm(r, axis=0)


def eig_small(h) -> EigenPair:
    """Eigendecomposition of a square complex matrix, dims <= 64.

    Eigenvectors are normalized to unit Euclidean norm; the pair satisfies
    ``||H v - nu v|| <= 1e-9 * ||H||`` componentwise (LAPACK-backed).

    Raises
    ------
    ValueError
        For non-square input or dimensions above 64.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {h.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    values, vectors = np.linalg.eig(h)
    idx = order_eigenvalues(values)
    values = values[idx]
    vectors = vectors[:, idx]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    return EigenPair(values=values, vectors=vectors)
