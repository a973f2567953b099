"""Model Hamiltonians, eigenvalue branches and the harmonic-balance
steady-state solver.

Two independent eigenvalue routes are provided:

* closed forms for the static and Floquet-coupled two-mode systems; the
  Floquet one (:func:`floquet_eigenvalues`) is the rotating-wave result
  for the declared band pair,
* exact monodromy quasi-energies of the lab-frame time-periodic system.

Lab-frame model
---------------
Channel resonances sit at ``d1 = delta0`` and ``d2 = 0`` (plus the common
Stark offset); both channels see the identical Zeeman modulation
``delta_b*cos(2 pi omega_b t)``.  Because that common-mode term is
proportional to the identity it is a pure gauge phase; the Floquet physics
lives in the dissipative coupling, which exchanges coherence between the
declared sideband pair ``(n1, n2)``:

    off-diagonal = i * Gamma_eff * exp(-+ i 2 pi n_s omega_b t),
    Gamma_eff    = |J_n1(x) J_n2(x)| * gamma_c,   x = delta_b / omega_b,

with ``n_s = sign(delta0) * (n1 - n2)`` tracking the red-detuned convention.
At ``delta_b = 0`` and ``n1 = n2 = 0`` this is exactly the static
dissipatively coupled pair.  The traceless part of the generator
anticommutes with (swap o conjugation) at every instant, so the anti-PT
structure of the static model is preserved under drive.

All matrices here are in Hz; time-domain propagation multiplies by 2*pi so
phases evolve as ``exp(-i 2 pi nu t)`` with t in seconds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics.bessel import bessel_j
from .numerics.eig import order_eigenvalues
from .numerics.integrate import integrate_linear
from .params import ModelParams, SimConfig

__all__ = [
    "TWO_PI",
    "EngineError",
    "SingularSteadyStateError",
    "Branches",
    "PHASES",
    "branch_root",
    "classify_phase",
    "static_hamiltonian",
    "static_eigenvalues",
    "band_pair_coupling",
    "effective_coupling",
    "coupling_rate",
    "floquet_eigenvalues",
    "LabFrameModel",
    "QuasiEnergySet",
    "monodromy_quasienergies",
    "quasienergy_gap",
    "is_split",
    "SidebandSolution",
    "steady_state_response",
    "steady_state_grid",
]

TWO_PI = 2.0 * math.pi

PHASES = ("unbroken", "ep", "broken")  # phase tags, indexed by classify_phase codes


class EngineError(RuntimeError):
    """Numerical failure inside the engine (propagated to CLI exit code 3)."""


class SingularSteadyStateError(EngineError):
    """The harmonic-balance system is singular (exact resonance, gamma12=0)."""


@dataclass(frozen=True)
class Branches:
    """An ordered eigenvalue pair with its symmetry-phase tag.

    ``values[0]`` is the branch that is first under the global ordering
    convention (descending real part, ties by descending imaginary part);
    with the principal square root this coincides with the "+" branch of
    the closed forms.
    """

    values: tuple
    tag: str

    @property
    def nu_plus(self) -> complex:
        return self.values[0]

    @property
    def nu_minus(self) -> complex:
        return self.values[1]

    @property
    def separation(self) -> float:
        """Real-part splitting of the two branches, Hz."""
        return abs(self.values[0].real - self.values[1].real)


def branch_root(mismatch, coupling):
    """Principal root ``sqrt(mismatch^2/4 - coupling^2)``, elementwise, complex.

    Every closed form of the model has branches ``center +- branch_root``.
    The principal root has a nonnegative real part, and a nonnegative
    imaginary part where the real part is zero, so the ``+`` branch is
    always first under the global ordering convention.
    """
    mismatch = np.asarray(mismatch, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    return np.sqrt((0.25 * mismatch * mismatch - coupling * coupling).astype(complex))


def classify_phase(mismatch_abs, threshold, ep_band):
    """Phase code, elementwise: an index into :data:`PHASES`.

    1 (EP) where ``|mismatch_abs - threshold| <= ep_band``; otherwise 0
    (unbroken) below the threshold and 2 (broken) at or above it.
    """
    mismatch_abs = np.asarray(mismatch_abs, dtype=float)
    side = np.where(mismatch_abs < threshold, 0, 2)
    return np.where(np.abs(mismatch_abs - threshold) <= ep_band, 1, side)


def _branches(center: float, mismatch: float, coupling: float) -> Branches:
    """``center +- branch_root``, tagged against ``2*coupling`` to 1e-9 relative."""
    root = branch_root(mismatch, coupling)
    threshold = 2.0 * coupling
    code = classify_phase(abs(mismatch), threshold, 1e-9 * max(1.0, threshold))
    return Branches(values=(complex(center + root), complex(center - root)), tag=PHASES[int(code)])


def static_hamiltonian(delta0: float, gamma_c: float, gamma12: float = 0.0) -> np.ndarray:
    """The static two-mode matrix [[delta0, i*gamma_c], [i*gamma_c, 0]] - i*gamma12*I."""
    return np.array(
        [
            [delta0 - 1j * gamma12, 1j * gamma_c],
            [1j * gamma_c, -1j * gamma12],
        ],
        dtype=complex,
    )


def static_eigenvalues(delta0: float, gamma_c: float) -> Branches:
    """Closed-form branches ``delta0/2 +- sqrt(delta0^2/4 - gamma_c^2)``.

    The tag compares ``|delta0|`` against the coalescence threshold
    ``2*gamma_c``.
    """
    return _branches(0.5 * delta0, delta0, gamma_c)


def band_pair_coupling(gamma_c: float, x: float, n1: int, n2: int) -> float:
    """``gamma_c * |J_n1(x) J_n2(x)|`` at the modulation index ``x``.

    The product form for both indices nonzero is the measured-case
    generalization; the monodromy route provides the independent check of
    it.  Negative indices use ``|J_-m| = |J_m|``.
    """
    return gamma_c * abs(bessel_j(abs(n1), x) * bessel_j(abs(n2), x))


def effective_coupling(gamma_c: float, delta_b: float, omega_b: float, n1: int, n2: int) -> float:
    """Band-pair dissipative coupling rate at ``x = delta_b / omega_b``.

    See :func:`band_pair_coupling`.
    """
    return band_pair_coupling(gamma_c, delta_b / omega_b, n1, n2)


def coupling_rate(params: ModelParams) -> float:
    """The model's ``Gamma_eff``: its declared band pair at its own drive."""
    return effective_coupling(params.gamma_c, params.delta_b, params.omega_b, params.n1, params.n2)


def floquet_eigenvalues(delta0: float, omega_b: float, n: int, gamma_eff: float) -> Branches:
    """Closed-form Floquet branches of the band-pair coupled system.

    ``(delta0 + n_s*omega_b)/2 +- sqrt((delta0 - n_s*omega_b)^2/4 - gamma_eff^2)``
    with ``n_s = sign(delta0)*n`` so the resonant sideband tracks the
    experimental red-detuned convention.  The tag compares the mismatch
    ``| |delta0| - n*omega_b |`` against ``2*gamma_eff``.
    """
    ns = n if delta0 >= 0 else -n
    return _branches(0.5 * (delta0 + ns * omega_b), delta0 - ns * omega_b, gamma_eff)


class LabFrameModel:
    """Time-periodic 2x2 generator of the driven dissipatively coupled pair.

    ``matrix(t)`` returns the Hamiltonian in Hz; ``fast_generator()`` the
    2*pi-scaled version fed to the integrator; ``undamped_states(s0, ts)``
    the exact solution without the decay.  ``H(t + T) = H(t)`` exactly
    with ``T = 1/omega_b``, and ``delta_b = 0`` with ``n1 = n2 = 0`` reduces
    the matrix to the static one.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gamma_eff = coupling_rate(params)
        self.n_signed = params.n_signed
        self.period = 1.0 / params.omega_b
        self._gamma12 = params.gamma12

    def matrix(self, t: float) -> np.ndarray:
        p = self.params
        common = p.delta_b * math.cos(TWO_PI * p.omega_b * t)
        phase = cmath.exp(-2j * math.pi * self.n_signed * p.omega_b * t)
        off = 1j * self.gamma_eff
        return np.array(
            [
                [p.delta0 + common - 1j * self._gamma12, off * phase],
                [off * phase.conjugate(), common - 1j * self._gamma12],
            ],
            dtype=complex,
        )

    def fast_generator(self, d0_abs=None):
        """``2*pi * matrix(t)`` as a closure reusing one scratch matrix.

        With ``d0_abs``, a sequence of G detunings, the closure returns the
        ``(G, 2, 2)`` stack of the models at ``params.at_detuning(d)``, one
        member per detuning; they differ only in ``delta0`` (and in
        ``n_signed`` where the signed zero flips it).  The integrator calls
        the generator at every Runge-Kutta stage; this avoids per-call
        array construction.  The returned callable must not be used
        concurrently.
        """
        p = self.params
        members = [p] if d0_abs is None else [p.at_detuning(d) for d in d0_abs]
        buf = np.empty((len(members), 2, 2), dtype=complex)
        w_mod = TWO_PI * p.omega_b
        w_coup = TWO_PI * p.omega_b * np.array([m.n_signed for m in members])
        off = 1j * TWO_PI * self.gamma_eff
        decay = -1j * TWO_PI * self._gamma12
        d0 = TWO_PI * np.array([m.delta0 for m in members])
        depth = TWO_PI * p.delta_b
        out = buf[0] if d0_abs is None else buf

        def gen(t: float) -> np.ndarray:
            common = depth * math.cos(w_mod * t) + decay
            phase = np.exp(-1j * w_coup * t)
            buf[:, 0, 0] = d0 + common
            buf[:, 1, 1] = common
            buf[:, 0, 1] = off * phase
            buf[:, 1, 0] = off * phase.conjugate()
            return out

        return gen

    def undamped_states(self, s0, ts) -> np.ndarray:
        """Exact states ``s(t)`` from ``s(0) = s0``, without the rigid decay.

        Returns shape ``(len(ts), 2)``.  The decay ``-i*gamma12`` is left
        out: it multiplies every state by ``exp(-2 pi gamma12 t)``.  In the
        frame rotating at ``n_s*omega_b/2`` the generator is the constant
        ``K0 = [[m/2, i*Gamma_eff], [i*Gamma_eff, -m/2]]`` (``m = delta0 -
        n_s*omega_b``) plus a scalar, so with ``lam = branch_root(m,
        Gamma_eff)``

            exp(-2 pi i K0 t) = cos(2 pi lam t) I - i 2 pi t sinc(2 lam t) K0,

        which stays finite at the EP (``lam = 0``), where the eigenvectors
        of ``K0`` coalesce.  The scalar part is the phase of ``delta0/2``
        and of the common modulation ``delta_b*cos(2 pi omega_b t)``.
        For ``|m| < 2*Gamma_eff`` the root is imaginary, the entries grow as
        ``exp(2 pi |lam| t)`` and long spans overflow to inf or nan.
        """
        p = self.params
        ts = np.asarray(ts, dtype=float)[:, None]
        s0 = np.asarray(s0, dtype=complex)
        m = p.delta0 - self.n_signed * p.omega_b
        k0 = np.array([[0.5 * m, 1j * self.gamma_eff], [1j * self.gamma_eff, -0.5 * m]])
        lam = branch_root(m, self.gamma_eff)
        u = np.cos(TWO_PI * lam * ts) * s0 - 1j * TWO_PI * ts * np.sinc(2.0 * lam * ts) * (k0 @ s0)
        w = TWO_PI * p.omega_b
        scalar = 0.5 * p.delta0 * ts + p.delta_b * np.sin(w * ts) / w
        frame = np.exp(-0.5j * w * self.n_signed * ts * np.array([1.0, -1.0]))
        return frame * np.exp(-1j * TWO_PI * scalar) * u


@dataclass(frozen=True)
class QuasiEnergySet:
    """Two quasi-energies with real parts folded to [-omega_b/2, omega_b/2).

    ``zone_offsets`` are the integers k with ``unfolded = folded + k*omega_b``
    for the principal-branch logarithm; ``det_residual`` is the relative
    mismatch of |det(monodromy)| against the decay identity
    ``exp(-2 * 2*pi * gamma12 * T)``.
    """

    values: tuple
    zone_offsets: tuple
    omega_b: float
    det_residual: float


def quasienergy_gap(qset: QuasiEnergySet) -> float:
    """Circular distance of the two folded real parts, Hz."""
    w = qset.omega_b
    d = (qset.values[0].real - qset.values[1].real + 0.5 * w) % w - 0.5 * w
    return abs(d)


def is_split(q: QuasiEnergySet) -> bool:
    """True when the folded real parts are more than 1 Hz apart (broken phase)."""
    return quasienergy_gap(q) > 1.0


def monodromy_quasienergies(params: ModelParams, cfg: SimConfig, d0_abs=None):
    """Exact Floquet quasi-energies from the one-period fundamental matrix.

    Integrates ``dU/dt = -i * 2*pi * H(t) * U`` over one modulation period
    with the embedded Runge-Kutta pair, then takes
    ``nu = i*log(eig(U))/(2*pi*T)`` on the principal branch and folds the
    real parts into the first Floquet zone.  Real parts closer than
    ``rel_tol * omega_b`` (the integration's noise scale) order as ties.

    Without ``d0_abs`` this returns the :class:`QuasiEnergySet` of
    ``params``.  With a sequence ``d0_abs`` it returns one set per point,
    for the models ``params.at_detuning(d)``, from a single integration of
    the whole stack with a shared step sequence.

    Raises
    ------
    EngineError
        When a monodromy eigenvalue underflows (log branch ambiguous).
    """
    # params itself is the stack of one at its own |delta0|
    points = [abs(params.delta0)] if d0_abs is None else d0_abs
    model = LabFrameModel(params)
    period = model.period
    traj = integrate_linear(
        model.fast_generator(points),
        np.tile(np.eye(2, dtype=complex), (len(points), 1, 1)),
        (0.0, period),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
    )
    mono = traj.final_y
    lam = np.linalg.eigvals(mono)
    small = np.any(np.abs(lam) < 1e-300, axis=1)
    if small.any():
        raise EngineError(
            f"monodromy eigenvalue underflow at |delta0| = {points[int(np.argmax(small))]:g} Hz: "
            "quasi-energy log branch ambiguous"
        )
    nu = 1j * np.log(lam) / (TWO_PI * period)
    w = params.omega_b
    offsets = np.floor(nu.real / w + 0.5).astype(int)
    folded = nu - offsets * w

    det_target = math.exp(-2.0 * TWO_PI * params.gamma12 * period)
    det_residual = np.abs(np.abs(np.linalg.det(mono)) - det_target) / det_target
    sets = []
    for values, zones, residual in zip(folded, offsets, det_residual):
        idx = order_eigenvalues(values, tie_tol=cfg.rel_tol * w)
        sets.append(QuasiEnergySet(
            values=(complex(values[idx[0]]), complex(values[idx[1]])),
            zone_offsets=(int(zones[idx[0]]), int(zones[idx[1]])),
            omega_b=w,
            det_residual=float(residual),
        ))
    return sets[0] if d0_abs is None else sets


# ---------------------------------------------------------------------------
# Harmonic-balance steady state
# ---------------------------------------------------------------------------


@dataclass
class SidebandSolution:
    """Per-sideband complex amplitudes of the driven steady state.

    ``amps[j, m + M]`` is the component of channel ``j+1`` oscillating at
    ``exp(-i 2 pi (delta + m*omega_b) t)``.  ``residual`` is the relative
    linear-system residual of the solve.
    """

    amps: np.ndarray  # (2, 2M+1)
    m_indices: np.ndarray
    residual: float

    def channel_power(self, channel: int) -> float:
        """Time-averaged steady-state power sum_m |s_(j,m)|^2 of a channel."""
        return float(np.sum(np.abs(self.amps[channel - 1]) ** 2))

    def sideband_power(self, channel: int, m: int) -> float:
        return float(np.abs(self.amps[channel - 1, m + (self.amps.shape[1] - 1) // 2]) ** 2)


def _hb_base_matrix(params: ModelParams, mtrunc: int) -> np.ndarray:
    """Delta-independent harmonic-balance matrix: each term on its own diagonal, +0 elsewhere."""
    width = 2 * mtrunc + 1
    ms = np.arange(-mtrunc, mtrunc + 1)
    ladder = np.eye(width, k=1, dtype=bool) | np.eye(width, k=-1, dtype=bool)
    coupling = -1j * coupling_rate(params)

    def channel(d: float) -> np.ndarray:
        diagonal = np.diag(ms * params.omega_b - d + 1j * params.gamma12)
        return np.where(ladder, -0.5 * params.delta_b, diagonal)

    def cross(k: int) -> np.ndarray:
        return np.where(np.eye(width, k=k, dtype=bool), coupling, 0j)

    return np.block([
        [channel(params.delta0 + params.stark_shift), cross(-params.n_signed)],
        [cross(params.n_signed), channel(params.stark_shift)],
    ])


def steady_state_response(params: ModelParams, cfg: SimConfig, probe) -> SidebandSolution:
    """Solve the block-linear harmonic-balance system for one probe point.

    ``probe = (channel, delta, amplitude)`` puts a monochromatic source at
    sideband m = 0 of the probed channel.  Diagonal blocks read
    ``delta + m*omega_b - d_j + i*gamma12`` (``d1 = delta0``, ``d2 = 0``,
    plus the common Stark offset); the Zeeman drive couples ``m <-> m+-1``
    within each channel with strength ``delta_b/2``; the dissipative
    coupling ``i*Gamma_eff`` connects the channels between sideband orders offset
    by the declared band difference.

    Raises
    ------
    SingularSteadyStateError
        If the system is singular (exact resonance with gamma12 = 0).
    """
    channel, delta, amplitude = probe
    mtrunc = cfg.truncation_m
    width = 2 * mtrunc + 1
    a = _hb_base_matrix(params, mtrunc)
    a[np.diag_indices_from(a)] += delta
    b = np.zeros(a.shape[0], dtype=complex)
    b[(channel - 1) * width + mtrunc] = amplitude
    try:
        s = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSteadyStateError(
            f"singular steady-state system at delta = {delta:g} Hz: {exc}"
        ) from exc
    residual = float(np.linalg.norm(a @ s - b) / np.linalg.norm(b))
    if not residual <= 1e-10:
        raise SingularSteadyStateError(
            f"steady-state solve residual {residual:.2e} at delta = {delta:g} Hz "
            "(near-singular system; is gamma12 zero at exact resonance?)"
        )
    return SidebandSolution(
        amps=s.reshape(2, width),
        m_indices=np.arange(-mtrunc, mtrunc + 1),
        residual=residual,
    )


def _hessenberg(a: np.ndarray):
    """Householder reduction ``a = q @ h @ q^*`` with ``h`` upper Hessenberg.

    A column whose entries below the subdiagonal are already zero is left
    as it is, so a matrix that is already Hessenberg gives ``q = I``
    exactly.
    """
    h = np.array(a, dtype=complex)
    n = h.shape[0]
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = h[k + 1:, k]
        tail = np.linalg.norm(x[1:])
        if tail == 0.0:
            continue
        alpha = x[0]
        phase = alpha / abs(alpha) if alpha != 0 else 1.0
        v = x.copy()
        v[0] += phase * math.hypot(abs(alpha), tail)
        v /= np.linalg.norm(v)
        h[k + 1:, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= 2.0 * np.outer(h[:, k + 1:] @ v, v.conj())
        q[:, k + 1:] -= 2.0 * np.outer(q[:, k + 1:] @ v, v.conj())
        h[k + 2:, k] = 0.0
    return h, q


def _shifted_hessenberg_solve(h: np.ndarray, deltas: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``(h + delta*I) y = c`` for every ``delta`` at once, ``O(n^2)`` each.

    ``h`` is ``(n, n)`` upper Hessenberg and ``c`` is ``(n, k)``; returns
    ``y`` of shape ``(n, k, len(deltas))``.  Gaussian elimination needs
    only the subdiagonal removed, pivoting between neighbouring rows: the
    row carried down from the previous step and the next row of ``h``.

    Raises
    ------
    SingularSteadyStateError
        On an exactly zero pivot or a non-finite solution entry, naming the
        first ``delta`` where it occurs.
    """
    n = h.shape[0]
    g = deltas.size
    row = np.repeat(h[0, :, None], g, axis=1)
    row[0] += deltas
    row_rhs = np.repeat(c[0, :, None], g, axis=1)
    pivots, pivot_rhs = [], []
    with np.errstate(all="ignore"):  # zero pivots and overflow are caught below
        for k in range(n - 1):
            nxt = np.repeat(h[k + 1, k:, None], g, axis=1)
            nxt[1] += deltas
            nxt_rhs = c[k + 1, :, None]
            swap = np.abs(nxt[0]) > np.abs(row[0])
            piv, other = np.where(swap, nxt, row), np.where(swap, row, nxt)
            piv_rhs = np.where(swap, nxt_rhs, row_rhs)
            factor = other[0] / piv[0]
            row = other[1:] - factor * piv[1:]
            row_rhs = np.where(swap, row_rhs, nxt_rhs) - factor * piv_rhs
            pivots.append(piv)
            pivot_rhs.append(piv_rhs)
        pivots.append(row)
        pivot_rhs.append(row_rhs)
        zero = np.any([u[0] == 0 for u in pivots], axis=0)
        if zero.any():
            raise _singular_at(deltas, zero, "zero pivot")
        y = np.empty((n, c.shape[1], g), dtype=complex)
        for k in range(n - 1, -1, -1):
            u = pivots[k]
            y[k] = (pivot_rhs[k] - np.einsum("jg,jkg->kg", u[1:], y[k + 1:])) / u[0]
    bad = ~np.all(np.isfinite(y), axis=(0, 1))
    if bad.any():
        raise _singular_at(deltas, bad, "non-finite solution")
    return y


def _singular_at(deltas: np.ndarray, bad: np.ndarray, reason: str) -> SingularSteadyStateError:
    delta = deltas[np.argmax(bad)]
    return SingularSteadyStateError(f"singular steady-state system at delta = {delta:g} Hz: {reason}")


def steady_state_grid(params: ModelParams, cfg: SimConfig, probe_channel,
                      deltas, amplitude: complex = 1.0):
    """Vectorized steady-state powers over a probe-detuning grid.

    Returns ``powers`` of shape ``(2, G)``, ``powers[j, g]`` the
    channel-(j+1) power ``sum_m |s_(j,m)|^2`` at grid point g.
    ``probe_channel`` may also be a sequence of C channels, solved together
    as one right-hand-side column each; ``powers`` then has shape
    ``(C, 2, G)``, ``powers[i, j, g]`` for the i-th probed channel.

    Equivalent to calling :func:`steady_state_response` per point.  The
    delta-independent base matrix is reduced once, ``A0 = Q H Q^*`` with
    ``H`` upper Hessenberg (Householder reflections), so each grid point
    solves ``(H + delta I) y = Q^* b`` by an ``O(N^2)`` elimination,
    vectorized over the grid, and maps back with ``s = Q y``.

    Raises
    ------
    SingularSteadyStateError
        On an exactly zero pivot or a non-finite solution at any grid point;
        the message names the first such ``delta``.
    """
    deltas = np.asarray(deltas, dtype=float)
    channels = np.atleast_1d(probe_channel)
    mtrunc = cfg.truncation_m
    width = 2 * mtrunc + 1
    h, q = _hessenberg(_hb_base_matrix(params, mtrunc))
    rhs = np.zeros((2 * width, channels.size), dtype=complex)
    rhs[(channels - 1) * width + mtrunc, np.arange(channels.size)] = amplitude
    y = _shifted_hessenberg_solve(h, deltas, q.conj().T @ rhs)
    amps = (q @ y.reshape(2 * width, -1)).reshape(2, width, channels.size, deltas.size)
    powers = np.moveaxis((np.abs(amps) ** 2).sum(axis=1), 1, 0)
    return powers[0] if np.ndim(probe_channel) == 0 else powers
