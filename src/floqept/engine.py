"""Model Hamiltonians, eigenvalue branches and the harmonic-balance
steady-state solver.

Two independent eigenvalue routes are provided:

* closed forms for the static and Floquet-coupled two-mode systems; the
  Floquet one (:func:`floquet_eigenvalues`) is the rotating-wave result
  for the declared band pair,
* exact monodromy quasi-energies of the lab-frame time-periodic system,
  integrated in the interaction frame of its diagonal.

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

import math
from dataclasses import dataclass

import numpy as np

from .numerics.bessel import bessel_j, bessel_ladder
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
    "quasienergy_rate",
    "phase_tag",
    "SidebandSolution",
    "steady_state_response",
    "steady_state_grid",
]

TWO_PI = 2.0 * math.pi
DET_RESIDUAL_MAX = 1e-6  # | |det M| - 1 | past which a monodromy run fails

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
    always first under the global ordering convention.  The radicand is
    taken as ``(m/2 - coupling)*(m/2 + coupling)``, which does not cancel
    as ``|m| -> 2*coupling``, at the EP.
    """
    half = 0.5 * np.asarray(mismatch, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    return np.sqrt(((half - coupling) * (half + coupling)).astype(complex))


def classify_phase(mismatch_abs, threshold, ep_band):
    """Phase code, elementwise: an index into :data:`PHASES`.

    1 (EP) where ``|mismatch_abs - threshold| <= ep_band``; otherwise 0
    (unbroken) below the threshold and 2 (broken) at or above it.
    """
    mismatch_abs = np.asarray(mismatch_abs, dtype=float)
    side = np.where(mismatch_abs < threshold, 0, 2)
    return np.where(np.abs(mismatch_abs - threshold) <= ep_band, 1, side)


def phase_tag(mismatch: float, coupling: float) -> str:
    """The :data:`PHASES` tag of ``|mismatch|`` against ``2*coupling``, to 1e-9 relative."""
    threshold = 2.0 * coupling
    return PHASES[int(classify_phase(abs(mismatch), threshold, 1e-9 * max(1.0, threshold)))]


def _branches(center: float, mismatch: float, coupling: float) -> Branches:
    """``center +- branch_root``, tagged by :func:`phase_tag`."""
    root = branch_root(mismatch, coupling)
    return Branches(values=(complex(center + root), complex(center - root)),
                    tag=phase_tag(mismatch, coupling))


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
    generalization.  No route checks it independently: :class:`LabFrameModel`
    takes this rate, so the monodromy checks the band-pair algebra and the
    integration, not the product.  Negative indices use ``|J_-m| = |J_m|``.
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

    ``matrix(t)`` returns the lab-frame Hamiltonian in Hz; ``fast_generator``
    the 2*pi-scaled interaction-frame generator fed to the integrator;
    ``undamped_states(s0, ts)`` the exact solution without the decay.
    ``H(t + T) = H(t)`` exactly with ``T = 1/omega_b``, and ``delta_b = 0``
    with ``n1 = n2 = 0`` reduces the matrix to the static one.  A lab state
    is ``F(t) v(t)`` with ``F(t) = diag(exp(-2 pi i delta0 t), 1) *
    exp(-2 pi i drive_cycles(t))`` and ``v`` the interaction-frame state.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gamma_eff = coupling_rate(params)
        self.n_signed = params.n_signed
        self.period = 1.0 / params.omega_b

    def matrix(self, t: float) -> np.ndarray:
        p = self.params
        common = p.delta_b * math.cos(TWO_PI * p.omega_b * t)
        phase = np.exp(-2j * math.pi * self.n_signed * p.omega_b * t)
        off = 1j * self.gamma_eff
        return np.array([[p.delta0 + common - 1j * p.gamma12, off * phase],
                         [off * phase.conjugate(), common - 1j * p.gamma12]])

    def fast_generator(self, d0_abs):
        """``2*pi * F(t)^-1 (matrix(t) - diag matrix(t)) F(t)``, stacked over ``d0_abs``.

        Member g, the model at ``params.at_detuning(d0_abs[g])``, reads
        ``2*pi*[[0, i*Gamma_eff*exp(2 pi i mu t)], [i*Gamma_eff*exp(-2 pi i
        mu t), 0]]`` with ``mu = delta0 - n_s*omega_b`` (the signed zero
        flips ``n_s``); the rigid decay is left out.  The closure fills one
        ``(G, 2, 2)`` scratch stack at every Runge-Kutta stage and must not
        be used concurrently.
        """
        p = self.params
        members = [p.at_detuning(d) for d in d0_abs]
        w_mu = TWO_PI * np.array([m.delta0 - m.n_signed * p.omega_b for m in members])
        buf = np.zeros((len(members), 2, 2), dtype=complex)
        off = 1j * TWO_PI * self.gamma_eff

        def gen(t: float) -> np.ndarray:
            phase = np.exp(1j * w_mu * t)
            buf[:, 0, 1] = off * phase
            buf[:, 1, 0] = off * phase.conjugate()
            return buf

        return gen

    def drive_cycles(self, ts):
        """Phase of the common modulation in cycles, ``delta_b*sin(2 pi omega_b t)/(2 pi omega_b)``."""
        w = TWO_PI * self.params.omega_b
        return self.params.delta_b * np.sin(w * ts) / w

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
        u = self._amplitude(s0, ts)
        w = TWO_PI * p.omega_b
        scalar = 0.5 * p.delta0 * ts + self.drive_cycles(ts)
        frame = np.exp(-0.5j * w * self.n_signed * ts * np.array([1.0, -1.0]))
        return frame * np.exp(-1j * TWO_PI * scalar) * u

    def _amplitude(self, s0, ts) -> np.ndarray:
        """``u = exp(-2 pi i K0 t) s0`` at the column ``ts``; ``|u| = |undamped_states|``."""
        m = self.params.delta0 - self.n_signed * self.params.omega_b
        k0 = np.array([[0.5 * m, 1j * self.gamma_eff], [1j * self.gamma_eff, -0.5 * m]])
        lam = branch_root(m, self.gamma_eff)
        return np.cos(TWO_PI * lam * ts) * s0 - 1j * TWO_PI * ts * np.sinc(2.0 * lam * ts) * (k0 @ s0)


@dataclass(frozen=True)
class QuasiEnergySet:
    """Two quasi-energies with real parts folded to [-omega_b/2, omega_b/2).

    ``det_residual`` is ``| |det M| - 1 |`` of the decay-free monodromy
    ``M``, whose generator is trace-free, so that ``|det M| = 1`` exactly.
    """

    values: tuple
    omega_b: float
    det_residual: float


def quasienergy_gap(qset: QuasiEnergySet) -> float:
    """Circular distance of the two folded real parts, Hz."""
    w = qset.omega_b
    d = (qset.values[0].real - qset.values[1].real + 0.5 * w) % w - 0.5 * w
    return abs(d)


def quasienergy_rate(qset: QuasiEnergySet, mismatch: float) -> float:
    """``|Gamma|`` from the quasi-energy difference: ``(dnu/2)^2 = mismatch^2/4 - Gamma^2``.

    Exact, as the generator is constant in the frame rotating at ``n_s*omega_b/2``;
    the folded gap ``Re dnu`` aliases unless ``|mismatch| < omega_b/2``.
    """
    dnu2 = quasienergy_gap(qset) ** 2 - (qset.values[0].imag - qset.values[1].imag) ** 2
    return 0.5 * math.sqrt(max(mismatch * mismatch - dnu2, 0.0))


def monodromy_quasienergies(params: ModelParams, cfg: SimConfig, d0_abs=None):
    """Exact Floquet quasi-energies from the one-period fundamental matrix.

    Integrates the interaction-frame propagator ``V`` of
    :meth:`LabFrameModel.fast_generator` over one modulation period with the
    embedded Runge-Kutta pair, then takes ``nu = i*log(eig(M))/(2*pi*T) -
    i*gamma12`` of the decay-free ``M = F(T) V(T)`` on the principal branch
    and folds the real parts into the first Floquet zone.  Real parts closer
    than ``rel_tol * omega_b`` (the integration's noise scale) order as ties.

    Without ``d0_abs`` this returns the :class:`QuasiEnergySet` of
    ``params``.  With a sequence ``d0_abs`` it returns one set per point,
    for the models ``params.at_detuning(d)``, from a single integration of
    the whole stack with a shared step sequence.

    Raises
    ------
    EngineError
        When a monodromy eigenvalue underflows (log branch ambiguous), or
        ``det_residual`` exceeds :data:`DET_RESIDUAL_MAX` (``M`` lost its unit
        determinant: an unresolved step, or a mode grown past double precision).
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
    mono = traj.final_y * np.exp(-1j * TWO_PI * model.drive_cycles(period))  # M = F(T) V(T)
    mono[:, 0] *= np.exp(-1j * TWO_PI * period * np.array([params.at_detuning(d).delta0
                                                            for d in points]))[:, None]
    lam = np.linalg.eigvals(mono)
    small = np.any(np.abs(lam) < 1e-300, axis=1)
    if small.any():
        raise EngineError(
            f"monodromy eigenvalue underflow at |delta0| = {points[int(np.argmax(small))]:g} Hz: "
            "quasi-energy log branch ambiguous"
        )
    nu = 1j * np.log(lam) / (TWO_PI * period) - 1j * params.gamma12
    w = params.omega_b
    folded = nu - np.floor(nu.real / w + 0.5) * w

    det_residual = np.abs(np.abs(np.linalg.det(mono)) - 1.0)
    lost = ~(det_residual <= DET_RESIDUAL_MAX)
    if lost.any():
        g = int(np.argmax(lost))
        raise EngineError(f"monodromy determinant residual {det_residual[g]:.3g} at |delta0| = "
                          f"{points[g]:g} Hz: the one-period propagator lost its unit determinant")
    order = [order_eigenvalues(values, tie_tol=cfg.rel_tol * w) for values in folded]
    sets = [QuasiEnergySet(values=tuple(map(complex, v[idx])), omega_b=w, det_residual=float(r))
            for v, r, idx in zip(folded, det_residual, order)]
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
    """Solve the truncated harmonic-balance system for one probe point by dense LU.

    The reference for :func:`steady_state_grid`, which is its
    ``truncation_m -> infinity`` limit.

    ``probe = (channel, delta, amplitude)`` puts a monochromatic source at
    sideband m = 0 of the probed channel.  Diagonal blocks read
    ``delta + m*omega_b - d_j + i*gamma12`` (``d1 = delta0``, ``d2 = 0``,
    plus the common Stark offset); the Zeeman drive couples ``m <-> m+-1``
    within each channel with strength ``delta_b/2``; the dissipative
    coupling ``i*Gamma_eff`` connects the channels between sideband orders offset
    by the declared band difference.

    Raises
    ------
    ValueError
        If ``cfg.truncation_m < ceil(delta_b/omega_b) + 3``, too few
        sideband orders for the drive strength.
    SingularSteadyStateError
        If the system is singular (exact resonance with gamma12 = 0).
    """
    channel, delta, amplitude = probe
    mtrunc = cfg.truncation_m
    need = math.ceil(params.modulation_index) + 3
    if mtrunc < need:
        raise ValueError(f"truncation_m = {mtrunc} too small for "
                         f"delta_b/omega_b = {params.modulation_index:.3f}; need >= {need}")
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


def _comb(params: ModelParams):
    """Block indices ``ks`` and weights ``(2, K)``, ``J_k(x)^2`` under a channel-1 probe and
    ``J_(k-n_s)(x)^2`` under channel 2, from one ladder.  The orders end at the first
    ``k > |x|`` with ``J_k^2 < 1e-18 * max J^2``, the blocks at ``|k| <=`` that ``+ |n_s|``.
    ``ks`` is symmetric, so the model with ``n_s`` reversed has the weights ``[:, ::-1]``."""
    x, ns = abs(params.modulation_index), params.n_signed
    j2 = np.square(bessel_ladder(x, math.ceil(x) + 40))
    cut = np.flatnonzero((j2 < 1e-18 * j2.max()) & (np.arange(j2.size) > x))[0]
    j2 = np.append(j2[:cut + 1], np.zeros(2 * abs(ns)))  # no weight past the cut
    ks = np.arange(-cut - abs(ns), cut + abs(ns) + 1)
    return ks, j2[np.abs([ks, ks - ns])]


def _hb_blocks(params: ModelParams, ks, deltas, cross: float):
    """Real diagonals ``a = k*omega_b - d1 + delta``, ``b = (k - n_s)*omega_b - d2 + delta`` of
    the Bessel blocks and ``1/|det|^2 = 1/((a*b + cross - gamma12^2)^2 + gamma12^2*(a + b)^2)``,
    each ``(K, G)``; ``cross = Gamma_eff^2``.  A zero determinant gives an infinite inverse."""
    g2 = params.gamma12 ** 2
    a = (ks * params.omega_b - (params.delta0 + params.stark_shift))[:, None] + deltas
    b = ((ks - params.n_signed) * params.omega_b - params.stark_shift)[:, None] + deltas
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # read by _require_finite
        inv = a * b  # factored: t^2 - (mu/2)^2 would cancel next to a resonance
        inv += cross - g2
        inv *= inv
        inv += g2 * (a + b) ** 2
        np.divide(1.0, inv, out=inv)
    return a, b, inv


def _require_finite(powers, inv, deltas) -> None:
    """Raise :class:`SingularSteadyStateError` at the first ``delta`` with a non-finite power."""
    bad = ~np.all(np.isfinite(powers.reshape(-1, deltas.size)), axis=0)
    if bad.any():
        g = int(np.argmax(bad))
        why = "singular 2x2 block" if np.isinf(inv[:, g]).any() else "non-finite power"
        raise SingularSteadyStateError(f"singular steady-state system at delta = {deltas[g]:g} Hz: {why}")


def steady_state_grid(params: ModelParams, cfg: SimConfig, probe_channel,
                      deltas, amplitude: complex = 1.0):
    """Exact steady-state powers over a probe-detuning grid.

    Returns ``powers`` of shape ``(2, G)``, ``powers[j, g]`` the
    channel-(j+1) power ``sum_m |s_(j,m)|^2`` at grid point g.
    ``probe_channel`` may also be a sequence of C channels; ``powers`` then
    has shape ``(C, 2, G)``, ``powers[i, j, g]`` for the i-th probed channel.

    This is the untruncated (``M -> infinity``) limit of
    :func:`steady_state_response`; ``cfg.truncation_m`` is not used.  The
    common Zeeman ladder ``diag(m*omega_b) - (delta_b/2)(S + S^T)`` is a
    Wannier-Stark ladder with orthonormal eigenvectors ``v_k(m) =
    J_(m-k)(x)`` and eigenvalues ``k*omega_b`` (``x = delta_b/omega_b``;
    Jacobi-Anger, Shirley 1965), and the coupling shifts sidebands by
    ``n_s``.  In that basis the system splits into 2x2 blocks: block k pairs
    ``(1, k)`` with ``(2, k - n_s)`` and reads

        [[delta + k*omega_b - d1 + i*gamma12, -i*Gamma_eff],
         [-i*Gamma_eff, delta + (k - n_s)*omega_b - d2 + i*gamma12]].

    A probe drives block k with amplitude ``sqrt(w_k)``, ``w`` its row of the comb
    :func:`_comb`, and ``P_j = sum_k |y_(j,k)|^2``.  In real arithmetic (:func:`_hb_blocks`)
    the probed channel reads ``w @ ((b^2 + gamma12^2)/|det|^2)`` (``a`` for channel 2),
    the other ``Gamma_eff^2 * w @ (1/|det|^2)``.

    Raises
    ------
    SingularSteadyStateError
        On a zero block determinant or a non-finite power at any grid point;
        the message names the first such ``delta``.
    """
    deltas = np.asarray(deltas, dtype=float)
    channels = np.atleast_1d(probe_channel)
    cross = coupling_rate(params) ** 2  # raises past the supported |x| before the comb is built
    ks, weights = _comb(params)
    a, b, inv = _hb_blocks(params, ks, deltas, cross)
    own = (b, a)  # the probed channel's own response is the other diagonal entry over det
    powers = np.empty((channels.size, 2, deltas.size))
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        for i, ch in enumerate(channels):
            wts = abs(amplitude) ** 2 * weights[ch - 1]
            powers[i, ch - 1] = wts @ ((own[ch - 1] ** 2 + params.gamma12 ** 2) * inv)
            powers[i, 2 - ch] = cross * (wts @ inv)
    _require_finite(powers, inv, deltas)
    return powers[0] if np.ndim(probe_channel) == 0 else powers
