"""Two-node swap dynamics per photon sector: closed form, direct integration,
blockade quantification, and extraction of the photon-controlled swap gate.

Phase convention
----------------
The amplitudes obey ``dc/dt = +i M(n) c`` with the Hermitian generator
``M(n) = [[w1(n), -S], [-S*, w2(n)]]``, so the exact propagator is
``exp(+i M(n) t)`` and the sector's mean frequency appears as a global factor
``exp(+i varpi_mean(n) t)``.  The evolvers report the lab frame, which keeps
that factor; only :func:`sector_propagator` takes a ``frame``, and
``"rotating"`` drops it.  On resonance the rotating-frame amplitudes for the
node-1-excited start are::

    c1(t) = cos(k t) + i (d/k) sin(k t)      d = varpi_split(n)
    c2(t) = -i (S*/k) sin(k t)               k = sqrt(d^2 + |S|^2)

At the swap time ``t = pi/(2|S|)`` (:func:`swap_time`) the photon-free
sector gives ``(c1, c2) = (0, -i)`` for real positive S, and under the
blockade tuning ``|Omega_1^(pi)| = sqrt(3) |S|`` the one-photon sector
returns with ``c1 = -1`` (``k t = pi``), so a photon freezes the swap
completely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import Unitary
from .physical import DerivedCouplings, _check_sector

FRAME_LAB = "lab"
FRAME_ROTATING = "rotating"

# Default integrator step in units of 1/kappa.  A coarser classic choice of
# 0.01/kappa leaves a per-step norm defect ~(k h)^5/120 that accumulates past
# 1e-10 over the multi-period horizons the verification suite integrates;
# 1/256 keeps the defect at rounding level.
DEFAULT_STEP_FACTOR = 1.0 / 256.0

SQRT3 = float(np.sqrt(3.0))
# Largest resonance residual, relative to max(|S|, |Omega_1^(pi)|), at which
# evolve_closed_form still applies the closed form.
RESONANCE_TOL = 1e-8
# Largest relative deviation of |Omega_1^(pi)| from sqrt(3)|S| that the
# controlled swap extraction accepts as the blockade tuning.
BLOCKADE_CONDITION_TOL = 1e-9


class ResonanceConditionError(ValueError):
    """Closed-form evolution refused: the resonance condition is violated."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"resonance residual {self.residual:.6e} rad/s exceeds tolerance "
            f"{self.tolerance:.6e}; integrate with evolve_numerical instead"
        )


class BlockadeConditionError(ValueError):
    """Gate extraction refused: |Omega_1^(pi)| != sqrt(3) |S|."""

    def __init__(self, leakage: float):
        self.leakage = float(leakage)
        super().__init__(
            f"blockade tuning violated; residual one-photon swap amplitude "
            f"|c2| = {self.leakage:.6e} at the gate time"
        )


class StepSizeError(ValueError):
    """The integrator's step is not finite and positive, or a segment needs
    more than 2**53 of them; extreme couplings cause both."""


@dataclass(frozen=True)
class NodePairState:
    """Amplitudes over the two node-excitation states for one photon sector."""

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        if not (np.isfinite(complex(self.c1)) and np.isfinite(complex(self.c2))):
            raise ValueError("amplitudes must be finite")

    @classmethod
    def excited_node_one(cls) -> "NodePairState":
        return cls(1.0 + 0.0j, 0.0j)

    def norm(self) -> float:
        return float(np.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2))

    def as_vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)


@dataclass(frozen=True)
class EvolutionResult:
    """Final state plus an optional sampled trajectory, in the lab frame."""

    state: NodePairState
    sector: int
    times: np.ndarray | None = None
    trajectory: np.ndarray | None = None


def _check_initial(initial: NodePairState) -> np.ndarray:
    vec = initial.as_vector()
    if abs(initial.norm() - 1.0) > 1e-10:
        raise ValueError(f"initial state must be normalized, norm {initial.norm()!r}")
    return vec


def _rotating_generator(couplings: DerivedCouplings, n: int) -> np.ndarray:
    """Traceless part of M(n): [[d, -S], [-S*, -d]] with d = varpi_split(n)."""
    d = couplings.varpi_split(n)
    s = couplings.s_coupling
    return np.array([[d, -s], [-np.conj(s), -d]], dtype=complex)


def sector_propagator(
    couplings: DerivedCouplings, n: int, t: float | np.ndarray, frame: str = FRAME_LAB
) -> np.ndarray:
    """Exact propagator exp(i M(n) t) of the sector dynamics.

    ``t`` is a time or a numpy array of times, and ``couplings`` one coupling
    set or a stack of them (see :class:`DerivedCouplings`).  The result has
    shape ``np.broadcast_shapes(stack shape, np.shape(t)) + (2, 2)``, one 2x2
    propagator per element, each equal bit for bit to the call with that time
    and that coupling set alone.  A rotation angle ``kappa t`` or lab-frame
    phase angle ``varpi_mean(n) t`` that is not finite raises ``ValueError``.
    """
    n = _check_sector(n)
    if frame not in (FRAME_LAB, FRAME_ROTATING):
        raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")
    s = couplings.s_coupling
    # Each entry is computed over the whole stack and written to its slot, so
    # each element takes the same scalar arithmetic, rounding included,
    # whether it comes alone or in an array.  k vanishes only with d = S = 0,
    # where the propagator is the identity and the sinc (0/0) is set to 0.
    # The collective terms and the angles may overflow; the angles are checked.
    with np.errstate(over="ignore", invalid="ignore"):
        d = couplings.varpi_split(n)
        k = np.hypot(d, abs(s))
        kt = k * t
        lab = 1j * couplings.varpi_mean(n) * t if frame == FRAME_LAB else 0.0
        cos_kt = np.cos(kt)
        sinc = np.where(k == 0.0, 0.0, np.sin(kt) / k)
    if not (np.isfinite(kt).all() and np.isfinite(lab).all()):
        raise ValueError(f"sector {n} propagator undefined: an angle at time t is not finite")
    u = np.empty(np.shape(cos_kt) + (2, 2), dtype=complex)
    u[..., 0, 0] = cos_kt + 1j * d * sinc
    u[..., 0, 1] = -1j * s * sinc
    u[..., 1, 0] = -1j * np.conj(s) * sinc
    u[..., 1, 1] = cos_kt - 1j * d * sinc
    if frame == FRAME_LAB:
        # The phase is the left factor, as in the scalar product phase * U.
        np.multiply(np.exp(lab)[..., None, None], u, out=u)
    return u


def _resonance_gate(couplings: DerivedCouplings) -> None:
    if abs(couplings.s_coupling) == 0.0:
        return  # diagonal dynamics: no transfer, the closed form is exact
    scale = max(abs(couplings.s_coupling), abs(couplings.omega_1_pi))
    residual = couplings.resonance_residual()
    if abs(residual) > RESONANCE_TOL * scale:
        raise ResonanceConditionError(residual, RESONANCE_TOL * scale)


def _sample_times(t: float, samples: int) -> np.ndarray | None:
    if samples <= 0:
        return None
    return np.linspace(0.0, t, samples + 1)


def evolve_closed_form(
    couplings: DerivedCouplings,
    n: int,
    t: float,
    initial: NodePairState,
    samples: int = 0,
) -> EvolutionResult:
    """Evolve one photon sector by the exact propagator.

    Refuses (with :class:`ResonanceConditionError`) when the resonance
    residual exceeds ``RESONANCE_TOL`` relative to the dynamical scale
    ``max(|S|, |Omega_1^(pi)|)``; the direct integrator has no such
    restriction.  ``samples > 0`` additionally returns the trajectory on a
    uniform grid of ``samples + 1`` points including both endpoints.
    """
    n = _check_sector(n)
    vec = _check_initial(initial)
    _resonance_gate(couplings)
    times = _sample_times(t, samples)
    trajectory = None
    if times is not None:
        trajectory = sector_propagator(couplings, n, times) @ vec
    final = sector_propagator(couplings, n, t) @ vec
    state = NodePairState(complex(final[0]), complex(final[1]))
    return EvolutionResult(state=state, sector=n, times=times, trajectory=trajectory)


def _rk4_step_matrix(a: np.ndarray, h) -> np.ndarray:
    """One classic fourth-order step for dc/dt = i A c, per step length in ``h``.

    For a constant linear generator the four-stage scheme collapses exactly
    to the quartic Taylor polynomial sum_j (i h A)^j / j! of exp(i h A),
    which is applied as a single matrix per step.  An array ``h`` gives the
    matrices entries first, shape ``(2, 2) + np.shape(h)``: entry ``[i, j]``
    is one array over ``h``.
    """
    z = 1j * np.asarray(h, dtype=float)
    a2 = a @ a
    a3 = a2 @ a
    eye, a, a2, a3, a4 = (m.reshape((2, 2) + (1,) * z.ndim) for m in (np.eye(2), a, a2, a3, a3 @ a))
    return eye + z * (a + z * (a2 / 2.0 + z * (a3 / 6.0 + z * a4 / 24.0)))


def _entry_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for 2x2 matrices held entries first, shape ``(2, 2, ...)``."""
    return x[:, 0, None] * y[None, 0] + x[:, 1, None] * y[None, 1]


def evolve_numerical(
    couplings: DerivedCouplings,
    n: int,
    t: float,
    initial: NodePairState,
    samples: int = 0,
) -> EvolutionResult:
    """Integrate the sector equations with a fixed-step fourth-order scheme.

    Works for arbitrary sector frequency offsets (no resonance requirement).
    Integration happens in the rotating frame where the generator norm is
    kappa; the exact mean-frequency phase is multiplied back, so the result
    is in the lab frame.  The step is ``DEFAULT_STEP_FACTOR / kappa`` (the
    larger of the formula kappa and the generator norm); a step that is not
    finite and positive, or a segment of more than 2**53 whole steps, raises
    :class:`StepSizeError`.

    Each sample segment takes ``m = floor(length/step + 1e-12)`` whole steps
    and then one shorter tail step, if the tail exceeds ``1e-15 max(|t_end|,
    1)``.  The segment is the matrix ``R(tail) @ F^m``, where ``F`` is the
    step matrix, ``F^m`` comes by repeated squaring once per distinct ``m``
    and ``R`` is the identity where there is no tail.  The segments are held
    entries first, as four arrays ``[i, j]`` over the samples.  Their running
    products come from a doubling (Hillis-Steele) scan of log2(samples)
    levels; each level is one whole-array product of every segment with the
    one ``2^level`` before it, the later segment on the left.  The running
    products are then applied to the initial state.  The steps taken are the
    same as stepping one at a time; the rounding error grows with
    log(samples) rather than with samples.
    """
    n = _check_sector(n)
    vec = _check_initial(initial)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"integration time must be finite and nonnegative, got {t!r}")
    a = _rotating_generator(couplings, n)
    # Rate scale: formula kappa and the actual generator norm can differ off
    # resonance; the step honors whichever is larger.  Without a rate the
    # generator is zero and one step covers the time.
    k_eff = float(np.hypot(couplings.varpi_split(n), abs(couplings.s_coupling)))
    k_scale = max(couplings.kappa(n), k_eff)
    step = DEFAULT_STEP_FACTOR / k_scale if k_scale != 0.0 else float(t) or 1.0
    if not 0.0 < step < np.inf:
        raise StepSizeError(
            f"step {step!r} s for rate {k_scale!r} rad/s is not finite and positive")

    times = _sample_times(t, samples)
    ends = times[1:] if times is not None else np.array([float(t)])
    lengths = np.diff(ends, prepend=0.0)
    # Whole step counts stay exact integers in a double, so the floor and the
    # conversion below are exact.
    if lengths.max() > 2.0**53 * step:
        raise StepSizeError(f"step {step:.6e} s needs more than 2**53 steps in a segment")
    whole = np.floor(lengths / step + 1e-12)
    tails = lengths - whole * step
    has_tail = tails > 1e-15 * np.maximum(np.abs(ends), 1.0)
    full = _rk4_step_matrix(a, step)
    counts, which = np.unique(whole.astype(int), return_inverse=True)
    powers = np.stack([np.linalg.matrix_power(full, int(m)) for m in counts], axis=-1)
    powers = np.take(powers, which, axis=-1)
    tail_steps = _rk4_step_matrix(a, np.where(has_tail, tails, 0.0))
    segments = _entry_product(tail_steps, powers)

    # Doubling scan: after the level with shift d, segments[..., i] holds the
    # product of segments i-2d+1..i (fewer at the start), later ones on the
    # left.  Each level's products are a fresh array, written over the old
    # entries only once all of them are read.
    d = 1
    while d < segments.shape[-1]:
        segments[..., d:] = _entry_product(segments[..., d:], segments[..., :-d])
        d *= 2
    ends_states = segments[:, 0] * vec[0] + segments[:, 1] * vec[1]
    current = ends_states[:, -1]
    trajectory = None
    if times is not None:
        trajectory = np.concatenate([vec[None, :], ends_states.T])

    if trajectory is not None:
        trajectory *= np.exp(1j * couplings.varpi_mean(n) * times)[:, None]
    current = current * np.exp(1j * couplings.varpi_mean(n) * t)
    state = NodePairState(complex(current[0]), complex(current[1]))
    return EvolutionResult(state=state, sector=n, times=times, trajectory=trajectory)


def blockade_error(couplings: DerivedCouplings) -> float | np.ndarray:
    """Peak one-photon transfer amplitude max_t |c2| = |S| / kappa(1).

    1 means unimpeded swapping; the sqrt(3) tuning gives 1/2 with an exact
    zero at the swap time; large |Omega_1^(pi)|/|S| suppresses transfer at
    all times.  A stack of coupling sets gives an array of the stack's shape.
    """
    s = abs(couplings.s_coupling)
    k1 = couplings.kappa(1)
    if s == 0.0:  # nothing transfers, and kappa(1) = |Omega_1^(pi)| may be 0
        return np.zeros(np.shape(k1)) if np.ndim(k1) else 0.0
    return s / k1


def swap_time(couplings: DerivedCouplings) -> float:
    """Duration ``pi/(2|S|)`` of one full swap, the single step of the
    controlled swap gate.

    At a time ``t`` the n=0 rotating-frame propagator equals
    ``restrict_to_logical(gates.iswap(-2 |S| t))`` up to global phase (real
    positive S, on resonance), so a native ``ISWAP(theta)`` takes
    ``|theta|/pi`` swap times.  Raises ``ValueError`` unless ``|S|`` and the
    time are both finite and nonzero.
    """
    s = abs(couplings.s_coupling)
    t = np.pi / (2.0 * s) if s != 0.0 else np.inf
    if not (s < np.inf and t < np.inf):
        raise ValueError(f"swap time pi/(2|S|) must be finite and nonzero, got |S| = {s!r}")
    return float(t)


def blockade_condition_deviation(couplings: DerivedCouplings) -> float:
    """Relative deviation of |Omega_1^(pi)| from sqrt(3) |S|."""
    target = SQRT3 * abs(couplings.s_coupling)
    if target == 0.0:
        return np.inf
    return abs(abs(couplings.omega_1_pi) - target) / target


def extract_controlled_iswap(
    couplings: DerivedCouplings, enforce_condition: bool = True
) -> Unitary:
    """Assemble the photon-controlled swap gate from the sector propagators
    at :func:`swap_time`.

    Returns a 4x4 unitary on the basis (node state, photon number) ordered
    ``[psi1 n=0, psi2 n=0, psi1 n=1, psi2 n=1]``, with the photon-free
    sector's global phase factored out: the rotating-frame propagator of each
    sector, the one-photon block times the sectors' relative phase.  Under
    the sqrt(3) blockade tuning the photon-free block is
    ``[[0, -i], [-i, 0]]`` (real positive S) and the one-photon block is
    ``-exp(i (N1 - 1) Omega_1^(pi) t) I``, a unit-modulus diagonal.

    Unless ``enforce_condition`` is off, a relative deviation of the blockade
    tuning beyond ``BLOCKADE_CONDITION_TOL`` raises :class:`BlockadeConditionError`
    carrying the residual one-photon swap amplitude.  A relative-phase or
    sector rotation angle that is not finite raises ``ValueError``.
    """
    t = swap_time(couplings)
    # Relative phase between the sectors: the only n dependence of the mean
    # frequency is the per-photon light shift, so varpi_mean(1) -
    # varpi_mean(0) = (N1 - 1) * Omega_1^(pi) exactly (and stably).
    rel_angle = (couplings.n_atoms_1 - 1) * couplings.omega_1_pi * t
    if not np.isfinite(rel_angle):
        raise ValueError(f"controlled swap undefined: relative phase angle {rel_angle!r}")
    core0 = sector_propagator(couplings, 0, t, FRAME_ROTATING)
    core1 = sector_propagator(couplings, 1, t, FRAME_ROTATING)
    if enforce_condition and blockade_condition_deviation(couplings) > BLOCKADE_CONDITION_TOL:
        raise BlockadeConditionError(abs(core1[1, 0]))
    rel_phase = np.exp(1j * rel_angle)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = core0
    m[2:, 2:] = rel_phase * core1
    return Unitary(m)

