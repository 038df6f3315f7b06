"""Two-node swap dynamics per photon sector: closed form, direct integration,
blockade quantification, and extraction of the photon-controlled swap gate.

Phase convention
----------------
The amplitudes obey ``dc/dt = +i M(n) c`` with the Hermitian generator
``M(n) = [[w1(n), -S], [-S*, w2(n)]]``.  Everything here works in each
sector's own rotating frame, which drops the sector's mean frequency
``(w1(n) + w2(n))/2`` as a global phase and keeps the traceless part
``[[d, -S], [-S*, -d]]``, ``d = varpi_split(n)``; :func:`sector_propagator`
is its one exact propagator.  The only phase between the sectors that the
gate needs is stated once, in :func:`extract_controlled_iswap`.  For the
node-1-excited start the amplitudes are::

    c1(t) = cos(k t) + i (d/k) sin(k t)
    c2(t) = -i (S*/k) sin(k t)               k = kappa(n) = sqrt(d^2 + |S|^2)

With ``d = 0`` in the photon-free sector (resonance), at the swap time
``t = pi/(2|S|)`` (:func:`swap_time`) that sector gives ``(c1, c2) =
(0, -i)`` for real positive S, and under the blockade tuning
``|Omega_1^(pi)| = sqrt(3) |S|`` the one-photon sector returns with
``c1 = -1`` (``k t = pi``), so a photon freezes the swap completely.

The node frequencies enter the swap only through the resonance residual
``omega_2 - omega_1 + N2 Omega_2^(sigma) - N1 (Omega_1^(sigma) +
Omega_1^(pi)) + N2 Omega_2^(pi)`` in ``d``, where a shift common to both
nodes cancels: it only adds a phase that both code words share, a
decoherence-free subspace for common-mode frequency noise (Lidar, Chuang &
Whaley, arXiv:quant-ph/9807004).  A differential shift is not rejected at all:
``omega_2`` moved alone by 0.02 |S| misses the swap by ``1 - |c2|^2 = 1e-4``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import Unitary
from .physical import DerivedCouplings, _check_sector

# Default integrator step in units of 1/kappa.  A coarser classic choice of
# 0.01/kappa leaves a per-step norm defect ~(k h)^5/120 that accumulates past
# 1e-10 over the multi-period horizons the verification suite integrates;
# 1/256 keeps the defect at rounding level.
DEFAULT_STEP_FACTOR = 1.0 / 256.0

SQRT3 = float(np.sqrt(3.0))
# Largest relative deviation of |Omega_1^(pi)| from sqrt(3)|S| that the
# controlled swap extraction accepts as the blockade tuning.
BLOCKADE_CONDITION_TOL = 1e-9


class BlockadeConditionError(ValueError):
    """Gate extraction refused: |Omega_1^(pi)| != sqrt(3) |S|."""

    def __init__(self, deviation: float, leakage: float):
        self.deviation = float(deviation)
        self.leakage = float(leakage)
        super().__init__(
            "blockade tuning |Omega_1^(pi)| = sqrt(3)|S| violated (relative deviation "
            f"{self.deviation:.3e}); residual one-photon swap amplitude "
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
    """Final state plus an optional sampled trajectory, in the sector's
    rotating frame."""

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


def sector_propagator(couplings: DerivedCouplings, n: int, t: float | np.ndarray) -> np.ndarray:
    """Exact propagator ``exp(i A t)`` of sector ``n`` in its rotating frame,
    ``A = [[d, -S], [-S*, -d]]`` with ``d = varpi_split(n)``.

    ``t`` is a time or a numpy array of times, and ``couplings`` one coupling
    set or a stack of them (see :class:`DerivedCouplings`).  The result has
    shape ``np.broadcast_shapes(stack shape, np.shape(t)) + (2, 2)``, one 2x2
    propagator per element, each equal bit for bit to the call with that time
    and that coupling set alone.  A rotation angle ``kappa t`` that is not
    finite raises ``ValueError``.
    """
    s = couplings.s_coupling
    # Each entry is computed over the whole stack and written to its slot, so
    # each element takes the same scalar arithmetic, rounding included,
    # whether it comes alone or in an array.  k vanishes only with d = S = 0,
    # where the propagator is the identity and the sinc (0/0) is set to 0.
    # The collective terms and the angle may overflow; the angle is checked.
    with np.errstate(over="ignore", invalid="ignore"):
        d = couplings.varpi_split(n)
        k = couplings.kappa(n)
        kt = k * t
        cos_kt = np.cos(kt)
        sinc = np.where(k == 0.0, 0.0, np.sin(kt) / k)
    if not np.isfinite(kt).all():
        raise ValueError(f"sector {n} propagator undefined: an angle at time t is not finite")
    u = np.empty(np.shape(cos_kt) + (2, 2), dtype=complex)
    u[..., 0, 0] = cos_kt + 1j * d * sinc
    u[..., 0, 1] = -1j * s * sinc
    u[..., 1, 0] = -1j * np.conj(s) * sinc
    u[..., 1, 1] = cos_kt - 1j * d * sinc
    return u


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
    """Evolve one photon sector by :func:`sector_propagator`, in its rotating
    frame; exact at any detuning.  ``samples > 0`` additionally returns the
    trajectory on a uniform grid of ``samples + 1`` points including both
    endpoints.
    """
    n = _check_sector(n)
    vec = _check_initial(initial)
    times = _sample_times(t, samples)
    trajectory = None
    if times is not None:
        # The last sample time is t itself, and each row equals the scalar call.
        trajectory = sector_propagator(couplings, n, times) @ vec
        final = trajectory[-1]
    else:
        final = sector_propagator(couplings, n, t) @ vec
    state = NodePairState(complex(final[0]), complex(final[1]))
    return EvolutionResult(state=state, sector=n, times=times, trajectory=trajectory)


def _rk4_step_factor(x):
    """Quartic Taylor polynomial ``T4(i x) = sum_j (i x)^j / j!`` for real
    ``x``: one classic fourth-order step of ``dc/dt = i k c`` with ``x = k h``."""
    x2 = x * x
    return (1.0 - x2 / 2.0 * (1.0 - x2 / 12.0)) + 1j * (x * (1.0 - x2 / 6.0))


def evolve_numerical(
    couplings: DerivedCouplings,
    n: int,
    t: float,
    initial: NodePairState,
    samples: int = 0,
) -> EvolutionResult:
    """Integrate the sector equations with a fixed-step fourth-order scheme.

    Works for arbitrary sector frequency offsets.  It integrates the
    rotating-frame equations ``dc/dt = i A c`` with
    ``A = [[d, -S], [-S*, -d]]`` and reports that frame, as
    :func:`evolve_closed_form` does.  The step is
    ``DEFAULT_STEP_FACTOR / k`` for the sector's rate ``k = kappa(n)``; a
    step that is not finite and positive, or a segment of more than 2**53
    whole steps, raises :class:`StepSizeError`.

    Each sample segment takes ``m = floor(length/step + 1e-12)`` whole steps
    and then one shorter tail step ``tau``, if the tail exceeds ``1e-15
    max(|t_end|, 1)``.  For a constant generator the four RK4 stages of a
    step ``h`` collapse to the quartic Taylor polynomial ``T4(i h A)``, and
    since ``A^2 = k^2 I`` every such polynomial, and every product of them,
    is ``p I + q A``.  So the steps act on A's eigenvector for ``+k`` as the
    scalar ``T4(i h k)``, and on the one for ``-k`` as its conjugate.  Each
    segment is the scalar ``T4(i tau k) exp(m log T4(i h k))``, one
    ``cumprod`` gives their running products ``R``, and the state at each
    segment end is ``Re(R) v + i Im(R) (A v) / k``; a zero generator leaves
    ``v`` as it is.  The steps are the same as stepping one at a time; the
    rounding of the running products grows with the number of samples:
    over 100 swap periods of the sqrt(3)-tuned preset, the trajectory
    deviates from the step-by-step reference by at most 2.3e-13 at 2048
    samples and 1.3e-12 at 16384.
    """
    n = _check_sector(n)
    vec = _check_initial(initial)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"integration time must be finite and nonnegative, got {t!r}")
    a = _rotating_generator(couplings, n)
    # Without a rate the generator is zero and one step covers the time.
    k = couplings.kappa(n)
    step = DEFAULT_STEP_FACTOR / k if k != 0.0 else float(t) or 1.0
    if not 0.0 < step < np.inf:
        raise StepSizeError(f"step {step!r} s for rate {k!r} rad/s is not finite and positive")

    times = _sample_times(t, samples)
    grid = times if times is not None else np.array([0.0, float(t)])
    ends, lengths = grid[1:], np.diff(grid)
    # Whole step counts stay exact integers in a double, so the floor is exact.
    if lengths.max() > 2.0**53 * step:
        raise StepSizeError(f"step {step:.6e} s needs more than 2**53 steps in a segment")
    whole = np.floor(lengths / step + 1e-12)
    tails = lengths - whole * step
    tails[tails <= 1e-15 * np.maximum(np.abs(ends), 1.0)] = 0.0
    # exp(m log T4) is the m-th power without rounding that grows with m.
    segments = _rk4_step_factor(k * tails) * np.exp(whole * np.log(_rk4_step_factor(k * step)))
    running = np.cumprod(segments)
    # Each pair (Re R, Im R) times the rows v and i (A v)/k.  With k = 0 the
    # generator is zero and every running product is 1.
    direction = a @ vec / k if k != 0.0 else np.zeros(2, dtype=complex)
    trajectory = np.empty((len(grid), 2), dtype=complex)
    trajectory[0] = vec
    np.matmul(running.view(float).reshape(-1, 2), np.array([vec, 1j * direction]), out=trajectory[1:])
    current = trajectory[-1]
    if times is None:
        trajectory = None
    state = NodePairState(complex(current[0]), complex(current[1]))
    return EvolutionResult(state=state, sector=n, times=times, trajectory=trajectory)


def blockade_error(couplings: DerivedCouplings) -> float | np.ndarray:
    """Peak one-photon transfer amplitude max_t |c2| = |S| / kappa(1), at
    any detuning.

    1 means unimpeded swapping; the sqrt(3) tuning gives 1/2 with an exact
    zero at the swap time; large |Omega_1^(pi)|/|S| suppresses transfer at
    all times.  A stack of coupling sets gives an array of the stack's shape.
    """
    s = abs(couplings.s_coupling)
    k1 = couplings.kappa(1)
    if s == 0.0:  # nothing transfers, and kappa(1) = |varpi_split(1)| may be 0
        return np.zeros(np.shape(k1)) if np.ndim(k1) else 0.0
    return s / k1


def swap_time(couplings: DerivedCouplings) -> float:
    """Duration ``pi/(2|S|)`` of one full swap, the single step of the
    controlled swap gate.

    At a time ``t`` the n=0 rotating-frame propagator equals the code-space
    block of a native ``ISWAP(-2 |S| t)`` up to global phase (real positive
    S, on resonance), so a native ``ISWAP(theta)`` takes ``|theta|/pi`` swap
    times.  Raises ``ValueError`` unless ``|S|`` and the time are both
    finite and nonzero.
    """
    s = abs(couplings.s_coupling)
    t = np.pi / (2.0 * s) if s != 0.0 else np.inf
    if not (s < np.inf and t < np.inf):
        raise ValueError(f"swap time pi/(2|S|) must be finite and nonzero, got |S| = {s!r}")
    return float(t)


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

    The one blockade check: unless ``enforce_condition`` is off, a relative
    deviation of |Omega_1^(pi)| from sqrt(3)|S| that is not within
    ``BLOCKADE_CONDITION_TOL`` raises :class:`BlockadeConditionError` with it
    and the residual one-photon swap amplitude; ``truth-table`` exits 1 on it.
    A relative-phase or sector rotation angle that is not finite raises
    ``ValueError`` first.
    """
    t = swap_time(couplings)
    # The one phase between the sectors' rotating frames.  The sectors' mean
    # frequencies (w1(n) + w2(n))/2 differ only by the per-photon light
    # shift, (N1 - 1) Omega_1^(pi), so with the n=0 mean phase factored out
    # the n=1 block carries exp(i (N1 - 1) Omega_1^(pi) t).  This product is
    # exact and stable; the mean frequencies themselves are ~N times larger.
    rel_angle = (couplings.n_atoms_1 - 1) * couplings.omega_1_pi * t
    if not np.isfinite(rel_angle):
        raise ValueError(f"controlled swap undefined: relative phase angle {rel_angle!r}")
    core0 = sector_propagator(couplings, 0, t)
    core1 = sector_propagator(couplings, 1, t)
    # NaN, so refused, once sqrt(3)|S| overflows: no float |Omega_1^(pi)| meets it.
    target = SQRT3 * abs(couplings.s_coupling)
    deviation = abs(abs(couplings.omega_1_pi) - target) / target
    if enforce_condition and not deviation <= BLOCKADE_CONDITION_TOL:
        raise BlockadeConditionError(deviation, abs(core1[1, 0]))
    rel_phase = np.exp(1j * rel_angle)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = core0
    m[2:, 2:] = rel_phase * core1
    return Unitary(m)

