"""Two-node swap dynamics per photon sector: closed form, direct integration,
blockade quantification, and extraction of the photon-controlled swap gate.

Phase convention
----------------
The amplitudes obey ``dc/dt = +i M(n) c`` with the Hermitian generator
``M(n) = [[w1(n), -S], [-S*, w2(n)]]``, so the exact propagator is
``exp(+i M(n) t)`` and the sector's mean frequency appears as a global factor
``exp(+i varpi_mean(n) t)``.  Results carry a ``frame`` tag: ``"lab"`` keeps
that factor, ``"rotating"`` drops it.  On resonance the rotating-frame
amplitudes for the node-1-excited start are::

    c1(t) = cos(k t) + i (d/k) sin(k t)      d = varpi_split(n)
    c2(t) = -i (S*/k) sin(k t)               k = sqrt(d^2 + |S|^2)

At the swap time ``t = pi/(2|S|)`` the photon-free sector gives
``(c1, c2) = (0, -i)`` for real positive S, and under the blockade tuning
``|Omega_1^(pi)| = sqrt(3) |S|`` the one-photon sector returns with
``c1 = -1`` (``k t = pi``), so a photon freezes the swap completely.
"""

from __future__ import annotations

import csv
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
_STEP_LIMIT_FACTOR = 0.1

SQRT3 = float(np.sqrt(3.0))


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
    """Integration step missing, non-positive, or too coarse."""

    def __init__(self, message: str, suggested_step: float | None = None):
        self.suggested_step = suggested_step
        if suggested_step is not None:
            message += f" (suggested step: {suggested_step:.6e} s)"
        super().__init__(message)


@dataclass(frozen=True)
class NodePairState:
    """Amplitudes over the two node-excitation states for one photon sector.

    ``n_pi_2`` is the second microcavity's photon number, pinned to zero by
    the model's restriction.
    """

    c1: complex
    c2: complex
    n_pi_2: int = 0

    def __post_init__(self) -> None:
        if self.n_pi_2 != 0:
            raise ValueError("the second microcavity mode must stay in vacuum")
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
    """Final state plus an optional sampled trajectory.

    ``frame`` records whether the mean-frequency factor exp(i varpi_mean t)
    is included ("lab") or has been factored out ("rotating").
    """

    state: NodePairState
    sector: int
    frame: str
    times: np.ndarray | None = None
    trajectory: np.ndarray | None = None


def _check_frame(frame: str) -> str:
    if frame not in (FRAME_LAB, FRAME_ROTATING):
        raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")
    return frame


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
    and that coupling set alone.
    """
    n = _check_sector(n)
    frame = _check_frame(frame)
    d = couplings.varpi_split(n)
    s = couplings.s_coupling
    k = np.hypot(d, abs(s))
    # Each entry is computed over the whole stack and written to its slot, so
    # each element takes the same scalar arithmetic, rounding included,
    # whether it comes alone or in an array.  k vanishes only with d = S = 0,
    # where the propagator is the identity and the sinc (0/0) is set to 0.
    kt = k * t
    cos_kt = np.cos(kt)
    with np.errstate(invalid="ignore"):
        sinc = np.where(k == 0.0, 0.0, np.sin(kt) / k)
    u = np.empty(np.shape(cos_kt) + (2, 2), dtype=complex)
    u[..., 0, 0] = cos_kt + 1j * d * sinc
    u[..., 0, 1] = -1j * s * sinc
    u[..., 1, 0] = -1j * np.conj(s) * sinc
    u[..., 1, 1] = cos_kt - 1j * d * sinc
    if frame == FRAME_LAB:
        # The phase is the left factor, as in the scalar product phase * U.
        np.multiply(np.exp(1j * couplings.varpi_mean(n) * t)[..., None, None], u, out=u)
    return u


def _resonance_gate(couplings: DerivedCouplings, resonance_tol: float) -> None:
    if abs(couplings.s_coupling) == 0.0:
        return  # diagonal dynamics: no transfer, the closed form is exact
    scale = max(abs(couplings.s_coupling), abs(couplings.omega_1_pi))
    residual = couplings.resonance_residual()
    if abs(residual) > resonance_tol * scale:
        raise ResonanceConditionError(residual, resonance_tol * scale)


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
    frame: str = FRAME_LAB,
    resonance_tol: float = 1e-8,
) -> EvolutionResult:
    """Evolve one photon sector by the exact propagator.

    Refuses (with :class:`ResonanceConditionError`) when the resonance
    residual exceeds ``resonance_tol`` relative to the dynamical scale
    ``max(|S|, |Omega_1^(pi)|)``; the direct integrator has no such
    restriction.  ``samples > 0`` additionally returns the trajectory on a
    uniform grid of ``samples + 1`` points including both endpoints.
    """
    n = _check_sector(n)
    frame = _check_frame(frame)
    vec = _check_initial(initial)
    _resonance_gate(couplings, resonance_tol)
    times = _sample_times(t, samples)
    trajectory = None
    if times is not None:
        trajectory = sector_propagator(couplings, n, times, frame) @ vec
    final = sector_propagator(couplings, n, t, frame) @ vec
    state = NodePairState(complex(final[0]), complex(final[1]))
    return EvolutionResult(state=state, sector=n, frame=frame, times=times, trajectory=trajectory)


def _rk4_step_matrix(a: np.ndarray, h) -> np.ndarray:
    """One classic fourth-order step for dc/dt = i A c, per step length in ``h``.

    For a constant linear generator the four-stage scheme collapses exactly
    to the quartic Taylor polynomial sum_j (i h A)^j / j! of exp(i h A),
    which is applied as a single matrix per step.  An array ``h`` gives a
    stack of shape ``np.shape(h) + (2, 2)``.
    """
    z = 1j * np.asarray(h, dtype=float)[..., None, None]
    a2 = a @ a
    a3 = a2 @ a
    return np.eye(2) + z * (a + z * (a2 / 2.0 + z * (a3 / 6.0 + z * (a3 @ a) / 24.0)))


def evolve_numerical(
    couplings: DerivedCouplings,
    n: int,
    t: float,
    initial: NodePairState,
    step: float | None = None,
    samples: int = 0,
    frame: str = FRAME_LAB,
) -> EvolutionResult:
    """Integrate the sector equations with a fixed-step fourth-order scheme.

    Works for arbitrary sector frequency offsets (no resonance requirement).
    Integration happens in the rotating frame where the generator norm is
    kappa; the exact mean-frequency phase is multiplied back for lab-frame
    output.  The step must satisfy ``step * kappa < 0.1``; the default is
    ``1/(256 kappa)``.

    Each sample segment takes ``m = floor(length/step + 1e-12)`` whole steps
    and then one shorter tail step, if the tail exceeds ``1e-15 max(|t_end|,
    1)``.  The segment is applied as one matrix ``R(tail) @ F^m``, where ``F``
    is the step matrix, ``F^m`` comes by repeated squaring once per distinct
    ``m`` and the tail steps ``R`` are built together; the steps taken are the
    same as stepping one at a time.
    """
    n = _check_sector(n)
    frame = _check_frame(frame)
    vec = _check_initial(initial)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"integration time must be finite and nonnegative, got {t!r}")
    a = _rotating_generator(couplings, n)
    # Rate scale: formula kappa and the actual generator norm can differ off
    # resonance; the step check honors whichever is larger.
    k_eff = float(np.hypot(couplings.varpi_split(n), abs(couplings.s_coupling)))
    k_scale = max(couplings.kappa(n), k_eff)
    if step is None:
        step = DEFAULT_STEP_FACTOR / k_scale if k_scale > 0.0 else float(t) or 1.0
    if step <= 0.0:
        raise StepSizeError(f"step must be positive, got {step!r}")
    if k_scale > 0.0 and step * k_scale >= _STEP_LIMIT_FACTOR:
        raise StepSizeError(
            f"step {step:.6e} s too coarse for rate {k_scale:.6e} rad/s",
            suggested_step=DEFAULT_STEP_FACTOR / k_scale,
        )

    times = _sample_times(t, samples)
    ends = times[1:] if times is not None else np.array([float(t)])
    lengths = np.diff(ends, prepend=0.0)
    whole = np.floor(lengths / step + 1e-12)
    tails = lengths - whole * step
    has_tail = tails > 1e-15 * np.maximum(np.abs(ends), 1.0)
    full = _rk4_step_matrix(a, step)
    counts, which = np.unique(whole.astype(int), return_inverse=True)
    segments = np.stack([np.linalg.matrix_power(full, int(m)) for m in counts])[which]
    segments[has_tail] = _rk4_step_matrix(a, tails[has_tail]) @ segments[has_tail]

    # The one loop left is over samples; plain complex arithmetic on 2x2
    # matrices is faster there than a numpy call per segment.
    c1, c2 = vec.tolist()
    states = [(c1, c2)]
    for (m11, m12), (m21, m22) in segments.tolist():
        c1, c2 = m11 * c1 + m12 * c2, m21 * c1 + m22 * c2
        states.append((c1, c2))
    current = np.array(states[-1])
    trajectory = np.array(states) if times is not None else None

    if frame == FRAME_LAB:
        if trajectory is not None:
            trajectory *= np.exp(1j * couplings.varpi_mean(n) * times)[:, None]
        current = current * np.exp(1j * couplings.varpi_mean(n) * t)
    state = NodePairState(complex(current[0]), complex(current[1]))
    return EvolutionResult(state=state, sector=n, frame=frame, times=times, trajectory=trajectory)


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


def iswap_schedule(couplings: DerivedCouplings, theta: float) -> float:
    """Evolution time for a swap rotation by ``theta``: t = theta / |S|."""
    s = abs(couplings.s_coupling)
    if s == 0.0:
        raise ValueError("swap coupling S is zero; no rotation is possible")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return float(theta) / s


def blockade_condition_deviation(couplings: DerivedCouplings) -> float:
    """Relative deviation of |Omega_1^(pi)| from sqrt(3) |S|."""
    target = SQRT3 * abs(couplings.s_coupling)
    if target == 0.0:
        return np.inf
    return abs(abs(couplings.omega_1_pi) - target) / target


def extract_controlled_iswap(
    couplings: DerivedCouplings,
    t: float | None = None,
    condition_tol: float = 1e-9,
    enforce_condition: bool = True,
) -> Unitary:
    """Assemble the photon-controlled swap gate from the sector propagators.

    Returns a 4x4 unitary on the basis (node state, photon number) ordered
    ``[psi1 n=0, psi2 n=0, psi1 n=1, psi2 n=1]``, with the photon-free
    sector's global phase factored out.  At the swap time ``pi/(2|S|)`` under
    the sqrt(3) blockade tuning the photon-free block is
    ``[[0, -i], [-i, 0]]`` (real positive S) and the one-photon block is
    ``-exp(i (N1 - 1) Omega_1^(pi) t) I``, a unit-modulus diagonal.

    Unless ``enforce_condition`` is off, a relative deviation of the blockade
    tuning beyond ``condition_tol`` raises :class:`BlockadeConditionError`
    carrying the residual one-photon swap amplitude.
    """
    s = abs(couplings.s_coupling)
    if t is None:
        if s == 0.0:
            raise ValueError("swap coupling S is zero; gate time undefined")
        t = np.pi / (2.0 * s)
    core0 = sector_propagator(couplings, 0, t, frame=FRAME_ROTATING)
    core1 = sector_propagator(couplings, 1, t, frame=FRAME_ROTATING)
    if enforce_condition and blockade_condition_deviation(couplings) > condition_tol:
        raise BlockadeConditionError(abs(core1[1, 0]))
    # Relative phase between the sectors: the only n dependence of the mean
    # frequency is the per-photon light shift, so varpi_mean(1) -
    # varpi_mean(0) = (N1 - 1) * Omega_1^(pi) exactly (and stably).
    rel_phase = np.exp(1j * (couplings.n_atoms_1 - 1) * couplings.omega_1_pi * t)
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = core0
    m[2:, 2:] = rel_phase * core1
    return Unitary(m)


def trajectory_to_csv(result: EvolutionResult, file) -> None:
    """Write a sampled trajectory as CSV.

    Columns: t, Re c1, Im c1, Re c2, Im c2, norm.  The sector and frame go
    into a leading comment line.
    """
    if result.times is None or result.trajectory is None:
        raise ValueError("evolution result carries no trajectory; pass samples > 0")
    file.write(f"# sector={result.sector} frame={result.frame}\n")
    writer = csv.writer(file)
    writer.writerow(["t", "re_c1", "im_c1", "re_c2", "im_c2", "norm"])
    for ti, (c1, c2) in zip(result.times, result.trajectory):
        norm = np.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
        writer.writerow(
            [
                f"{ti:.12g}",
                f"{c1.real:.12g}",
                f"{c1.imag:.12g}",
                f"{c2.real:.12g}",
                f"{c2.imag:.12g}",
                f"{norm:.12g}",
            ]
        )
