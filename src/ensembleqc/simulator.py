"""State-vector execution of native programs in the dual-rail code space.

Logical qubit ``j`` is bit ``j`` of the index of ``2^k`` amplitudes
(little-endian).  Physically it lives on the pair ``(2j, 2j+1)`` with code
words ``|0_L> = |q_2j = 0, q_2j+1 = 1>`` and ``|1_L> = |10>``.  Every native
op maps code words to code words, so these amplitudes are the whole state:
the simulator keeps nothing else, and ``simulate --out`` writes them as
they are.  ISWAP and PHASE act through their 2x2 code-space block, which
is their whole action on code words; CISWAP is the logical CNOT on code
words, a swap of two strided slices.  An op's leakage out of the code space
is 0 by construction, so no run measures it; the tests check it on pair
matrices that only the 4^k test oracle builds.

A program may repeat an op many times, so each op's code-space block is
built once per distinct ``(kind, angles)``
(:func:`ensembleqc.compiler._kernel`) and reused at every target.

:func:`_apply_run` is the one apply loop, used by :func:`run_program`.  It
fuses single-qubit ops with :func:`ensembleqc.compiler.fused_runs`: each
qubit keeps one pending 2x2 matrix, and a single-qubit op multiplies its
block onto it without touching the amplitudes.  The amplitudes see a qubit's
pending matrix only when it is flushed: before a CNOT on that qubit (its
control first, then its target), and at the end of the run, in ascending
qubit order.  So each run of single-qubit ops costs one pass over the
amplitudes, and results move only in their last bits against an op-by-op
run.

States are validated at the boundaries: :class:`LogicalState` checks what a
caller builds, and ``run_program`` validates its encoded input and ends with
a validated state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import NORM_ATOL, NativeProgram, _checked_targets, _op_kernel, fused_runs


@dataclass(frozen=True)
class LogicalState:
    """Register of ``k`` logical qubits: ``2^k`` amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)  # private copy
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"expected 2^k amplitudes with k >= 1, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {float(norm)!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def qubit_count(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class RunStats:
    """Bookkeeping of one program execution."""

    norm_defect: float  # |norm - 1| of the returned state


def encode_basis(bits: str) -> LogicalState:
    """Basis state of a logical bitstring, character j = qubit j."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string over 0/1, got {bits!r}")
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[sum(1 << j for j, b in enumerate(bits) if b == "1")] = 1.0
    return LogicalState(amps)


def _one_qubit(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` to ``qubit``.  Axis 0 of ``amps`` is the
    2^k index; a second axis, if any, holds columns."""
    a = amps.reshape(amps.shape[0] >> (qubit + 1), 2, -1)
    if not 2 <= a.shape[2] <= 8:
        return np.einsum("ij,ajb->aib", u, a).reshape(amps.shape)
    # On these trailing axes one contraction per output row: same bits, 3-7x faster.
    out = np.empty_like(a)
    for i in range(2):
        np.einsum("j,ajb->ab", u[i], a, out=out[:, i])
    return out.reshape(amps.shape)


def _cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Swap the target's two slices where the control bit is 1; axes as in
    :func:`_one_qubit`.  A copy with two strided slices written from the
    input: a pure move, no index array."""
    hi, lo = max(control, target), min(control, target)
    shape = (amps.shape[0] >> (hi + 1), 2, (1 << hi) >> (lo + 1), 2, 1 << lo, -1)
    out = amps.copy()
    src, dst = amps.reshape(shape), out.reshape(shape)
    # Axis 1 holds bit hi and axis 3 bit lo.  Where the control bit is 1, the
    # target's 0 slice and 1 slice trade places.
    one = (slice(None), 1, slice(None), 1)
    zero = ((slice(None), 1, slice(None), 0) if control > target
            else (slice(None), 0, slice(None), 1))
    dst[zero], dst[one] = src[one], src[zero]
    return out


def _apply_run(amps: np.ndarray, steps) -> np.ndarray:
    """The one apply loop: ``steps`` is an iterable of ``(block, targets)``,
    a 2x2 block on ``targets[0]`` or ``None`` for the CNOT on
    ``(control, target)``, applied in order to amplitudes laid out as in
    :func:`_one_qubit`, one pass per product that
    :func:`~ensembleqc.compiler.fused_runs` flushes."""
    for block, targets in fused_runs(steps):
        amps = _cnot(amps, *targets) if block is None else _one_qubit(amps, block, targets[0])
    return amps


def decode(state: LogicalState) -> np.ndarray:
    """Logical state vector (little-endian, dim 2^k), a writable copy."""
    return state.amplitudes.copy()


def measure_logical(
    state: LogicalState, qubit: int, rng: int | np.random.Generator | None = None
) -> tuple[int, LogicalState]:
    """Measure one logical qubit in the code basis and collapse.

    The outcome takes one draw ``rng.random()``: 1 if it falls below the
    probability of the qubit's 1.  The generator (or seed) is injected,
    never ambient, so runs are reproducible.  ``qubit`` obeys the op target
    rule (:func:`compiler._checked_targets`) and must be in the register.
    """
    (qubit,) = _checked_targets("measure", (qubit,), 1)
    if qubit >= state.qubit_count:
        raise ValueError(f"qubit {qubit} out of range")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    halves = state.amplitudes.reshape(-1, 2, 1 << qubit)
    p0, p1 = (float(np.sum(np.abs(halves[:, b]) ** 2)) for b in (0, 1))
    outcome = int(generator.random() < p1 / (p0 + p1))
    collapsed = halves.copy()
    collapsed[:, 1 - outcome] = 0.0
    return outcome, LogicalState(collapsed.reshape(-1) / np.linalg.norm(collapsed))


def run_program(program: NativeProgram, initial: str) -> tuple[LogicalState, RunStats]:
    """Encode, apply the ops in order, and accumulate execution stats.

    The program's global phase is multiplied into the returned state, so the
    result equals the tracked-phase matrix action exactly.  Deterministic:
    identical inputs give identical outputs.
    """
    program.validate()
    if len(initial) != program.qubit_count:
        raise ValueError(
            f"initial bitstring length {len(initial)} does not match the "
            f"{program.qubit_count}-qubit program"
        )
    amps = _apply_run(encode_basis(initial).amplitudes,
                      ((_op_kernel(op), op.targets) for op in program.ops))
    state = LogicalState(amps * program.global_phase)
    return state, RunStats(norm_defect=abs(state.norm() - 1.0))
