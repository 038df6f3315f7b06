"""State-vector execution of native programs in the dual-rail code space.

Logical qubit ``j`` is bit ``j`` of the index of ``2^k`` amplitudes
(little-endian).  Physically it lives on the pair ``(2j, 2j+1)`` with code
words ``|0_L> = |q_2j = 0, q_2j+1 = 1>`` and ``|1_L> = |10>``.  Every native
op maps code words to code words, so these amplitudes are the whole state:
the simulator keeps nothing else, and :func:`state_to_json` writes them as
they are.  ISWAP and PHASE act through the code-space block of their pair
matrix; CISWAP applies :data:`~ensembleqc.gates.CONTROLLED_SWAP`, which on
code words is the logical CNOT, a swap of two strided slices.  An op's
leakage is the largest element of its physical matrix coupling the code
space to ``|00>``, ``|11>``.

A lowered program repeats a few distinct ops many times, so each op's
code-space block and leakage are built once per distinct ``(kind, angles)``
(:func:`ensembleqc.compiler._kernel`) and reused at every target.

:func:`_apply_run` is the one apply loop, shared by :func:`run_program`,
:func:`program_matrix` and :func:`circuit_matrix`.  It fuses single-qubit
ops: each qubit keeps one pending 2x2 matrix, and a single-qubit op
multiplies its block onto it, the later op on the left, without touching the
amplitudes.  The amplitudes see a qubit's pending matrix only when it is
flushed: before a CNOT on that qubit (its control first, then its target),
and at the end of the run, in ascending qubit order.  A logical gate lowers
to up to three single-qubit ops, so the passes over the amplitudes drop
about threefold, and results move only in their last bits against an
op-by-op run.  Leakage is still recorded per op: ``run_program`` looks up
each op's ``(block, leakage)`` once.

States are validated at the boundaries: :class:`LogicalState` checks what a
caller builds, and ``run_program`` validates its encoded input and ends with
a validated state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .compiler import NORM_ATOL, NativeProgram, _op_kernel


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

    max_leakage: float
    op_leakages: tuple[float, ...]  # leakage of each op, in order


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
    return np.einsum("ij,ajb->aib", u, a).reshape(amps.shape)


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
    :func:`_one_qubit`.

    Each qubit keeps one pending 2x2 matrix, the product of its single-qubit
    blocks since its last flush with the later block on the left; a lone
    block is kept as it is.  A CNOT first flushes the pending matrices of its
    control, then of its target; the loop ends by flushing what is left in
    ascending qubit order.
    """
    pending: dict[int, np.ndarray] = {}
    for block, targets in steps:
        if block is not None:
            prior = pending.get(targets[0])
            pending[targets[0]] = block if prior is None else block @ prior
            continue
        for qubit in targets:
            if qubit in pending:
                amps = _one_qubit(amps, pending.pop(qubit), qubit)
        amps = _cnot(amps, *targets)
    for qubit in sorted(pending):
        amps = _one_qubit(amps, pending[qubit], qubit)
    return amps


def decode(state: LogicalState) -> np.ndarray:
    """Logical state vector (little-endian, dim 2^k), a writable copy."""
    return state.amplitudes.copy()


def sample_logical(
    state: LogicalState, qubit: int, shots: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Outcomes of ``shots`` code-basis measurements of one logical qubit on
    copies of ``state``, as an int array of 0s and 1s; the state is left as
    it is.

    The shots take one draw ``rng.random(shots)``, the same doubles as
    ``shots`` scalar draws.  The generator (or seed) is injected, never
    ambient, so runs are reproducible.
    """
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} out of range")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    halves = state.amplitudes.reshape(-1, 2, 1 << qubit)
    p0, p1 = (float(np.sum(np.abs(halves[:, b]) ** 2)) for b in (0, 1))
    return (generator.random(shots) < p1 / (p0 + p1)).astype(int)


def measure_logical(
    state: LogicalState, qubit: int, rng: int | np.random.Generator | None = None
) -> tuple[int, LogicalState]:
    """Sample one logical qubit in the code basis, one shot of
    :func:`sample_logical`, and collapse."""
    outcome = int(sample_logical(state, qubit, 1, rng)[0])
    collapsed = state.amplitudes.reshape(-1, 2, 1 << qubit).copy()
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
    kernels = [_op_kernel(op) for op in program.ops]
    amps = _apply_run(encode_basis(initial).amplitudes,
                      ((block, op.targets) for (block, _), op in zip(kernels, program.ops)))
    op_leakages = tuple(leakage for _, leakage in kernels)
    stats = RunStats(max_leakage=max(op_leakages, default=0.0), op_leakages=op_leakages)
    return LogicalState(amps * program.global_phase), stats


def program_matrix(program: NativeProgram) -> np.ndarray:
    """The program's logical unitary, tracked global phase included: one run
    over the 2^k identity columns."""
    program.validate()
    columns = _apply_run(np.eye(2**program.qubit_count, dtype=complex),
                         ((_op_kernel(op)[0], op.targets) for op in program.ops))
    # Amplitudes times phase, the operand order of run_program, so that the
    # two round alike.
    return columns * program.global_phase


def circuit_matrix(circuit, qubit_count: int) -> np.ndarray:
    """Logical unitary of a ``[(name, targets), ...]`` circuit of
    :func:`~ensembleqc.gates.standard_gate` names, through the same kernels;
    each name's matrix is read once."""
    if any(t >= qubit_count for _, targets in circuit for t in targets):
        raise ValueError(f"circuit touches a qubit outside the {qubit_count}-qubit register")
    matrices = {name: gates.standard_gate(name).matrix
                for name in {name for name, _ in circuit} - {"CNOT"}}
    return _apply_run(np.eye(2**qubit_count, dtype=complex),
                      ((matrices.get(name), targets) for name, targets in circuit))


def state_to_json(state: LogicalState) -> list:
    """The 2^k logical amplitudes as [re, im] pairs in index order: logical
    qubit ``j`` is bit ``j`` of the index, on the pair of the module
    docstring."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]
