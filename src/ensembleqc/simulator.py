"""State-vector execution of native programs in the dual-rail code space.

Logical qubit ``j`` is bit ``j`` of the index of ``2^k`` amplitudes
(little-endian).  Physically it lives on the pair ``(2j, 2j+1)`` with code
words ``|0_L> = |q_2j = 0, q_2j+1 = 1>`` and ``|1_L> = |10>``.  Every native
op maps code words to code words, so the simulator keeps only their
amplitudes, and :func:`state_to_json` writes them back at their physical
indices.  ISWAP and PHASE act through the code-space block of their pair
matrix; CISWAP applies :data:`~ensembleqc.gates.CONTROLLED_SWAP`, which on
code words is the logical CNOT (:func:`~ensembleqc.gates.verify_encoded_cnot`),
a slice swap.  An op's leakage is the largest element of its physical matrix
coupling the code space to ``|00>``, ``|11>``.  ``run_program`` is the one
apply loop.

A lowered program repeats a few distinct ops many times, so each op's
code-space block and leakage are built once per distinct ``(kind, angles)``
(:func:`_kernel`) and reused at every target.  States are validated at the
boundaries: :class:`LogicalState` checks what a caller builds, while
:func:`apply_op` wraps the kernel's fresh output without a copy or norm
check, since a unitary kernel keeps a valid state valid.  ``run_program``
ends with a validated state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .compiler import CISWAP_KIND, ISWAP_KIND, NativeOp, NativeProgram

NORM_ATOL = 1e-10


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
            raise ValueError(f"state norm {norm!r} deviates from 1")
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
    op_count: int
    global_phase: complex
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
    :func:`_one_qubit`."""
    index = np.arange(amps.shape[0])
    return amps[index ^ (((index >> control) & 1) << target)]


# Bounded, since a program read from JSON may carry any number of angles.
@functools.lru_cache(maxsize=1024)
def _kernel(kind: str, angles: tuple[float, ...], zero_signs: tuple[float, ...]):
    """``(block, leakage)`` of every op of one kind and angles, whatever its
    targets: the 2x2 code-space block (None for CISWAP, a slice swap) and the
    largest element of the physical matrix coupling the code space to the
    leakage states.  ``zero_signs`` only splits the cache key, because
    ``0.0 == -0.0`` while their matrices can differ in the sign of a zero."""
    if kind == CISWAP_KIND:
        return None, gates.code_space_coupling(gates.CONTROLLED_SWAP)
    pair = gates.iswap(*angles) if kind == ISWAP_KIND else gates.phase_gate(*angles)
    return gates.restrict_to_logical(pair).matrix, gates.code_space_coupling(pair)


def _op_kernel(op: NativeOp):
    return _kernel(op.kind, op.angles, tuple(math.copysign(1.0, a) for a in op.angles))


def _act(amps: np.ndarray, op: NativeOp) -> np.ndarray:
    """``op`` applied to amplitudes laid out as in :func:`_one_qubit`: the one
    dispatch on op kind."""
    if op.kind == CISWAP_KIND:
        return _cnot(amps, *op.targets)
    return _one_qubit(amps, _op_kernel(op)[0], op.targets[0])


def apply_op(state: LogicalState, op: NativeOp) -> LogicalState:
    """Apply one native operation; returns a new state."""
    if any(t >= state.qubit_count for t in op.targets):
        raise ValueError(
            f"op {op.format()!r} touches a pair outside the register "
            f"({state.qubit_count} logical qubits)"
        )
    # The kernel's output is a fresh array, and a unitary keeps a valid state
    # valid: it becomes the new state without LogicalState's copy and norm check.
    amps = _act(state.amplitudes, op)
    amps.setflags(write=False)
    out = object.__new__(LogicalState)
    object.__setattr__(out, "amplitudes", amps)
    return out


def decode(state: LogicalState) -> np.ndarray:
    """Logical state vector (little-endian, dim 2^k), a writable copy."""
    return state.amplitudes.copy()


def measure_logical(
    state: LogicalState, qubit: int, rng: int | np.random.Generator | None = None
) -> tuple[int, LogicalState]:
    """Sample one logical qubit in the code basis and collapse.

    The generator (or seed) is injected, never ambient, so runs are
    reproducible.
    """
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} out of range")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    halves = state.amplitudes.reshape(-1, 2, 1 << qubit)
    p0, p1 = (float(np.sum(np.abs(halves[:, b]) ** 2)) for b in (0, 1))
    outcome = 1 if generator.random() < p1 / (p0 + p1) else 0
    collapsed = halves.copy()
    collapsed[:, 1 - outcome] = 0.0
    return outcome, LogicalState(collapsed.reshape(-1) / np.linalg.norm(collapsed))


def run_program(program: NativeProgram, initial: str) -> tuple[LogicalState, RunStats]:
    """Encode, apply the ops in order, and accumulate execution stats.

    The program's global phase is multiplied into the returned state (and
    recorded in the stats), so the result equals the tracked-phase matrix
    action exactly.  Deterministic: identical inputs give identical outputs.
    """
    program.validate()
    if len(initial) != program.qubit_count:
        raise ValueError(
            f"initial bitstring length {len(initial)} does not match the "
            f"{program.qubit_count}-qubit program"
        )
    state = encode_basis(initial)
    op_leakages = []
    for op in program.ops:
        state = apply_op(state, op)
        op_leakages.append(_op_kernel(op)[1])
    stats = RunStats(
        max_leakage=max(op_leakages, default=0.0),
        op_count=len(program.ops),
        global_phase=complex(program.global_phase),
        op_leakages=tuple(op_leakages),
    )
    return LogicalState(state.amplitudes * program.global_phase), stats


def program_matrix(program: NativeProgram) -> np.ndarray:
    """The program's logical unitary, tracked global phase included: one run
    over the 2^k identity columns."""
    program.validate()
    columns = np.eye(2**program.qubit_count, dtype=complex)
    for op in program.ops:
        columns = _act(columns, op)
    return program.global_phase * columns


def circuit_matrix(circuit, qubit_count: int) -> np.ndarray:
    """Logical unitary of a ``[(name, targets), ...]`` circuit of
    :func:`~ensembleqc.gates.standard_gate` names, through the same kernels;
    each name's matrix is read once."""
    if any(t >= qubit_count for _, targets in circuit for t in targets):
        raise ValueError(f"circuit touches a qubit outside the {qubit_count}-qubit register")
    matrices = {name: gates.standard_gate(name).matrix
                for name in {name for name, _ in circuit} - {"CNOT"}}
    columns = np.eye(2**qubit_count, dtype=complex)
    for name, targets in circuit:
        if name == "CNOT":
            columns = _cnot(columns, *targets)
        else:
            columns = _one_qubit(columns, matrices[name], targets[0])
    return columns


def state_to_json(state: LogicalState) -> list:
    """The physical register's 4^k amplitudes as [re, im] pairs.  Physical
    qubit ``m`` is bit ``m`` of the index; pair ``j`` sets bit ``2j+1`` for
    logical 0 and bit ``2j`` for logical 1; all other entries are zero."""
    logical = np.arange(2**state.qubit_count)
    physical = sum((2 - ((logical >> j) & 1)) << (2 * j) for j in range(state.qubit_count))
    amps = np.zeros(4**state.qubit_count, dtype=complex)
    amps[physical] = state.amplitudes
    return [[float(a.real), float(a.imag)] for a in amps]
