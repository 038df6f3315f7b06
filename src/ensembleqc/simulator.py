"""State-vector execution of native programs over dual-rail encoded pairs.

Register layout
---------------
Physical qubit ``k`` is bit ``k`` of the amplitude index (little-endian).
Logical qubit ``j`` lives on the physical pair ``(2j, 2j+1)`` with code words
``|0_L> = |q_2j = 0, q_2j+1 = 1>`` and ``|1_L> = |10>``.  Because a pair's
two bits are adjacent in the index, the register reshapes cleanly into one
base-4 digit per pair; in digit terms ``|0_L>`` is digit 2 and ``|1_L>`` is
digit 1, and digits 0/3 span the leakage space.

The controlled-swap operation applies :data:`ensembleqc.gates.CONTROLLED_SWAP`
(also the matrix :func:`~ensembleqc.gates.verify_encoded_cnot` checks): it
exchanges the target pair's two physical qubits conditioned on the *first
physical qubit of the control pair*, which on code states means conditioning
on the control being ``|1_L>``.  This is a register-level stand-in for the
photon-mediated control and makes a single operation act as the exact
logical CNOT.

``run_program`` is the one apply loop.  It records the leakage after every
op and folds the program's tracked global phase into the returned state so
logical-equivalence checks are exact scalar identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .compiler import CISWAP_KIND, ISWAP_KIND, PHASE_KIND, NativeOp, NativeProgram

NORM_ATOL = 1e-10

# Base-4 digit values of the code words (digit = 2*b_second + b_first).
_DIGIT_0L = 2
_DIGIT_1L = 1


class LeakedStateError(ValueError):
    """Operation undefined: probability mass sits outside the code space."""

    def __init__(self, leak: float, tolerance: float):
        self.leakage = float(leak)
        super().__init__(
            f"leakage {self.leakage:.3e} exceeds tolerance {tolerance:.3e}; "
            "the state left the code space"
        )


@dataclass(frozen=True)
class PhysicalState:
    """Register of ``qubit_count`` logical qubits (two physical each)."""

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)  # private copy
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        if amps.shape != (4**self.qubit_count,):
            raise ValueError(
                f"expected {4 ** self.qubit_count} amplitudes for "
                f"{self.qubit_count} logical qubits, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def physical_qubits(self) -> int:
        return 2 * self.qubit_count

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class RunStats:
    """Bookkeeping of one program execution."""

    max_leakage: float
    op_count: int
    global_phase: complex
    op_leakages: tuple[float, ...]  # leakage after each op, in order


def encode_basis(bits: str) -> PhysicalState:
    """Product state encoding a logical bitstring, character j = qubit j."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string over 0/1, got {bits!r}")
    index = 0
    for j, b in enumerate(bits):
        # logical 0 sets the pair's second qubit, logical 1 the first
        bit_position = 2 * j if b == "1" else 2 * j + 1
        index |= 1 << bit_position
    amps = np.zeros(4 ** len(bits), dtype=complex)
    amps[index] = 1.0
    return PhysicalState(amplitudes=amps, qubit_count=len(bits))


def encode_state(logical: np.ndarray) -> PhysicalState:
    """Embed a normalized logical state vector (little-endian, dim 2^k)."""
    logical = np.asarray(logical, dtype=complex)
    k = int(np.log2(logical.size))
    if logical.shape != (2**k,) or logical.size < 2:
        raise ValueError(f"expected a 2^k vector, got shape {logical.shape}")
    amps = np.zeros(4**k, dtype=complex)
    for idx in np.nonzero(logical)[0]:
        bits = "".join("1" if (idx >> j) & 1 else "0" for j in range(k))
        amps += logical[idx] * encode_basis(bits).amplitudes
    return PhysicalState(amplitudes=amps, qubit_count=k)


def _apply_unitary(amps: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n_phys: int) -> np.ndarray:
    """Apply a k-qubit unitary on the listed physical qubits.

    The unitary's local basis index is ``sum_i b_{qubits[i]} 2^{k-1-i}``
    (first listed qubit = most significant local bit).
    """
    k = len(qubits)
    axes = [n_phys - 1 - q for q in qubits]
    psi = amps.reshape([2] * n_phys)
    u_t = u.reshape([2] * (2 * k))
    psi = np.tensordot(u_t, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return np.ascontiguousarray(psi).reshape(-1)


def apply_op(state: PhysicalState, op: NativeOp) -> PhysicalState:
    """Apply one native operation; returns a new state."""
    n_phys = state.physical_qubits
    if any(t >= state.qubit_count for t in op.targets):
        raise ValueError(
            f"op {op.format()!r} touches a pair outside the register "
            f"({state.qubit_count} logical qubits)"
        )
    if op.kind == ISWAP_KIND:
        pair = op.targets[0]
        u = gates.iswap(op.angles[0]).matrix
        qubits = (2 * pair, 2 * pair + 1)
    elif op.kind == PHASE_KIND:
        pair = op.targets[0]
        u = gates.phase_gate(op.angles[0], op.angles[1]).matrix
        qubits = (2 * pair, 2 * pair + 1)
    elif op.kind == CISWAP_KIND:
        control, target = op.targets
        u = gates.CONTROLLED_SWAP
        qubits = (2 * control, 2 * target, 2 * target + 1)
    else:  # pragma: no cover - NativeOp validates kinds
        raise ValueError(f"unknown op kind {op.kind!r}")
    amps = _apply_unitary(state.amplitudes, u, qubits, n_phys)
    return PhysicalState(amplitudes=amps, qubit_count=state.qubit_count)


def _pair_digits(state: PhysicalState) -> np.ndarray:
    """View of the amplitudes with one base-4 axis per pair; axis i holds
    pair ``qubit_count - 1 - i``."""
    return state.amplitudes.reshape([4] * state.qubit_count)


def leakage(state: PhysicalState) -> float:
    """Probability mass outside the code space (any pair in |00> or |11>)."""
    probs = np.abs(_pair_digits(state)) ** 2
    code = probs
    for _ in range(state.qubit_count):
        code = code[(_DIGIT_1L, _DIGIT_0L), ...].sum(axis=0)
    return max(float(1.0 - code), 0.0)


def decode(state: PhysicalState, leakage_tol: float = 1e-9) -> np.ndarray:
    """Logical state vector (little-endian, dim 2^k).

    Requires the physical state to sit in the code space up to
    ``leakage_tol``.
    """
    leak = leakage(state)
    if leak > leakage_tol:
        raise LeakedStateError(leak, leakage_tol)
    digits = _pair_digits(state)
    k = state.qubit_count
    logical = np.empty(2**k, dtype=complex)
    for idx in range(2**k):
        # axis i of the digit array is pair k-1-i
        selector = tuple(
            _DIGIT_1L if (idx >> (k - 1 - i)) & 1 else _DIGIT_0L for i in range(k)
        )
        logical[idx] = digits[selector]
    return logical


def measure_logical(
    state: PhysicalState,
    qubit: int,
    rng: int | np.random.Generator | None = None,
    leakage_tol: float = 1e-9,
) -> tuple[int, PhysicalState]:
    """Sample the code-word populations of one pair and collapse.

    The generator (or seed) is injected, never ambient, so runs are
    reproducible.  Measurement is undefined outside the code space: leakage
    beyond ``leakage_tol`` raises :class:`LeakedStateError` rather than being
    silently renormalized.
    """
    if not 0 <= qubit < state.qubit_count:
        raise ValueError(f"qubit {qubit} out of range")
    leak = leakage(state)
    if leak > leakage_tol:
        raise LeakedStateError(leak, leakage_tol)
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    digits = _pair_digits(state)
    axis = state.qubit_count - 1 - qubit
    probs = np.abs(digits) ** 2
    marginal = probs.sum(axis=tuple(i for i in range(state.qubit_count) if i != axis))
    p0, p1 = float(marginal[_DIGIT_0L]), float(marginal[_DIGIT_1L])
    outcome = 1 if generator.random() < p1 / (p0 + p1) else 0
    keep_digit = _DIGIT_1L if outcome else _DIGIT_0L
    collapsed = digits.copy()
    selector = [slice(None)] * state.qubit_count
    for d in range(4):
        if d != keep_digit:
            selector[axis] = d
            collapsed[tuple(selector)] = 0.0
    collapsed = collapsed.reshape(-1)
    collapsed /= np.linalg.norm(collapsed)
    return outcome, PhysicalState(amplitudes=collapsed, qubit_count=state.qubit_count)


def run_program(
    program: NativeProgram, initial: str
) -> tuple[PhysicalState, RunStats]:
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
    max_leak = leakage(state)
    op_leakages = []
    for op in program.ops:
        state = apply_op(state, op)
        op_leakages.append(leakage(state))
        max_leak = max(max_leak, op_leakages[-1])
    final = PhysicalState(
        amplitudes=state.amplitudes * program.global_phase,
        qubit_count=state.qubit_count,
    )
    stats = RunStats(
        max_leakage=max_leak,
        op_count=len(program.ops),
        global_phase=complex(program.global_phase),
        op_leakages=tuple(op_leakages),
    )
    return final, stats


def state_to_json(state: PhysicalState) -> list:
    """Amplitudes as a JSON array of [re, im] pairs."""
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def state_from_json(data, qubit_count: int) -> PhysicalState:
    amps = np.array([complex(re, im) for re, im in data])
    return PhysicalState(amplitudes=amps, qubit_count=qubit_count)
