"""Logical-space oracle for the benchmark's output checks.

Every matrix is written out here rather than taken from ``ensembleqc``, and
circuits act on 2^k logical amplitudes by index manipulation, so a check
shares no code with the simulator, the compiler or the CLI it judges.
Qubit ``q`` is bit ``q`` of the basis index (little-endian), the convention
of ``ensembleqc``; character ``j`` of a bitstring is qubit ``j``.
"""

from __future__ import annotations

import numpy as np

_R2 = 1.0 / np.sqrt(2.0)

STANDARD = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[_R2, _R2], [_R2, -_R2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(0.25j * np.pi)]], dtype=complex),
}


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


# Code-space action of the fixed-set generators, keyed by the names
# ``approximate_fixed_set`` reports in its words.
FIXED_LETTERS = {
    "ISWAP(pi/2)": rx(-np.pi / 2),
    "PHASE(pi/2)": rz(np.pi / 2),
    "PHASE(pi/4)": rz(np.pi / 4),
}


def apply_1q(states: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """Apply a 2x2 matrix to qubit ``q`` of a vector or of matrix columns."""
    idx = np.arange(states.shape[0])
    bit = (idx >> q) & 1
    low = idx & ~(1 << q)
    high = low | (1 << q)
    shape = (-1,) + (1,) * (states.ndim - 1)
    return u[bit, 0].reshape(shape) * states[low] + u[bit, 1].reshape(shape) * states[high]


def apply_cnot(states: np.ndarray, control: int, target: int) -> np.ndarray:
    idx = np.arange(states.shape[0])
    return states[idx ^ (((idx >> control) & 1) << target)]


def apply_circuit(circuit, states: np.ndarray) -> np.ndarray:
    """Act with a ``[(name, targets), ...]`` circuit, first gate first."""
    for name, targets in circuit:
        if name == "CNOT":
            states = apply_cnot(states, *targets)
        else:
            states = apply_1q(states, STANDARD[name], targets[0])
    return states


def apply_native(program, states: np.ndarray) -> np.ndarray:
    """Act with a lowered program through the code-space action of each op:
    ISWAP(t) is R_x(-t), PHASE(t, p) is exp(i p/2) R_z(t), and CISWAP is the
    logical CNOT; the tracked global phase multiplies the result."""
    for op in program.ops:
        if op.kind == "CISWAP":
            states = apply_cnot(states, *op.targets)
        elif op.kind == "ISWAP":
            states = apply_1q(states, rx(-op.angles[0]), op.targets[0])
        elif op.kind == "PHASE":
            theta, phi = op.angles
            states = apply_1q(states, np.exp(0.5j * phi) * rz(theta), op.targets[0])
        else:
            raise ValueError(f"unknown native op kind {op.kind!r}")
    return program.global_phase * states


def basis_vector(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[sum(1 << j for j, b in enumerate(bits) if b == "1")] = 1.0
    return v


def collapse(vec: np.ndarray, q: int, outcome: int) -> tuple[float, np.ndarray]:
    """Probability of ``outcome`` on qubit ``q`` and the renormalized state."""
    keep = ((np.arange(vec.size) >> q) & 1) == outcome
    kept = np.where(keep, vec, 0.0)
    p = float(np.vdot(kept, kept).real)
    return p, (kept / np.sqrt(p) if p > 0.0 else kept)


def word_product(word) -> np.ndarray:
    """Product of a fixed-set word; the first letter acts first."""
    m = np.eye(2, dtype=complex)
    for letter in word:
        m = FIXED_LETTERS[letter] @ m
    return m


def phase_invariant_gap(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - exp(i phi) b|`` with phi taken from the largest entry of
    ``b``: an upper bound on the phase-invariant distance that is tight to
    first order when the two nearly agree."""
    k = int(np.argmax(np.abs(b)))
    ratio = a.flat[k] / b.flat[k]
    return float(np.max(np.abs(a - ratio / abs(ratio) * b)))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def small_rotation(rng: np.random.Generator, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about a uniformly random axis."""
    axis = rng.normal(size=3)
    nx, ny, nz = axis / np.linalg.norm(axis)
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array(
        [[c - 1j * s * nz, -1j * s * (nx - 1j * ny)], [-1j * s * (nx + 1j * ny), c + 1j * s * nz]]
    )
