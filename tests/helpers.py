"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
random unitaries come from QR, logical circuits are evaluated by direct
index manipulation, native programs also run on the 4^k-amplitude physical
register, and two-level evolutions are cross-checked against
eigendecompositions.
"""

from __future__ import annotations

import numpy as np

from ensembleqc import presets
from ensembleqc.compiler import CISWAP_KIND, ISWAP_KIND
from ensembleqc.gates import CONTROLLED_SWAP, iswap, phase_gate, standard_gate
from ensembleqc.physical import PhysicalParams


def haar_unitary_2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_resonant_params(rng: np.random.Generator, ratio_max: float = 3.0) -> PhysicalParams:
    """Random parameter set satisfying the resonance and interference
    conditions, with the second microcavity uncoupled."""
    return presets.blockade_tuned_params(
        ratio=float(rng.uniform(0.0, ratio_max)),
        s_coupling=float(rng.uniform(0.5, 2.0)),
        n_atoms_1=int(rng.integers(1, 7)),
        n_atoms_2=int(rng.integers(1, 7)),
        omega_1=float(rng.uniform(-2.0, 2.0)),
        dispersive_margin=float(rng.uniform(150.0, 400.0)),
    )


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def logical_circuit_matrix(circuit, qubit_count: int) -> np.ndarray:
    """Direct little-endian evaluation of a circuit over {X, H, S, T, CNOT};
    a 2x2 matrix in place of a name is applied as given.

    Gates embed by explicit index-bit manipulation, a code path disjoint
    from both the compiler and the simulator.
    """
    dim = 2**qubit_count
    total = np.eye(dim, dtype=complex)
    for name, targets in circuit:
        g = np.zeros((dim, dim), dtype=complex)
        if isinstance(name, str) and name == "CNOT":
            control, target = targets
            for i in range(dim):
                j = i ^ (1 << target) if (i >> control) & 1 else i
                g[j, i] = 1.0
        else:
            u = standard_gate(name).matrix if isinstance(name, str) else name
            q = targets[0]
            for i in range(dim):
                b_in = (i >> q) & 1
                for b_out in (0, 1):
                    j = (i & ~(1 << q)) | (b_out << q)
                    g[j, i] = u[b_out, b_in]
        total = g @ total
    return total


def apply_unitary(amps: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n_phys: int) -> np.ndarray:
    """Apply a unitary on the listed physical qubits (qubit m is bit m).

    The unitary's local basis index is ``sum_i b_{qubits[i]} 2^{k-1-i}``
    (first listed qubit = most significant local bit).
    """
    k = len(qubits)
    axes = [n_phys - 1 - q for q in qubits]
    psi = np.tensordot(u.reshape([2] * (2 * k)), amps.reshape([2] * n_phys),
                       axes=(list(range(k, 2 * k)), axes))
    return np.ascontiguousarray(np.moveaxis(psi, list(range(k)), axes)).reshape(-1)


def code_indices(qubit_count: int) -> np.ndarray:
    """Physical index of each logical basis state: logical qubit j on the
    pair (2j, 2j+1), 0_L = |01> sets bit 2j+1 and 1_L = |10> sets bit 2j."""
    out = []
    for idx in range(2**qubit_count):
        out.append(sum(1 << (2 * j + 1 - ((idx >> j) & 1)) for j in range(qubit_count)))
    return np.array(out)


def run_physical(program, bits: str) -> list[np.ndarray]:
    """Run a native program on the 4^k physical register, one physical gate
    matrix per op; returns the amplitudes after each op, global phase not
    applied."""
    k = program.qubit_count
    amps = np.zeros(4**k, dtype=complex)
    amps[code_indices(k)[sum(1 << j for j, b in enumerate(bits) if b == "1")]] = 1.0
    history = []
    for op in program.ops:
        if op.kind == CISWAP_KIND:
            control, target = op.targets
            u, qubits = CONTROLLED_SWAP, (2 * control, 2 * target, 2 * target + 1)
        else:
            pair = iswap(*op.angles) if op.kind == ISWAP_KIND else phase_gate(*op.angles)
            u, qubits = pair.matrix, (2 * op.targets[0], 2 * op.targets[0] + 1)
        amps = apply_unitary(amps, u, qubits, 2 * k)
        history.append(amps)
    return history


def physical_leakage(amps: np.ndarray, qubit_count: int) -> float:
    """Probability outside the code space."""
    return float(np.sum(np.abs(np.delete(amps, code_indices(qubit_count))) ** 2))


def propagator_eig_oracle(m: np.ndarray, t: float) -> np.ndarray:
    """exp(i m t) for Hermitian m via eigendecomposition (numpy oracle)."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(1j * vals * t)) @ vecs.conj().T
