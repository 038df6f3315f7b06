"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
random unitaries come from QR, logical circuits are evaluated by direct
index manipulation, native programs also run on the 4^k-amplitude physical
register, op by op from each op's 4x4 pair matrix (which the package never
builds), without the simulator's kernel cache, and through a
separately written fused loop, two-level evolutions are cross-checked
against eigendecompositions of the sector generator and a step-at-a-time
integrator, the
fixed-set search is checked against a node-at-a-time breadth-first
search, the sweep rows are checked against scalar arithmetic one row
at a time, and the config hash against json's own canonical text of the
config as first defined.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import numpy as np

from collections import deque

from ensembleqc import presets
from ensembleqc.compiler import (
    _DEDUP_DECIMALS,
    _FIXED_GENERATORS,
    CISWAP_KIND,
    ISWAP_KIND,
    FixedSetResult,
    NativeProgram,
)
from ensembleqc.gates import (
    Unitary,
    _check_angles,
    _phase_align,
    as_matrix,
    standard_gate,
)
from ensembleqc.physical import DerivedCouplings, PhysicalParams


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


def detuned_params(rng: np.random.Generator) -> PhysicalParams:
    """A :func:`random_resonant_params` set with node 2 coupled to its
    microcavity (``g_pi_2 != 0``, complex, inside the dispersive window), a
    complex ``g_sigma_2`` (so a complex S) and ``omega_2`` moved off
    resonance by 0.5 to 2 |S|."""
    params = random_resonant_params(rng)
    s = abs(_swap_coupling_reference(params))
    g_pi_2 = rng.uniform(0.3, 1.0) * np.sqrt(s * abs(params.delta_pi_2))
    return dataclasses.replace(
        params,
        g_pi_2=complex(g_pi_2 * np.exp(1j * rng.uniform(0.0, 6.0))),
        g_sigma_2=complex(params.g_sigma_2 * np.exp(1j * rng.uniform(0.1, 3.0))),
        omega_2=float(params.omega_2 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * s),
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


# Register-level controlled swap on (control, target first, target second),
# basis index ``4*control + 2*first + second``: control 1 exchanges the two
# target qubits, so on dual-rail pairs one application is the logical CNOT.
# Unlike the hardware-extracted gate of ``ensembleqc.dynamics`` it carries no
# -i entries.  This is the physical matrix of the native CISWAP.
CONTROLLED_SWAP = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]
CONTROLLED_SWAP.setflags(write=False)


# The native ops as 4x4 pair matrices, basis |00>, |01>, |10>, |11> with the
# left symbol the pair's first node.  The package applies only each op's
# 2x2 code-space block; these pair embeddings, identity on |00> and |11>,
# are the independent physical oracle that the blocks are checked against.
# Pair-local indices of the code words |0_L> = |01> and |1_L> = |10>.
CODE_INDICES = (1, 2)
# Largest element coupling the code space to the leakage space that
# restrict_to_logical accepts.
LEAKAGE_ATOL = 1e-12


def iswap(theta: float) -> Unitary:
    """Partial swap on a physical pair: identity on |00> and |11>, and on the
    code space ``[[cos t/2, i sin t/2], [i sin t/2, cos t/2]]``."""
    _check_angles(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.eye(4, dtype=complex)
    m[1, 1] = m[2, 2] = c
    m[1, 2] = m[2, 1] = 1j * s
    return Unitary(m)


def phase_gate(theta: float, phi: float) -> Unitary:
    """Diagonal pair gate realized by shifting one node's frequency:
    ``exp(i phi/2) * diag(exp(-i phi/2), exp(-i theta/2), exp(i theta/2),
    exp(i phi/2))``, so ``exp(i phi/2) R_z(theta)`` on the code space."""
    _check_angles(theta, phi)
    pre = np.exp(0.5j * phi)
    diag = [np.exp(-0.5j * phi), np.exp(-0.5j * theta), np.exp(0.5j * theta), np.exp(0.5j * phi)]
    return Unitary(pre * np.diag(diag))


def pair_matrix(op) -> Unitary:
    """The pair matrix of an ISWAP or PHASE op."""
    return iswap(*op.angles) if op.kind == ISWAP_KIND else phase_gate(*op.angles)


def code_space_coupling(u) -> float:
    """Largest element of ``u`` coupling the code space to {|00>, |11>}; the
    pair is the last two bits of the basis index."""
    m = as_matrix(u)
    index = np.arange(m.shape[0])
    code = ((index ^ (index >> 1)) & 1).astype(bool)  # the pair's two bits differ
    return float(np.max(np.abs(m[code != code[:, None]])))


def restrict_to_logical(u) -> Unitary:
    """Restrict a pair unitary to the {|0_L>, |1_L>} block; raises
    ``ValueError`` when any element coupling the code space to {|00>, |11>}
    exceeds ``LEAKAGE_ATOL``."""
    m = as_matrix(u)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 pair unitary, got shape {m.shape}")
    off = code_space_coupling(m)
    if off > LEAKAGE_ATOL:
        raise ValueError(f"code space not block-preserved: max off-block element {off:.3e}")
    return Unitary(m[np.ix_(CODE_INDICES, CODE_INDICES)])


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
            u, qubits = pair_matrix(op).matrix, (2 * op.targets[0], 2 * op.targets[0] + 1)
        amps = apply_unitary(amps, u, qubits, 2 * k)
        history.append(amps)
    return history


def _one_qubit_reference(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    # The simulator's contraction, so the two agree bit for bit.
    a = amps.reshape(amps.shape[0] >> (qubit + 1), 2, -1)
    return np.einsum("ij,ajb->aib", u, a).reshape(amps.shape)


def _cnot_reference(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    index = np.arange(amps.shape[0])
    return amps[index ^ (((index >> control) & 1) << target)]


def run_ops_reference(program, amps: np.ndarray) -> np.ndarray:
    """A native program on logical amplitudes (axis 0 the 2^k index, a second
    axis of columns allowed), one op at a time: each op's pair matrix and
    code-space block are built afresh, with no cache.  Returns the
    amplitudes, global phase not applied."""
    for op in program.ops:
        if op.kind == CISWAP_KIND:
            amps = _cnot_reference(amps, *op.targets)
        else:
            amps = _one_qubit_reference(amps, restrict_to_logical(pair_matrix(op)).matrix,
                                        op.targets[0])
    return amps


def circuit_columns_reference(circuit, qubit_count: int) -> np.ndarray:
    """Logical unitary of a circuit of standard gate names, each gate's
    matrix read afresh, with the simulator's contractions."""
    columns = np.eye(2**qubit_count, dtype=complex)
    for name, targets in circuit:
        if name == "CNOT":
            columns = _cnot_reference(columns, *targets)
        else:
            columns = _one_qubit_reference(columns, standard_gate(name).matrix, targets[0])
    return columns


def int_error(text: str) -> str:
    """The message of the ``ValueError`` that ``int(text)`` raises."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int() took {len(text)} digits")


def parse_circuit_reference(text: str):
    """The circuit format read one rule at a time: ``(circuit, None)``, or
    ``(None, (line_number, message))`` for the first line it rejects."""
    arity = {"X": 1, "H": 1, "S": 1, "T": 1, "CNOT": 2}
    circuit = []
    for number, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        words = line.split()
        if not words:
            continue
        name, rest = words[0], words[1:]
        if name not in arity:
            return None, (number, f"unknown gate {name!r}")
        if not all(re.fullmatch("-?[0-9]+", word) for word in rest):
            return None, (number, f"targets must be integers, got {rest!r}")
        try:
            targets = tuple(int(word) for word in rest)
        except ValueError as exc:  # past int()'s digit limit
            return None, (number, str(exc))
        if len(targets) != arity[name]:
            return None, (number, f"{name} takes {arity[name]} target(s), got {len(targets)}")
        if any(t < 0 for t in targets):
            return None, (number, "targets must be nonnegative")
        if len(set(targets)) != len(targets):
            return None, (number, "targets must be distinct")
        circuit.append((name, targets))
    return circuit, None


def native_steps(program) -> list:
    """A native program as ``(block, targets)`` steps, each block built
    afresh from its pair matrix, None for a CISWAP."""
    steps = []
    for op in program.ops:
        if op.kind == CISWAP_KIND:
            steps.append((None, op.targets))
        else:
            steps.append((restrict_to_logical(pair_matrix(op)).matrix, op.targets))
    return steps


def circuit_steps(circuit) -> list:
    """A circuit of standard gate names as ``(matrix, targets)`` steps, each
    matrix read afresh, None for a CNOT."""
    return [(None if name == "CNOT" else standard_gate(name).matrix, targets)
            for name, targets in circuit]


def fused_reference(steps, amps: np.ndarray) -> np.ndarray:
    """Steps applied with fused single-qubit runs, written apart from the
    simulator's loop: each qubit collects its blocks in a list, and a list
    becomes one product (the later block on the left, a lone block as it is)
    and one contraction when it is flushed, before a CNOT on the qubit
    (control, then target) and at the end (ascending qubit).  The CNOT is
    the index permutation of :func:`_cnot_reference`."""
    runs: dict[int, list[np.ndarray]] = {}

    def flush(amps: np.ndarray, qubit: int) -> np.ndarray:
        blocks = runs.pop(qubit, [])
        if not blocks:
            return amps
        product = blocks[0]
        for block in blocks[1:]:
            product = block @ product
        return _one_qubit_reference(amps, product, qubit)

    for block, targets in steps:
        if block is None:
            control, target = targets
            amps = _cnot_reference(flush(flush(amps, control), target), control, target)
        else:
            runs.setdefault(targets[0], []).append(block)
    for qubit in sorted(runs):
        amps = flush(amps, qubit)
    return amps


def physical_leakage(amps: np.ndarray, qubit_count: int) -> float:
    """Probability outside the code space."""
    return float(np.sum(np.abs(np.delete(amps, code_indices(qubit_count))) ** 2))


def sector_frequencies(couplings: DerivedCouplings, n: int) -> tuple[float, float]:
    """The paper's frequencies ``(varpi_1, varpi_2)`` of the node-1-excited
    and node-2-excited components in photon sector ``n``, written out from
    the couplings.  The package never forms them: it works in each sector's
    rotating frame, where only their half difference ``varpi_split`` and
    the difference of their means between sectors remain."""
    c = couplings
    shifted_1 = c.omega_1 + 2 * n * c.omega_1_pi
    varpi_1 = ((c.n_atoms_1 / 2 - 1) * shifted_1 + (c.n_atoms_2 / 2) * c.omega_2
               - c.n_atoms_1 * (c.omega_1_sigma + c.omega_1_pi))
    varpi_2 = ((c.n_atoms_1 / 2) * shifted_1 + (c.n_atoms_2 / 2 - 1) * c.omega_2
               - c.n_atoms_2 * (c.omega_2_sigma + c.omega_2_pi))
    return varpi_1, varpi_2


def effective_hamiltonian(couplings: DerivedCouplings, n: int) -> np.ndarray:
    """Hermitian 2x2 generator M(n) of the sector dynamics dc/dt = i M(n) c:
    the sector frequencies of :func:`sector_frequencies` on the diagonal,
    and the swap coupling -S off it."""
    varpi_1, varpi_2 = sector_frequencies(couplings, n)
    s = couplings.s_coupling
    return np.array([[varpi_1, -s], [-np.conj(s), varpi_2]], dtype=complex)


def propagator_eig_oracle(m: np.ndarray, t: float) -> np.ndarray:
    """exp(i m t) for Hermitian m via eigendecomposition (numpy oracle)."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(1j * vals * t)) @ vecs.conj().T


def rk4_reference(couplings, n: int, t: float, vec, step: float, samples: int = 0) -> np.ndarray:
    """Fixed-step fourth-order integration of the rotating-frame sector
    equations, one step matrix product at a time.

    Each sample segment takes ``floor(length/step + 1e-12)`` whole steps and
    one shorter tail step if the tail exceeds ``1e-15 max(|t_end|, 1)``.
    Returns the states at ``t = 0`` and at each segment end.
    """
    d = couplings.varpi_split(n)
    s = couplings.s_coupling
    a = np.array([[d, -s], [-np.conj(s), -d]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def step_matrix(h: float) -> np.ndarray:
        m = 1j * h * a
        return eye + m @ (eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0)

    full = step_matrix(step)
    ends = np.linspace(0.0, t, samples + 1)[1:] if samples > 0 else [t]
    current = np.array(vec, dtype=complex)
    states = [current]
    done = 0.0
    for t_end in ends:
        remaining = t_end - done
        whole = int(np.floor(remaining / step + 1e-12))
        for _ in range(whole):
            current = full @ current
        tail = remaining - whole * step
        if tail > 1e-15 * max(abs(t_end), 1.0):
            current = step_matrix(tail) @ current
        done = t_end
        states.append(current)
    return np.array(states)


def phase_distance(a, b) -> float:
    """Global-phase-invariant distance ``min_phi max|a - exp(i phi) b|`` of
    two matrices, by one call of ``gates._phase_align``."""
    return float(_phase_align(as_matrix(a), as_matrix(b)[None])[0][0])


def phase_align_reference(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Minimize ``max|a - exp(i phi) b|`` over phi for one pair of matrices.

    Candidates in order: phi = 0, each nonzero branch's minimum
    ``-arg z_k``, then each pair's two crossings; the first minimal
    candidate wins.  Returns ``(distance, phi)``.
    """
    af, bf = a.ravel(), b.ravel()
    z = np.conj(af) * bf
    amp2 = np.abs(af) ** 2 + np.abs(bf) ** 2
    candidates = [0.0]
    nz = np.abs(z) > 0.0
    candidates.extend((-np.angle(z[nz])).tolist())
    idx = np.nonzero(nz)[0]
    for ii in range(len(idx)):
        for jj in range(ii + 1, len(idx)):
            j, k = idx[ii], idx[jj]
            w = z[j] - z[k]
            mag = abs(w)
            if mag < 1e-300:
                continue
            rhs = (amp2[j] - amp2[k]) / (2.0 * mag)
            if abs(rhs) <= 1.0:
                t = np.arccos(np.clip(rhs, -1.0, 1.0))
                chi = np.angle(w)
                candidates.extend([t - chi, -t - chi])
    phis = np.asarray(candidates)
    diffs = np.abs(af[None, :] - np.exp(1j * phis)[:, None] * bf[None, :]).max(axis=1)
    best = int(np.argmin(diffs))
    return float(diffs[best]), float(phis[best])


def phase_align_loop_reference(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gates._phase_align`` as it was written with one pass per entry over
    ``(n, slots)`` arrays: the same candidates and the same arithmetic on
    each element, so the broadcast version must equal it bit for bit."""
    af = a.reshape(-1)
    n, m = len(b), af.size
    bf = b.reshape(n, m)
    z = np.conj(af) * bf
    amp2 = np.abs(af) ** 2 + np.abs(bf) ** 2
    nz = np.abs(z) > 0.0
    j, k = np.triu_indices(m, 1)
    w = z[:, j] - z[:, k]
    mag = np.hypot(w.real, w.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (amp2[:, j] - amp2[:, k]) / (2.0 * mag)
    crossing = nz[:, j] & nz[:, k] & (mag >= 1e-300) & (np.abs(rhs) <= 1.0)
    t = np.arccos(np.clip(np.where(crossing, rhs, 0.0), -1.0, 1.0))
    chi = np.angle(w)
    phis = np.zeros((n, 1 + m + 2 * len(j)))
    phis[:, 1:1 + m] = np.where(nz, -np.angle(z), 0.0)
    phis[:, 1 + m::2] = t - chi
    phis[:, 2 + m::2] = -t - chi
    rotated = np.exp(1j * phis)
    term = np.empty_like(rotated)
    entry_diff = np.empty(phis.shape)
    diffs = np.zeros(phis.shape)
    for entry in range(m):
        np.multiply(rotated, bf[:, entry, None], out=term)
        np.subtract(af[entry], term, out=term)
        np.abs(term, out=entry_diff)
        np.maximum(diffs, entry_diff, out=diffs)
    diffs[:, 1:1 + m][~nz] = np.inf
    diffs[:, 1 + m::2][~crossing] = np.inf
    diffs[:, 2 + m::2][~crossing] = np.inf
    best = np.argmin(diffs, axis=1)
    rows = np.arange(n)
    return diffs[rows, best], phis[rows, best]


def dedup_key_reference(m: np.ndarray) -> bytes:
    """Bytes of ``m`` with its phase anchored on the first entry of top
    magnitude, rounded to the search's dedup grid."""
    flat = m.ravel()
    mags = np.abs(flat)
    top = mags.max()
    anchor = flat[int(np.nonzero(mags >= top - 1e-9)[0][0])]
    normalized = m * np.conj(anchor / abs(anchor))
    rounded = np.round(normalized, _DEDUP_DECIMALS) + 0.0  # clear -0.0
    return rounded.tobytes()


def fixed_set_reference(
    u, epsilon: float, max_depth: int, generated: list | None = None
) -> FixedSetResult:
    """Breadth-first fixed-set search, one node and one child at a time.

    Each child's distance is checked before it is deduplicated; the first
    child within ``epsilon`` is re-multiplied from its word and re-measured.
    ``generated``, if given, receives every ``(child, word)`` in the order
    the search generates them, duplicates included.
    """
    target = as_matrix(u)

    def distance(candidate: np.ndarray) -> float:
        return phase_align_reference(target, candidate)[0]

    def finish(word: tuple[int, ...]) -> FixedSetResult:
        product = np.eye(2, dtype=complex)
        for letter in word:
            product = _FIXED_GENERATORS[letter][2] @ product
        dist, phi = phase_align_reference(target, product)
        if dist > epsilon:
            raise AssertionError("search produced a word that fails re-verification")
        ops = [_FIXED_GENERATORS[letter][1] for letter in word]
        program = NativeProgram(
            qubit_count=1, ops=ops, global_phase=complex(np.exp(1j * phi))
        )
        names = tuple(_FIXED_GENERATORS[letter][0] for letter in word)
        return FixedSetResult(
            found=True, program=program, word=names, distance=dist, depth=len(word)
        )

    identity = np.eye(2, dtype=complex)
    best_seen = distance(identity)
    if best_seen <= epsilon:
        return finish(())
    visited = {dedup_key_reference(identity)}
    queue: deque[tuple[np.ndarray, tuple[int, ...]]] = deque([(identity, ())])
    while queue:
        matrix, word = queue.popleft()
        if len(word) == max_depth:
            continue
        for index, (_, _, gen) in enumerate(_FIXED_GENERATORS):
            child = gen @ matrix
            child_word = word + (index,)
            if generated is not None:
                generated.append((child, child_word))
            d = distance(child)
            best_seen = min(best_seen, d)
            if d <= epsilon:
                return finish(child_word)
            key = dedup_key_reference(child)
            if key not in visited:
                visited.add(key)
                queue.append((child, child_word))
    return FixedSetResult(
        found=False, program=None, word=(), distance=best_seen, depth=max_depth
    )


def _swap_coupling_reference(p: PhysicalParams) -> complex:
    cap = complex(p.g_sigma_1 * np.conj(p.g_sigma_2) / 2.0
                  * (1.0 / p.delta_sigma_1 + 1.0 / p.delta_sigma_2))
    return complex(np.sqrt(float(p.n_atoms_1 * p.n_atoms_2)) * cap)


def rescaled_params_reference(params: PhysicalParams, ratio: float) -> PhysicalParams:
    """``params`` retargeted to one blockade ratio by scalar arithmetic:
    ``g_pi_1`` rescaled so ``|Omega_1^(pi)| / |S| = ratio``, and ``omega_2``
    set to ``omega_1`` less the swap resonance residual of the set with
    ``omega_2 = omega_1``, node 2's pi shift included, its terms in
    ``resonance_residual``'s order."""
    p = params
    s = _swap_coupling_reference(p)
    o1s = abs(p.g_sigma_1) ** 2 / p.delta_sigma_1
    o2s = abs(p.g_sigma_2) ** 2 / p.delta_sigma_2
    o2p = abs(p.g_pi_2) ** 2 / p.delta_pi_2
    g_pi_1 = float(np.sqrt(ratio * abs(s) * abs(p.delta_pi_1)))
    o1p = abs(g_pi_1) ** 2 / p.delta_pi_1
    omega_1 = float(p.omega_1)
    residual = omega_1 - omega_1 + p.n_atoms_2 * o2s - p.n_atoms_1 * (o1s + o1p) + p.n_atoms_2 * o2p
    return dataclasses.replace(p, g_pi_1=g_pi_1, omega_2=float(omega_1 - residual))


def blockade_row_reference(params: PhysicalParams, ratio: float) -> tuple[float, float, float]:
    """One ``blockade-sweep`` row ``(ratio, |S|/kappa(1), |U_10|)`` by scalar
    arithmetic alone, in the order the package evaluates it.

    The parameters are retargeted by :func:`rescaled_params_reference`;
    ``kappa(1)`` is the n=1 rate ``hypot(d, |S|)`` for the sector's half
    split ``d``, and ``U_10`` is the entry of the n=1 rotating-frame
    propagator at the swap time pi/(2|S|).  Python floats and complex
    numbers and numpy scalar functions only, so every rounding is the one a
    lone scalar evaluation makes.
    """
    p = rescaled_params_reference(params, ratio)
    n1, n2 = p.n_atoms_1, p.n_atoms_2
    s = _swap_coupling_reference(p)
    o1s = abs(p.g_sigma_1) ** 2 / p.delta_sigma_1
    o2s = abs(p.g_sigma_2) ** 2 / p.delta_sigma_2
    o2p = abs(p.g_pi_2) ** 2 / p.delta_pi_2
    o1p = abs(p.g_pi_1) ** 2 / p.delta_pi_1
    omega_1, omega_2 = float(p.omega_1), p.omega_2
    residual = omega_2 - omega_1 + n2 * o2s - n1 * (o1s + o1p) + n2 * o2p
    d = 0.5 * residual - o1p
    k1 = float(np.hypot(d, abs(s)))
    error = abs(s) / k1 if k1 != 0.0 else 0.0
    t = np.pi / (2.0 * abs(s))
    u_10 = -1j * np.conj(s) * (np.sin(k1 * t) / k1)
    return float(ratio), error, float(abs(u_10))


def fidelity_row_reference(gamma_atomic: float, gamma_cavity: float, delta: float,
                           t: float) -> tuple[float, float]:
    """``(fidelity, margin)`` of one ``fidelity`` row by scalar arithmetic.

    Where ``exp(-2 Gamma t - x)`` is below the smallest normal float or
    ``cosh^2(x / 2)`` overflows, ``x = pi gamma / (2 Delta)``, the fidelity is
    the identity ``exp(-2 Gamma t) ((1 + exp(-x)) / 2)^2``.
    """
    atomic = 2.0 * gamma_atomic * t
    cavity = np.pi * gamma_cavity / (2.0 * delta)
    decay = np.exp(-atomic - cavity)
    with np.errstate(over="ignore"):
        cosh_squared = np.cosh(np.pi * gamma_cavity / (4.0 * delta)) ** 2
    if decay < np.finfo(float).tiny or np.isinf(cosh_squared):
        fidelity = np.exp(-atomic) * ((1.0 + np.exp(-cavity)) / 2.0) ** 2
    else:
        fidelity = decay * cosh_squared
    return float(fidelity), float(1e-4 - (atomic + cavity))


def native_op_format_reference(op) -> str:
    """``NativeOp.format`` as first written: the kind, then ``q<target>`` per
    target and each angle to 12 significant digits, joined by spaces."""
    parts = [op.kind] + [f"q{t}" for t in op.targets]
    parts += [f"{a:.12g}" for a in op.angles]
    return " ".join(parts)


def native_program_json_reference(program) -> str:
    """``NativeProgram.to_json`` as first written: ``json.dumps`` of the
    program's object with ``indent=2``, every op laid out by json itself."""
    return json.dumps({
        "qubit_count": program.qubit_count,
        "global_phase": [program.global_phase.real, program.global_phase.imag],
        "ops": [{"kind": op.kind, "targets": list(op.targets), "angles": list(op.angles)}
                for op in program.ops],
    }, indent=2)


def config_as_dict_reference(config) -> dict:
    """``ScenarioConfig.as_dict`` as first written: the physical parameters
    as a json round trip of the object ``to_json`` built field by field (a
    complex value as its real part if its imaginary part is zero, else as
    ``[re, im]``), and the decoherence parameters through
    ``dataclasses.asdict``.  Python scalars only: json rejects numpy ones."""
    params = {}
    for f in dataclasses.fields(config.physical_params):
        value = getattr(config.physical_params, f.name)
        if isinstance(value, complex):
            params[f.name] = value.real if value.imag == 0.0 else [value.real, value.imag]
        else:
            params[f.name] = value
    sweep = config.sweep
    return {
        "scenario": config.scenario,
        "physical_params": json.loads(json.dumps(params, indent=2, sort_keys=True)),
        "decoherence_params": dataclasses.asdict(config.decoherence_params),
        "sweep": {"parameter": sweep.parameter, "values": list(sweep.values)} if sweep else None,
        "output_dir": config.output_dir,
        "seed": config.seed,
    }


def config_hash_reference(config) -> str:
    """``config_hash`` of a resolved config: the first 16 hex digits of the
    sha256 of ``json.dumps(config_as_dict_reference(config), sort_keys=True)``."""
    canonical = json.dumps(config_as_dict_reference(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def json_depth_reference(value) -> int:
    """Nesting depth of a parsed JSON value, one member at a time: 0 for a
    scalar, else 1 plus the depth of its deepest member."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max((json_depth_reference(v) for v in value), default=0)
    return 0
