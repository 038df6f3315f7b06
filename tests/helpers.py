"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
random unitaries come from QR, logical circuits are evaluated by direct
index manipulation, native programs also run on the 4^k-amplitude physical
register and op by op without the simulator's kernel cache, and two-level
evolutions are cross-checked against eigendecompositions and a
step-at-a-time integrator, the fixed-set search is checked against a
node-at-a-time breadth-first search, and the sweep rows are checked
against scalar arithmetic one row at a time.
"""

from __future__ import annotations

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
    CONTROLLED_SWAP,
    as_matrix,
    code_space_coupling,
    iswap,
    phase_gate,
    restrict_to_logical,
    standard_gate,
)
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


def _one_qubit_reference(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    # The simulator's contraction, so the two agree bit for bit.
    a = amps.reshape(amps.shape[0] >> (qubit + 1), 2, -1)
    return np.einsum("ij,ajb->aib", u, a).reshape(amps.shape)


def _cnot_reference(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    index = np.arange(amps.shape[0])
    return amps[index ^ (((index >> control) & 1) << target)]


def run_ops_reference(program, amps: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """A native program on logical amplitudes (axis 0 the 2^k index, a second
    axis of columns allowed), one op at a time: each op's pair matrix,
    code-space block and leakage are built afresh, with no cache.  Returns
    the amplitudes, global phase not applied, and each op's leakage."""
    leakages = []
    for op in program.ops:
        if op.kind == CISWAP_KIND:
            amps = _cnot_reference(amps, *op.targets)
            leakages.append(code_space_coupling(CONTROLLED_SWAP))
        else:
            pair = iswap(*op.angles) if op.kind == ISWAP_KIND else phase_gate(*op.angles)
            amps = _one_qubit_reference(amps, restrict_to_logical(pair).matrix, op.targets[0])
            leakages.append(code_space_coupling(pair))
    return amps, tuple(leakages)


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


def physical_leakage(amps: np.ndarray, qubit_count: int) -> float:
    """Probability outside the code space."""
    return float(np.sum(np.abs(np.delete(amps, code_indices(qubit_count))) ** 2))


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


def blockade_row_reference(params: PhysicalParams, ratio: float) -> tuple[float, float, float]:
    """One ``blockade-sweep`` row ``(ratio, |S|/kappa(1), |U_10|)`` by scalar
    arithmetic alone, in the order the package evaluates it.

    ``g_pi_1`` is rescaled to the ratio and ``omega_2`` re-solved for
    resonance; ``U_10`` is the entry of the n=1 lab-frame propagator at the
    swap time pi/(2|S|).  Python floats and complex numbers and numpy scalar
    functions only, with the lab phase multiplied onto a 2x2 array as a
    scalar, so every rounding is the one a lone scalar evaluation makes.
    """
    p = params
    n1, n2 = p.n_atoms_1, p.n_atoms_2
    cap = complex(p.g_sigma_1 * np.conj(p.g_sigma_2) / 2.0
                  * (1.0 / p.delta_sigma_1 + 1.0 / p.delta_sigma_2))
    s = complex(np.sqrt(float(n1 * n2)) * cap)
    o1s = abs(p.g_sigma_1) ** 2 / p.delta_sigma_1
    o2s = abs(p.g_sigma_2) ** 2 / p.delta_sigma_2
    o2p = abs(p.g_pi_2) ** 2 / p.delta_pi_2
    g_pi_1 = float(np.sqrt(ratio * abs(s) * abs(p.delta_pi_1)))
    o1p = abs(g_pi_1) ** 2 / p.delta_pi_1
    omega_1, omega_2 = float(p.omega_1), float(p.omega_1 + n1 * (o1s + o1p) - n2 * o2s)
    k1 = float(np.hypot(o1p, abs(s)))
    error = abs(s) / k1 if k1 != 0.0 else 0.0
    residual = omega_2 - omega_1 + n2 * o2s - n1 * (o1s + o1p)
    d = 0.5 * (residual + n2 * o2p) - o1p
    varpi_1 = (n1 / 2 - 1) * (omega_1 + 2 * o1p) + (n2 / 2) * omega_2 - n1 * (o1s + o1p)
    varpi_2 = (n1 / 2) * (omega_1 + 2 * o1p) + (n2 / 2 - 1) * omega_2 - n2 * (o2s + o2p)
    t = np.pi / (2.0 * abs(s))
    k = float(np.hypot(d, abs(s)))
    cos_kt, sinc = np.cos(k * t), np.sin(k * t) / k
    core = np.array([[cos_kt + 1j * d * sinc, -1j * s * sinc],
                     [-1j * np.conj(s) * sinc, cos_kt - 1j * d * sinc]], dtype=complex)
    u = np.exp(1j * (0.5 * (varpi_1 + varpi_2)) * t) * core
    return float(ratio), error, float(abs(u[1, 0]))


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
