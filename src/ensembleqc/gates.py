"""Exact matrices for the native and standard gate sets, plus the dual-rail
code-space machinery.

Conventions
-----------
Pair-local basis order is ``|00>, |01>, |10>, |11>`` where the left symbol is
the pair's first physical qubit.  The code words are ``|0_L> = |01>`` and
``|1_L> = |10>``; ``|00>`` and ``|11>`` span the leakage subspace.

Rotations use the standard convention::

    R_x(t) = [[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]
    R_z(t) = diag(exp(-i t/2), exp(+i t/2))

With this convention the code-space restriction of ``iswap(t)`` equals
``R_x(-t)``.  The hardware-extracted swap (see :mod:`ensembleqc.dynamics`)
carries ``-i`` off-diagonal entries, i.e. ``iswap(-pi)`` in this convention.
No pass maps the extracted gate onto the native ops yet; the compiler and
the simulator assume the ideal gates here (see the ROADMAP.md item that
closes the loop from physics to logic).

Global phases are kept explicit everywhere so that phase-sensitive gate
identities can be checked as exact matrix equalities.
"""

from __future__ import annotations

import numpy as np

UNITARITY_ATOL = 1e-12
# Largest element coupling the code space to the leakage space that
# restrict_to_logical accepts.
LEAKAGE_ATOL = 1e-12

# Pair-local indices of the code words |01>, |10> and the leakage states.
CODE_INDICES = (1, 2)
LEAKAGE_INDICES = (0, 3)


# Register-level controlled swap on (control, target first, target second),
# basis index ``4*control + 2*first + second``: control 1 exchanges the two
# target qubits, so on dual-rail pairs one application is the logical CNOT.
# Unlike the hardware-extracted gate of :mod:`ensembleqc.dynamics` it carries
# no -i entries.
CONTROLLED_SWAP = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]
CONTROLLED_SWAP.setflags(write=False)


def _unitarity_defect(m: np.ndarray) -> float:
    """``max|M M+ - I|`` of a square matrix."""
    return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


class CodeSpaceLeakageError(ValueError):
    """A matrix couples the code space to the leakage space."""

    def __init__(self, max_element: float):
        self.max_element = float(max_element)
        super().__init__(
            f"code space not block-preserved: max off-block element "
            f"{self.max_element:.3e}"
        )


class Unitary:
    """Dense complex unitary matrix, validated on construction.

    The dimension must be a power of two (2, 4, 8, ...), every entry finite
    and the unitarity defect ``max|U U+ - I|`` below ``UNITARITY_ATOL``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
        # A non-finite entry would make the product warn.
        defect = _unitarity_defect(m) if np.isfinite(m).all() else np.inf
        if defect > UNITARITY_ATOL:
            raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.matrix)

    def __repr__(self) -> str:
        return f"Unitary(dim={self.dim})"


def as_matrix(u) -> np.ndarray:
    """Accept a Unitary or array-like and return a complex ndarray."""
    if isinstance(u, Unitary):
        return u.matrix
    return np.asarray(u, dtype=complex)


def rx(theta: float) -> Unitary:
    """Standard x rotation by ``theta``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return Unitary([[c, -1j * s], [-1j * s, c]])


def rz(theta: float) -> Unitary:
    """Standard z rotation by ``theta``."""
    return Unitary([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])


def iswap(theta: float) -> Unitary:
    """Partial swap on a physical pair.

    Acts as identity on |00> and |11>; on the code space the middle block is
    ``[[cos t/2, i sin t/2], [i sin t/2, cos t/2]]``, an x rotation by
    ``-theta``.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.eye(4, dtype=complex)
    m[1, 1] = m[2, 2] = c
    m[1, 2] = m[2, 1] = 1j * s
    return Unitary(m)


def phase_gate(theta: float, phi: float) -> Unitary:
    """Diagonal pair gate realized by shifting one node's frequency.

    Returns ``exp(i phi/2) * diag(exp(-i phi/2), exp(-i theta/2),
    exp(i theta/2), exp(i phi/2))``.  The code-space restriction is
    ``exp(i phi/2) R_z(theta)``; with ``phi = 0`` the restriction is exactly
    ``R_z(theta)``.
    """
    pre = np.exp(0.5j * phi)
    diag = [np.exp(-0.5j * phi), np.exp(-0.5j * theta), np.exp(0.5j * theta), np.exp(0.5j * phi)]
    return Unitary(pre * np.diag(diag))


_STANDARD = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    # |control, target> basis with index 2*control + target.
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def standard_gate(name: str) -> Unitary:
    """Textbook matrix for one of X, H, S, T, CNOT."""
    try:
        return Unitary(_STANDARD[name])
    except KeyError:
        raise ValueError(f"unknown standard gate {name!r}") from None


def code_space_coupling(u) -> float:
    """Largest element of ``u`` coupling the code space to {|00>, |11>}; the
    pair is the last two bits of the basis index, as in :data:`CONTROLLED_SWAP`."""
    m = as_matrix(u)
    index = np.arange(m.shape[0])
    code = ((index ^ (index >> 1)) & 1).astype(bool)  # the pair's two bits differ
    return float(np.max(np.abs(m[code != code[:, None]])))


def restrict_to_logical(u) -> Unitary:
    """Restrict a pair unitary to the {|0_L>, |1_L>} block.

    Raises :class:`CodeSpaceLeakageError` when any element coupling the code
    space to {|00>, |11>} exceeds ``LEAKAGE_ATOL``.
    """
    m = as_matrix(u)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 pair unitary, got shape {m.shape}")
    off = code_space_coupling(m)
    if off > LEAKAGE_ATOL:
        raise CodeSpaceLeakageError(off)
    return Unitary(m[np.ix_(CODE_INDICES, CODE_INDICES)])


def _phase_align(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``max|a - exp(i phi) b[n]|`` over phi for each matrix of a stack.

    ``b`` has shape ``(n,) + a.shape``.  Each squared entry difference is
    ``A_k - 2 Re(z_k e^{i phi})`` with ``z_k = conj(a_k) b_k``; the max over
    entries attains its minimum either at a single branch's minimum
    ``phi = -arg z_k`` or where two branches cross.  All candidates are
    enumerated in fixed slots: phi = 0, each entry's branch minimum, then
    each entry pair's two crossings.  A slot whose candidate does not exist
    (``z_k = 0``, coincident branches, no crossing) scores +inf, so the
    first minimal slot is the first minimal candidate.  The result is exact
    up to floating-point rounding.  Returns ``(distance, phi)``, each of
    shape ``(n,)``.
    """
    af = a.reshape(-1)
    n, m = len(b), af.size
    bf = b.reshape(n, m)
    z = np.conj(af) * bf
    amp2 = np.abs(af) ** 2 + np.abs(bf) ** 2
    nz = np.abs(z) > 0.0
    j, k = np.triu_indices(m, 1)
    w = z[:, j] - z[:, k]
    mag = np.hypot(w.real, w.imag)  # equals scalar abs(w); array np.abs can differ in the last bit
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (amp2[:, j] - amp2[:, k]) / (2.0 * mag)
    crossing = nz[:, j] & nz[:, k] & (mag >= 1e-300) & (np.abs(rhs) <= 1.0)
    t = np.arccos(np.clip(np.where(crossing, rhs, 0.0), -1.0, 1.0))
    chi = np.angle(w)
    # Slots: phi = 0, then -arg z_e per entry e, then t - chi, -t - chi per pair.
    phis = np.zeros((n, 1 + m + 2 * len(j)))
    phis[:, 1:1 + m] = np.where(nz, -np.angle(z), 0.0)
    phis[:, 1 + m::2] = t - chi
    phis[:, 2 + m::2] = -t - chi
    rotated = np.exp(1j * phis)
    # Max over entries of |a_e - e^{i phi} b_e|, one (n, slots) array per entry.
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


def phase_distance(a, b) -> float:
    """Global-phase-invariant distance ``min_phi max|a - exp(i phi) b|``."""
    return float(_phase_align(as_matrix(a), as_matrix(b)[None])[0][0])


def matrix_to_json(u) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = as_matrix(u)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]
