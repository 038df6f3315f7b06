"""Exact matrices for the standard gate set and the rotations that the
native ops perform on the dual-rail code space.

Conventions
-----------
Each logical qubit lives on a pair of nodes.  Pair-local basis order is
``|00>, |01>, |10>, |11>`` where the left symbol is the pair's first
physical qubit.  The code words are ``|0_L> = |01>`` and ``|1_L> = |10>``;
``|00>`` and ``|11>`` span the leakage subspace, which no native op reaches.
So every matrix here acts on code words, and a native ISWAP or PHASE is its
2x2 code-space block (:func:`ensembleqc.compiler._kernel`).

Rotations use the standard convention::

    R_x(t) = [[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]]
    R_z(t) = diag(exp(-i t/2), exp(+i t/2))

With this convention a native ``ISWAP(t)`` acts on code words as
``R_x(-t)``.  The hardware-extracted swap (see :mod:`ensembleqc.dynamics`)
carries ``-i`` off-diagonal entries, i.e. ``ISWAP(-pi)`` in this convention.
No pass maps the extracted gate onto the native ops yet; the compiler and
the simulator assume the ideal gates (see the ROADMAP.md item that closes
the loop from physics to logic).

The native CISWAP has no matrix here: on code words its action is the
logical CNOT (``standard_gate("CNOT")``), which the simulator applies as a
permutation of logical amplitudes.  The one physical controlled swap is the
photon-controlled gate that :mod:`ensembleqc.dynamics` extracts.

``_STANDARD`` is the one table of logical gates: the compiler's gate rule
takes its keys as the gate names and each matrix's dimension over 2 as the
gate's target count, and both compile modes read their matrices from it.
Its arrays are read-only.

Global phases are kept explicit everywhere so that phase-sensitive gate
identities can be checked as exact matrix equalities.  ``_phase_distance``
is the one distance up to global phase: the compile check and the
fixed-set search both measure with it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

UNITARITY_ATOL = 1e-12


def _unitarity_defect(m: np.ndarray) -> float:
    """``max|M M+ - I|`` of a square matrix."""
    return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


class Unitary:
    """Dense complex unitary matrix, validated on construction; immutable.

    The dimension must be a power of two (2, 4, 8, ...), every entry finite
    and the unitarity defect ``max|U U+ - I|`` below ``UNITARITY_ATOL``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = as_matrix(matrix).copy()
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

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"a Unitary is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        return _unitarity_defect(self.matrix)

    def __repr__(self) -> str:
        return f"Unitary(dim={self.dim})"


def as_matrix(u) -> np.ndarray:
    """Accept a Unitary or array-like and return a complex ndarray; an entry
    past the float range (a Python int, say) is a ``ValueError``."""
    if isinstance(u, Unitary):
        return u.matrix
    try:
        return np.asarray(u, dtype=complex)
    except OverflowError as exc:
        raise ValueError(f"matrix entry out of range: {exc}") from None


def _check_angles(*angles: float) -> None:
    """Reject an angle that is not a real number (a complex one included) or
    not finite with a ``ValueError``, before any trig call could warn on it."""
    for angle in angles:
        if type(angle) is not float and not isinstance(angle, numbers.Real):
            raise ValueError(f"angles must be real numbers, got {angles!r}")
        try:
            finite = math.isfinite(angle)
        except OverflowError:  # a Python int past the float range
            finite = False
        if not finite:
            raise ValueError(f"angles must be finite, got {angles!r}")


def rx(theta: float) -> Unitary:
    """Standard x rotation by ``theta``."""
    _check_angles(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return Unitary([[c, -1j * s], [-1j * s, c]])


def rz(theta: float) -> Unitary:
    """Standard z rotation by ``theta``."""
    _check_angles(theta)
    return Unitary([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])


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
for _matrix in _STANDARD.values():
    _matrix.setflags(write=False)


def standard_gate(name: str) -> Unitary:
    """Textbook matrix for one of X, H, S, T, CNOT."""
    try:
        return Unitary(_STANDARD[name])
    except KeyError:
        raise ValueError(f"unknown standard gate {name!r}") from None


def _phase_distance(c: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distance, lambda)`` per matrix of a stack ``p``: ``||c - lambda
    p[n]||_F`` from ``c`` (a stack like ``p``, or of one matrix), with
    ``lambda`` the unit phase of ``sum conj(p[n]) c`` (1 where that is 0),
    which minimizes it, so the distance is a pseudo-metric.  A row's values
    do not depend on the other rows."""
    overlap = np.einsum("nij,nij->n", p.conj(), c)
    size = np.abs(overlap)
    phases = np.where(size > 0.0, overlap / np.where(size > 0.0, size, 1.0), 1.0)
    return np.linalg.norm(c - phases[:, None, None] * p, axis=(1, 2)), phases


def matrix_to_json(u) -> list:
    """Row-major nested lists of [re, im] pairs."""
    m = as_matrix(u)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]
