"""Lowering of logical circuits to the native gate set.

Single-qubit gates go through an exact z-x-z Euler decomposition and come out
as at most three native operations ``[PHASE(gamma), ISWAP(-beta),
PHASE(alpha)]`` (the sign on ISWAP absorbs the fact that its code-space
restriction is an x rotation by minus the angle).  The logical CNOT lowers to
a single controlled-swap operation.  :func:`lower_circuit` is the one
lowering loop: it lowers each single-qubit gate name once, through its
``lower_1q`` argument, and moves the ops to each gate's target.  Besides the
exact default, ``compile --fixed-set`` passes a lowering that approximates
each gate with the shortest word over the fixed gates {ISWAP(pi/2),
PHASE(pi/2), PHASE(pi/4)} (:func:`approximate_fixed_set`).  The
breadth-first search tree over those words does not depend on the gate, so
it is built once per depth limit as a cached table of products, and each
search is one vectorized scan of the phase-invariant distance over the table.

PHASE operations are always emitted with the secondary angle phi = 0, whose
code-space action is exactly R_z(theta) with no stray global phase; the
program's accumulated global phase therefore comes from the Euler delta
alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .gates import _phase_align, _unitarity_defect, as_matrix, rx, rz, standard_gate

ISWAP_KIND = "ISWAP"
PHASE_KIND = "PHASE"
CISWAP_KIND = "CISWAP"

_ARITY = {ISWAP_KIND: (1, 1), PHASE_KIND: (1, 2), CISWAP_KIND: (2, 0)}

SUPPORTED_GATES = ("X", "H", "S", "T", "CNOT")
# Largest deviation from 1 of a global phase's modulus or of a state's norm.
NORM_ATOL = 1e-10


class CircuitParseError(ValueError):
    """A circuit file line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,)}


def _json_typed(value, json_type: str, name: str):
    """``value`` if its Python type is one that ``json`` reads for
    ``json_type``; ``True`` is not an integer here."""
    if type(value) not in _JSON_TYPES[json_type]:
        raise ValueError(f"{name} must be a JSON {json_type}, got {value!r}")
    return value


@dataclass(frozen=True)
class NativeOp:
    """One native operation on logical-pair targets.

    ``targets`` holds pair indices: one for ISWAP/PHASE, (control, target)
    for CISWAP.  ``angles`` is (theta,) for ISWAP, (theta, phi) for PHASE,
    and empty for CISWAP.
    """

    kind: str
    targets: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown native op kind {self.kind!r}")
        n_targets, n_angles = _ARITY[self.kind]
        if len(self.targets) != n_targets:
            raise ValueError(f"{self.kind} takes {n_targets} target(s), got {self.targets!r}")
        if len(self.angles) != n_angles:
            raise ValueError(f"{self.kind} takes {n_angles} angle(s), got {self.angles!r}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"targets must be nonnegative, got {self.targets!r}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"targets must be distinct, got {self.targets!r}")
        if not all(np.isfinite(a) for a in self.angles):
            raise ValueError(f"angles must be finite, got {self.angles!r}")

    def format(self) -> str:
        parts = [self.kind] + [f"q{t}" for t in self.targets]
        parts += [f"{a:.12g}" for a in self.angles]
        return " ".join(parts)


# Bounded, since a program read from JSON may carry any number of angles.
@functools.lru_cache(maxsize=1024)
def _kernel(kind: str, angles: tuple[float, ...], zero_signs: tuple[float, ...]):
    """``(block, leakage)`` of every op of one kind and angles, whatever its
    targets: the 2x2 code-space block of its pair matrix, ``gates.iswap`` or
    ``gates.phase_gate`` (None for CISWAP, whose matrix is
    :data:`~ensembleqc.gates.CONTROLLED_SWAP`), and the largest element of
    the physical matrix coupling the code space to the leakage states.
    ``zero_signs`` only splits the cache key, because ``0.0 == -0.0`` while
    their matrices can differ in the sign of a zero.  This is the one map
    from an op to its matrix."""
    if kind == CISWAP_KIND:
        return None, gates.code_space_coupling(gates.CONTROLLED_SWAP)
    pair = gates.iswap(*angles) if kind == ISWAP_KIND else gates.phase_gate(*angles)
    return gates.restrict_to_logical(pair).matrix, gates.code_space_coupling(pair)


def _op_kernel(op: NativeOp):
    """:func:`_kernel` of ``op``'s kind and angles."""
    return _kernel(op.kind, op.angles, tuple(math.copysign(1.0, a) for a in op.angles))


@dataclass
class NativeProgram:
    """Ordered native operations plus the accumulated global phase (modulus 1)."""

    qubit_count: int
    ops: list[NativeOp] = field(default_factory=list)
    global_phase: complex = 1.0 + 0.0j

    def validate(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("program needs at least one logical qubit")
        if not abs(math.hypot(self.global_phase.real, self.global_phase.imag) - 1.0) <= NORM_ATOL:
            raise ValueError(f"global_phase must have modulus 1, got {self.global_phase!r}")
        for op in self.ops:
            if any(t >= self.qubit_count for t in op.targets):
                raise ValueError(
                    f"op {op.format()!r} touches a pair outside the "
                    f"{self.qubit_count}-qubit register"
                )

    def to_json(self) -> str:
        return json.dumps(
            {
                "qubit_count": self.qubit_count,
                "global_phase": [self.global_phase.real, self.global_phase.imag],
                "ops": [
                    {"kind": op.kind, "targets": list(op.targets), "angles": list(op.angles)}
                    for op in self.ops
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "NativeProgram":
        """Parse :meth:`to_json`'s layout.  Values must have their JSON type:
        integers for the qubit count and targets, numbers for angles, two
        numbers ``[re, im]`` for ``global_phase`` and a string for ``kind``;
        a bool is not a number."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("native program must be a JSON object")
        try:
            phase = raw.get("global_phase", [1.0, 0.0])
            if type(phase) is not list or len(phase) != 2:
                raise ValueError(f"global_phase must be two JSON numbers [re, im], got {phase!r}")
            program = cls(
                qubit_count=_json_typed(raw["qubit_count"], "integer", "qubit_count"),
                ops=[
                    NativeOp(
                        kind=_json_typed(o["kind"], "string", "op kind"),
                        targets=tuple(_json_typed(t, "integer", "target") for t in o["targets"]),
                        angles=tuple(float(_json_typed(a, "number", "angle"))
                                     for a in o.get("angles", [])),
                    )
                    for o in raw["ops"]
                ],
                global_phase=complex(*(_json_typed(x, "number", "global_phase") for x in phase)),
            )
        except KeyError as missing:
            raise ValueError(f"native program is missing {missing}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed native program: {exc}") from None
        program.validate()
        return program

    def disassemble(self) -> str:
        """Plain-text listing, one op per line, for diffing."""
        lines = [
            f"# qubits {self.qubit_count} global_phase "
            f"{self.global_phase.real:.12g}{self.global_phase.imag:+.12g}j"
        ]
        lines += [op.format() for op in self.ops]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EulerAngles:
    """Angles of the factorization u = e^{i delta} R_z(alpha) R_x(beta) R_z(gamma)."""

    delta: float
    alpha: float
    beta: float
    gamma: float

    def matrix(self) -> np.ndarray:
        return (
            np.exp(1j * self.delta)
            * rz(self.alpha).matrix
            @ rx(self.beta).matrix
            @ rz(self.gamma).matrix
        )


def _single_qubit_unitary(u) -> np.ndarray:
    """``u`` as a 2x2 complex array; rejects other shapes, non-finite entries
    and a unitarity defect ``max|u u+ - I|`` above 1e-10."""
    m = as_matrix(u)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("input has a non-finite entry")
    defect = _unitarity_defect(m)
    if defect > 1e-10:
        raise ValueError(f"input is not unitary: defect {defect:.3e}")
    return m


def euler_decompose(u) -> EulerAngles:
    """Factor a 2x2 unitary as e^{i delta} R_z(alpha) R_x(beta) R_z(gamma).

    ``beta`` is canonical in [0, pi]; ``delta`` is chosen in (-pi/2, pi/2]
    via the determinant branch; diagonal inputs take the tie-break
    ``beta = gamma = 0`` so they reduce to a single z rotation.
    """
    m = _single_qubit_unitary(u)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    delta = 0.5 * np.angle(det)  # in (-pi/2, pi/2]
    v = np.exp(-1j * delta) * m  # special-unitary part
    c = abs(v[0, 0])
    s = abs(v[1, 0])
    beta = 2.0 * np.arctan2(s, c)
    if s < 1e-12:
        # Diagonal: only alpha + gamma is determined; put it all in alpha.
        alpha = 2.0 * np.angle(v[1, 1])
        gamma = 0.0
        beta = 0.0
    elif c < 1e-12:
        # Antidiagonal: only alpha - gamma is determined.
        alpha = 2.0 * np.angle(v[1, 0]) + np.pi
        gamma = 0.0
        beta = np.pi
    else:
        sum_half = np.angle(v[1, 1])
        diff_half = np.angle(v[1, 0]) + 0.5 * np.pi
        alpha = sum_half + diff_half
        gamma = sum_half - diff_half
    return EulerAngles(delta=float(delta), alpha=float(alpha), beta=float(beta), gamma=float(gamma))


_ANGLE_EPS = 1e-12


def lower_single_qubit(u) -> NativeProgram:
    """Lower a single-qubit gate to at most three native operations.

    Emits ``[PHASE(gamma), ISWAP(-beta), PHASE(alpha)]`` on pair 0
    (identity-angle operations dropped) with the Euler ``delta`` recorded as
    the program's global phase; :func:`lower_circuit` moves the ops to each
    gate's target.
    """
    angles = euler_decompose(u)
    ops: list[NativeOp] = []
    if abs(angles.gamma) > _ANGLE_EPS:
        ops.append(NativeOp(PHASE_KIND, (0,), (angles.gamma, 0.0)))
    if abs(angles.beta) > _ANGLE_EPS:
        ops.append(NativeOp(ISWAP_KIND, (0,), (-angles.beta,)))
    if abs(angles.alpha) > _ANGLE_EPS:
        ops.append(NativeOp(PHASE_KIND, (0,), (angles.alpha, 0.0)))
    return NativeProgram(qubit_count=1, ops=ops, global_phase=complex(np.exp(1j * angles.delta)))


@functools.lru_cache(maxsize=None)  # one entry per single-qubit name in SUPPORTED_GATES
def _standard_lowering(name: str) -> NativeProgram:
    """``lower_single_qubit(standard_gate(name))``, shared by every call: read
    it, never change it."""
    return lower_single_qubit(standard_gate(name))


def lower_circuit(
    circuit, qubit_count: int | None = None, lower_1q=_standard_lowering
) -> NativeProgram:
    """Lower a logical circuit over {X, H, S, T, CNOT} to native operations.

    ``circuit`` is a sequence of ``(gate_name, targets)`` pairs with logical
    qubit indices.  ``lower_1q(name)`` lowers a single-qubit gate name to a
    program on pair 0; it runs once per name, at the name's first gate.  Each
    gate of that name gets the program's ops moved to its target, and its
    global phase is multiplied into the result.  The default is the exact
    Euler lowering :func:`lower_single_qubit` of :func:`standard_gate`.  Each
    CNOT becomes one controlled-swap op.  Operation order preserves circuit
    semantics (first listed gate acts first).
    """
    ops: list[NativeOp] = []
    phase = 1.0 + 0.0j
    max_target = -1
    lowered: dict[str, NativeProgram] = {}
    retargeted: dict[tuple[str, int], tuple[list[NativeOp], complex]] = {}
    for name, targets in circuit:
        targets = tuple(int(t) for t in targets)
        max_target = max(max_target, *targets) if targets else max_target
        if name == "CNOT":
            if len(targets) != 2 or targets[0] == targets[1]:
                raise ValueError(f"CNOT takes two distinct targets, got {targets!r}")
            ops.append(NativeOp(CISWAP_KIND, targets))
        elif name in SUPPORTED_GATES:
            if len(targets) != 1:
                raise ValueError(f"{name} takes one target, got {targets!r}")
            key = (name, targets[0])
            if key not in retargeted:
                if name not in lowered:
                    lowered[name] = lower_1q(name)
                pair = lowered[name]
                retargeted[key] = ([NativeOp(op.kind, targets, op.angles) for op in pair.ops],
                                   pair.global_phase)
            sub_ops, sub_phase = retargeted[key]
            ops.extend(sub_ops)
            phase *= sub_phase
        else:
            raise ValueError(f"unsupported gate {name!r}")
    count = qubit_count if qubit_count is not None else max_target + 1
    program = NativeProgram(qubit_count=max(count, 1), ops=ops, global_phase=phase)
    program.validate()
    return program


# Fixed-angle generator set: native op template plus its code-space block.
_FIXED_GENERATORS: tuple[tuple[str, NativeOp, np.ndarray], ...] = tuple(
    (name, op, _op_kernel(op)[0]) for name, op in (
        ("ISWAP(pi/2)", NativeOp(ISWAP_KIND, (0,), (np.pi / 2,))),
        ("PHASE(pi/2)", NativeOp(PHASE_KIND, (0,), (np.pi / 2, 0.0))),
        ("PHASE(pi/4)", NativeOp(PHASE_KIND, (0,), (np.pi / 4, 0.0))),
    )
)

_DEDUP_DECIMALS = 6
# Table rows per distance scan: bounds the scan's temporaries, and a hit in
# one block skips the rest of the table.
_SCAN_ROWS = 256


@dataclass(frozen=True)
class FixedSetResult:
    """Outcome of the fixed-angle search; ``found=False`` is a result, not an
    error."""

    found: bool
    program: NativeProgram | None
    word: tuple[str, ...]
    distance: float
    depth: int


def _dedup_keys(stack: np.ndarray) -> list[bytes]:
    """Per matrix of ``stack``: its bytes with the global phase anchored on
    the first entry within rounding of the top magnitude, on a
    ``_DEDUP_DECIMALS`` grid."""
    flat = stack.reshape(len(stack), -1)
    mags = np.abs(flat)
    first = np.argmax(mags >= mags.max(axis=1, keepdims=True) - 1e-9, axis=1)
    anchor = flat[np.arange(len(flat)), first]
    normalized = flat * np.conj(anchor / np.hypot(anchor.real, anchor.imag))[:, None]
    rounded = np.round(normalized, _DEDUP_DECIMALS) + 0.0  # clear -0.0
    return [row.tobytes() for row in rounded]


@functools.lru_cache(maxsize=None)  # one entry per max_depth in 1..20
def _fixed_set_table(max_depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Every product the breadth-first search generates, in generation order.

    Level by level, each kept word of the previous level is extended by each
    generator (the new letter acts after the word so far).  Every child is a
    row, duplicates included, since the search measures each child before it
    deduplicates it; only children whose dedup key is new are extended.
    Returns the read-only ``(rows, 2, 2)`` products and each row's parent
    row (-1 for the empty word); see :func:`_table_word`.  The table does not
    depend on the target.
    """
    generators = np.stack([gen for _, _, gen in _FIXED_GENERATORS])
    frontier = np.eye(2, dtype=complex)[None]
    frontier_rows = np.array([-1])
    visited = set(_dedup_keys(frontier))
    levels: list[np.ndarray] = []
    parents: list[np.ndarray] = []
    for depth in range(1, max_depth + 1):
        children = np.matmul(generators, frontier[:, None]).reshape(-1, 2, 2)
        level_start = sum(map(len, levels))
        levels.append(children)
        parents.append(np.repeat(frontier_rows, len(generators)))
        if depth == max_depth:
            break
        keep = []
        for row, key in enumerate(_dedup_keys(children)):
            if key not in visited:
                visited.add(key)
                keep.append(row)
        frontier = children[keep]
        frontier_rows = level_start + np.array(keep, dtype=np.intp)
    table, parent = np.concatenate(levels), np.concatenate(parents)
    table.setflags(write=False)
    parent.setflags(write=False)
    return table, parent


def _table_word(parent: np.ndarray, row: int) -> tuple[int, ...]:
    """Letter indices of a table row's word.  Each level holds one child per
    generator for every kept parent, in generator order, so row ``r`` ends in
    letter ``r % 3``."""
    word = []
    while row >= 0:
        word.append(row % len(_FIXED_GENERATORS))
        row = int(parent[row])
    return tuple(reversed(word))


def _check_fixed_set_options(epsilon: float, max_depth: int) -> None:
    """Reject a fixed-set ``epsilon`` that is not positive and finite, or a
    ``max_depth`` outside 1..20, with a ``ValueError``."""
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0 < max_depth <= 20:
        raise ValueError("max_depth must be in 1..20")


def approximate_fixed_set(u, epsilon: float, max_depth: int) -> FixedSetResult:
    """Shortest word over the fixed gates approximating a single-qubit gate.

    Breadth-first search over products of the code-space actions
    {R_x(-pi/2), R_z(pi/2), R_z(pi/4)}, deduplicating visited unitaries up to
    global phase on a 1e-6 grid.  The search tree does not depend on the
    target, so it is built once per ``max_depth`` (:func:`_fixed_set_table`,
    cached) and each search is a vectorized scan of the phase-invariant
    distance over it, in generation order and in blocks of ``_SCAN_ROWS``
    rows.  The first product within ``epsilon`` wins, so ties at the minimal
    depth resolve to the lexicographically first word in generator order;
    its word is re-multiplied from scratch and re-measured before being
    returned.  Without one, the result carries the smallest distance seen
    and ``depth = max_depth``.  The target must be a finite 2x2 unitary
    (defect at most 1e-10) and ``epsilon`` positive and finite.
    """
    _check_fixed_set_options(epsilon, max_depth)
    target = _single_qubit_unitary(u)

    def finish(word: tuple[int, ...]) -> FixedSetResult:
        # Re-verify: rebuild the product from the word and measure again.
        product = np.eye(2, dtype=complex)
        for letter in word:
            product = _FIXED_GENERATORS[letter][2] @ product
        dists, phis = _phase_align(target, product[None])
        dist, phi = float(dists[0]), float(phis[0])
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

    best_seen = float(_phase_align(target, np.eye(2, dtype=complex)[None])[0][0])
    if best_seen <= epsilon:
        return finish(())
    table, parent = _fixed_set_table(max_depth)
    for start in range(0, len(table), _SCAN_ROWS):
        distances = _phase_align(target, table[start:start + _SCAN_ROWS])[0]
        hits = np.flatnonzero(distances <= epsilon)
        if hits.size:
            return finish(_table_word(parent, start + int(hits[0])))
        best_seen = min(best_seen, float(distances.min()))
    return FixedSetResult(
        found=False, program=None, word=(), distance=best_seen, depth=max_depth
    )


def parse_circuit(text: str) -> list[tuple[str, tuple[int, ...]]]:
    """Parse the one-gate-per-line circuit format.

    Each line is ``NAME target [target2]``; ``#`` starts a comment; blank
    lines are ignored.  Raises :class:`CircuitParseError` with the offending
    line number.
    """
    circuit: list[tuple[str, tuple[int, ...]]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name = tokens[0]
        if name not in SUPPORTED_GATES:
            raise CircuitParseError(line_number, f"unknown gate {name!r}")
        try:
            targets = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise CircuitParseError(
                line_number, f"targets must be integers, got {tokens[1:]!r}"
            ) from None
        expected = 2 if name == "CNOT" else 1
        if len(targets) != expected:
            raise CircuitParseError(
                line_number, f"{name} takes {expected} target(s), got {len(targets)}"
            )
        if any(t < 0 for t in targets):
            raise CircuitParseError(line_number, "targets must be nonnegative")
        if len(set(targets)) != len(targets):
            raise CircuitParseError(line_number, "targets must be distinct")
        circuit.append((name, targets))
    return circuit
