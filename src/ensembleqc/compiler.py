"""Lowering of logical circuits to the native gate set.

Single-qubit gates go through an exact z-x-z Euler decomposition and come out
as at most three native operations ``[PHASE(gamma), ISWAP(-beta),
PHASE(alpha)]`` (the sign on ISWAP absorbs the fact that its code-space
block is an x rotation by minus the angle).  The logical CNOT lowers to
a single controlled-swap operation.  :func:`fused_runs` is the one rule that
fuses the single-qubit gates of a qubit between two CNOTs into one 2x2
product; the simulator applies programs through it, and
:func:`lower_circuit` lowers each fused product of a circuit as one Euler
triple, so a run of any length costs at most three ops.  ``compile`` makes
one call per mode: :func:`_lower_exact`, or :func:`_lower_fixed_set`, which
approximates each gate name once by the shortest word over the fixed gates
{ISWAP(pi/2), PHASE(pi/2), PHASE(pi/4)} (:func:`approximate_fixed_set`).  The
breadth-first search tree over those words does not depend on the gate, so
it is built once per depth limit as a cached table of products, the empty
word in row 0, with each row's norm.  Each search brackets every row's
phase-invariant distance by a cheap formula for its square from one
matrix-vector product, and measures the distance in one call only on the
rows that the bracket cannot rule out, up to the first row that it proves
a hit; this gives the same result as measuring every row.

:func:`_checked_gate` is the one rule for a valid logical gate; its target
rule, :func:`_checked_targets`, is also that of every native op.  Every
:class:`NativeProgram`, lowered, searched or read by the one JSON reader of
:mod:`ensembleqc.physical`, is checked where it is built.
:func:`parse_circuit` checks only the text's syntax itself and returns a
checked circuit, an immutable tuple that the lowering takes as it is; any
other sequence goes through the same rule, so each gate is checked once.

``compile`` checks its program run by run in both modes, at any register
size (:func:`_equivalence_error`).  Circuit and program are each fused into
one 2x2 product per qubit between two CNOTs on it by :func:`fused_runs`:
the circuit from its ``gates._STANDARD`` matrices (:func:`_circuit_runs`),
the program afresh from the emitted ops' code-space blocks, which keeps the
check independent of the lowering.  It passes when the two CNOT sequences
are identical, each circuit product ``C`` equals ``lambda P`` for the
program's product ``P`` and a unit phase ``lambda`` (a product missing on
one side is the identity), and the product of the phases equals the
program's global phase; together these make the two 2^k x 2^k unitaries
equal, phases included.  Each ``lambda`` is that of
:func:`~ensembleqc.gates._phase_distance`, and the ``equivalence_error`` is
the largest of ``||C - lambda P||_F`` over every product and
``|global_phase - prod lambda|``, or 2 if the CNOT sequences differ.

A fixed-set program is certified by the same check.  If each of a run's
``L`` gates is replaced by a word within ``epsilon`` with phase ``mu_i``,
then ``||C - mu P||_F <= L epsilon`` for ``mu = prod mu_i`` by telescoping
(the norm is unitarily invariant); ``lambda`` minimizes it, so
``sqrt(2) |mu - lambda| <= 2 L epsilon``.  The global phase is the product
of the ``mu``, so summing over the runs bounds the ``equivalence_error`` by
``sqrt(2) epsilon N`` for ``N`` single-qubit gates.

PHASE operations are always emitted with the secondary angle phi = 0, whose
code-space action is exactly R_z(theta) with no stray global phase, and with
theta in (-pi, pi]; the program's accumulated global phase therefore comes
from the Euler delta and a sign for each whole turn taken off a PHASE angle.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import re
import reprlib
from dataclasses import dataclass
from operator import attrgetter, index, itemgetter

import numpy as np

from . import gates
from .gates import _phase_distance, _unitarity_defect, as_matrix, rx, rz
from .physical import _LIST_SLOT, _json_loads, _json_object, _json_pair, _json_typed, _slot

ISWAP_KIND = "ISWAP"
PHASE_KIND = "PHASE"
CISWAP_KIND = "CISWAP"

_ARITY = {ISWAP_KIND: (1, 1), PHASE_KIND: (1, 2), CISWAP_KIND: (2, 0)}
# Largest deviation from 1 of a global phase's modulus or of a state's norm.
NORM_ATOL = 1e-10
# Each kind's op as json.dumps(..., indent=2) lays it out in a program's "ops",
# with %d for each target and %r (float.__repr__, as json writes it) for each angle.
_OP_JSON = {
    kind: '{\n      "kind": "%s",\n      "targets": %s,\n      "angles": %s\n    }' % (
        kind, *("[\n        " + ",\n        ".join([spec] * n) + "\n      ]" if n else "[]"
                for spec, n in (("%d", targets), ("%r", angles))))
    for kind, (targets, angles) in _ARITY.items()
}


class CircuitParseError(ValueError):
    """A circuit file line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


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
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown native op kind {self.kind!r}")
        object.__setattr__(self, "targets", _checked_targets(self.kind, self.targets, arity[0]))
        try:
            angles = tuple(self.angles)
        except TypeError:
            raise ValueError(f"angles must be a sequence of numbers, got {self.angles!r}") from None
        if len(angles) != arity[1]:
            raise ValueError(f"{self.kind} takes {arity[1]} angle(s), got {self.angles!r}")
        gates._check_angles(*angles)
        # Python floats: equal angles share one float64 kernel, and the op hashes and serializes.
        object.__setattr__(self, "angles", tuple(map(float, angles)))

    def format(self) -> str:
        """``kind``, then ``q<target>`` per target and each angle to 12
        significant digits, space-separated."""
        t, a = self.targets, self.angles
        if self.kind == CISWAP_KIND:
            return f"{self.kind} q{t[0]} q{t[1]}"
        if self.kind == ISWAP_KIND:
            return f"{self.kind} q{t[0]} {a[0]:.12g}"
        return f"{self.kind} q{t[0]} {a[0]:.12g} {a[1]:.12g}"


# Bounded, since a program read from JSON may carry any number of angles.
@functools.lru_cache(maxsize=1024)
def _kernel(kind: str, angles: tuple[float, ...], zero_signs: tuple[float, ...]):
    """The read-only 2x2 code-space block of every op of one kind and angles,
    whatever its targets, or None for CISWAP, whose code-space action is the
    logical CNOT.  Every native op keeps its pair's one excitation, so the
    block is its whole action on code words:

    * ``ISWAP(theta)``: ``[[cos t/2, i sin t/2], [i sin t/2, cos t/2]]``.
      As a number this is ``R_x(-theta)``, but ``rx(-theta)`` gives the
      zero real part of the off-diagonal entries the other sign for
      ``theta < 0``.
    * ``PHASE(theta, phi)``: ``exp(i phi/2) R_z(theta)``.

    ``zero_signs`` only splits the cache key, because ``0.0 == -0.0`` while
    their blocks can differ in the sign of a zero.  This is the one map from
    an op to its matrix."""
    if kind == CISWAP_KIND:
        return None
    if kind == ISWAP_KIND:
        c, s = np.cos(angles[0] / 2), np.sin(angles[0] / 2)
        block = np.array([[c, 1j * s], [1j * s, c]])
    else:
        theta, phi = angles
        block = np.exp(0.5j * phi) * rz(theta).matrix
    block.setflags(write=False)
    return block


_sign = functools.partial(math.copysign, 1.0)


def _op_kernel(op: NativeOp):
    """:func:`_kernel` of ``op``'s kind and angles."""
    return _kernel(op.kind, op.angles, tuple(map(_sign, op.angles)))


@dataclass(frozen=True)
class NativeProgram:
    """Ordered native operations plus the accumulated global phase, checked
    where it is built: a ``qubit_count`` of at least 1 kept as a Python int,
    ops inside that register kept as a tuple, a phase of modulus 1 kept as a
    Python complex."""

    qubit_count: int
    ops: tuple[NativeOp, ...] = ()
    global_phase: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        count = self.qubit_count  # a Python or numpy int, not a bool
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"program needs at least one logical qubit, as an integer, got {count!r}")
        phase = self.global_phase  # complex() would parse a string
        try:
            phase = complex(phase) if isinstance(phase, numbers.Number) else math.nan
        except OverflowError:  # a Python int past the float range
            phase = math.nan
        if not abs(math.hypot(phase.real, phase.imag) - 1.0) <= NORM_ATOL:
            raise ValueError(f"global_phase must have modulus 1, got {self.global_phase!r}")
        ops = tuple(self.ops)
        if max(map(max, map(attrgetter("targets"), ops)), default=-1) >= count:
            op = next(op for op in ops if max(op.targets) >= count)
            raise ValueError(f"op {op.format()!r} touches a pair outside the {count}-qubit register")
        object.__setattr__(self, "qubit_count", int(count))
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "global_phase", phase)

    def to_json(self) -> str:
        """``json.dumps`` of the program's object with ``indent=2``.  json
        lays out only the head; each op's text is its kind's
        :data:`_OP_JSON` template, because json's indenting encoder is pure
        Python and slow on a long program."""
        head, tail = _slot(json.dumps({
            "qubit_count": self.qubit_count,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "ops": _LIST_SLOT,
        }, indent=2))
        ops = ",\n    ".join(_OP_JSON[op.kind] % (*op.targets, *op.angles) for op in self.ops)
        return head + (f"[\n    {ops}\n  ]" if ops else "[]") + tail

    @classmethod
    def from_json(cls, text: str) -> "NativeProgram":
        """Parse :meth:`to_json`'s layout by the one JSON reader of
        :mod:`ensembleqc.physical`: an integer qubit count, number angles, a
        ``[re, im]`` pair ``global_phase`` and a string ``kind``; a bool is not
        a number, and an unknown key of the program or an op is an error.
        Targets follow the one target rule of native ops."""
        raw = _json_object(_json_loads(text), ("qubit_count", "ops", "global_phase"), "native program")
        op_object = functools.partial(_json_object, keys=("kind", "targets", "angles"), name="native op")
        try:
            return cls(
                qubit_count=_json_typed(raw["qubit_count"], "integer", "qubit_count"),
                ops=[
                    NativeOp(
                        kind=_json_typed(o["kind"], "string", "op kind"),
                        targets=o["targets"],
                        angles=tuple(float(_json_typed(a, "number", "angle"))
                                     for a in o.get("angles", [])),
                    )
                    for o in map(op_object, raw["ops"])
                ],
                global_phase=_json_pair(raw.get("global_phase", [1.0, 0.0]), "global_phase"),
            )
        except KeyError as missing:
            raise ValueError(f"native program is missing {missing}") from None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed native program: {exc}") from None

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


def _short_turn(theta: float) -> tuple[float, float]:
    """``theta`` moved by whole turns into (-pi, pi], and the sign ``s`` with
    ``R_z(theta) = s R_z(moved)``: ``R_z(theta - 2 pi) = -R_z(theta)``, so
    each turn flips it."""
    sign = 1.0
    while theta > math.pi:
        theta, sign = theta - 2.0 * math.pi, -sign
    while theta <= -math.pi:
        theta, sign = theta + 2.0 * math.pi, -sign
    return theta, sign


def lower_single_qubit(u) -> NativeProgram:
    """Lower a single-qubit gate to at most three native operations.

    Emits ``[PHASE(gamma), ISWAP(-beta), PHASE(alpha)]`` on pair 0
    (identity-angle operations dropped) with the Euler ``delta`` recorded as
    the program's global phase; :func:`lower_circuit` moves the ops to each
    run's qubit.  ``alpha`` and ``gamma`` are first moved by whole turns into
    (-pi, pi], the shorter pulse, and each turn negates the global phase.
    """
    angles = euler_decompose(u)
    gamma, gamma_sign = _short_turn(angles.gamma)
    alpha, alpha_sign = _short_turn(angles.alpha)
    ops: list[NativeOp] = []
    if abs(gamma) > _ANGLE_EPS:
        ops.append(NativeOp(PHASE_KIND, (0,), (gamma, 0.0)))
    if abs(angles.beta) > _ANGLE_EPS:
        ops.append(NativeOp(ISWAP_KIND, (0,), (-angles.beta,)))
    if abs(alpha) > _ANGLE_EPS:
        ops.append(NativeOp(PHASE_KIND, (0,), (alpha, 0.0)))
    phase = gamma_sign * alpha_sign * complex(np.exp(1j * angles.delta))
    return NativeProgram(qubit_count=1, ops=ops, global_phase=phase)


def fused_runs(steps):
    """Fuse the single-qubit runs of ``steps``, an iterable of ``(block,
    targets)``: a 2x2 block on ``targets[0]``, or ``None`` for the CNOT on
    ``(control, target)``, in apply order.

    Each qubit keeps one pending 2x2 product of its blocks since its last
    flush, the later block on the left; a lone block is kept as it is.  A
    CNOT first flushes the pending product of its control, then of its
    target, and the end flushes what is left in ascending qubit order.
    Yields each flushed ``(product, (qubit,))`` and each ``(None, (control,
    target))`` in that order, which acts as ``steps`` do: a flushed product
    only moves past steps on other qubits.
    """
    pending: dict[int, np.ndarray] = {}
    for block, targets in steps:
        if block is not None:
            prior = pending.get(targets[0])
            pending[targets[0]] = block if prior is None else block @ prior
            continue
        for qubit in targets:
            if qubit in pending:
                yield pending.pop(qubit), (qubit,)
        yield None, targets
    for qubit in sorted(pending):
        yield pending[qubit], (qubit,)


def _moved(pair: NativeProgram, qubit: int) -> tuple[tuple[NativeOp, ...], complex]:
    """The ops of a pair-0 program moved to ``qubit``, and its global phase."""
    return tuple(NativeOp(op.kind, (qubit,), op.angles) for op in pair.ops), pair.global_phase


# Bounded, since every run of a circuit may fuse to a new product.
@functools.lru_cache(maxsize=4096)
def _lower_product(key: bytes) -> NativeProgram:
    """:func:`lower_single_qubit` of the 2x2 complex matrix whose bytes are
    ``key``, shared by every call."""
    return lower_single_qubit(np.frombuffer(key, dtype=complex).reshape(2, 2))


@functools.lru_cache(maxsize=4096)
def _lower_run(key: bytes, qubit: int) -> tuple[tuple[NativeOp, ...], complex]:
    """:func:`_lower_product` of ``key`` moved to ``qubit``."""
    return _moved(_lower_product(key), qubit)


# Bounded, since a circuit may name any pair of qubits.
@functools.lru_cache(maxsize=4096)
def _ciswap(targets: tuple[int, int]) -> NativeOp:
    """The CISWAP op on ``(control, target)``, shared by every call, which
    the op's being frozen makes safe."""
    return NativeOp(CISWAP_KIND, targets)


class _CheckedCircuit(tuple):
    """``(gate_name, targets)`` pairs that :func:`_checked_gate` has passed,
    each ``targets`` a tuple of Python ints; built only by the checks."""

    __slots__ = ()


def _checked_targets(name: str, targets, count: int) -> tuple[int, ...]:
    """The one target rule of gates and native ops: ``targets`` as a tuple
    of Python ints, or a ``ValueError`` for the first of these it breaks:
    each is an int or a numpy integer, not a bool; there are ``count`` (one
    or two) of them; each is nonnegative; two differ."""
    try:
        checked = tuple(targets)
        if not {*map(type, checked)} <= {int}:  # all plain ints, the common case, skip the check
            if bool in map(type, checked):
                raise TypeError
            checked = tuple(map(index, checked))
    except TypeError:
        raise ValueError(f"targets must be integers, got {reprlib.repr(targets)}") from None
    if len(checked) != count:
        raise ValueError(f"{name} takes {count} target(s), got {len(checked)}")
    if checked[0] < 0 or checked[-1] < 0:
        raise ValueError("targets must be nonnegative")
    if count == 2 and checked[0] == checked[1]:
        raise ValueError("targets must be distinct")
    return checked


def _checked_gate(name, targets) -> tuple[str, tuple[int, ...]]:
    """The one rule for a valid gate: ``(name, targets)`` with the targets
    as Python ints, or a ``ValueError``: ``name`` is a key of
    ``gates._STANDARD``, and the targets pass :func:`_checked_targets` for
    the gate's target count, its matrix dimension over 2."""
    try:
        count = len(gates._STANDARD[name]) // 2
    except (KeyError, TypeError):  # an unhashable name is unknown too
        raise ValueError(f"unknown gate {name!r}") from None
    return name, _checked_targets(name, targets, count)


def _checked_steps(circuit) -> _CheckedCircuit:
    """``circuit`` as a :class:`_CheckedCircuit`: one is returned unchanged,
    any other sequence of ``(gate_name, targets)`` goes through
    :func:`_checked_gate` gate by gate."""
    if isinstance(circuit, _CheckedCircuit):
        return circuit
    return _CheckedCircuit(_checked_gate(name, targets) for name, targets in circuit)


def _assemble(steps, units, lower, qubit_count: int | None) -> NativeProgram:
    """The program of checked ``steps`` from its ``units``: each ``(None,
    (control, target))`` becomes one CISWAP, and each ``(unit, (qubit,))`` the
    ops of ``lower(unit, qubit)``, whose phase is multiplied into the program's."""
    ops: list[NativeOp] = []
    phase = 1.0 + 0.0j
    for unit, targets in units:
        if unit is None:
            ops.append(_ciswap(targets))
        else:
            sub_ops, sub_phase = lower(unit, targets[0])
            ops.extend(sub_ops)
            phase *= sub_phase
    if qubit_count is None:
        qubit_count = max(map(max, map(itemgetter(1), steps)), default=0) + 1
    return NativeProgram(qubit_count=qubit_count, ops=ops, global_phase=phase)


def _circuit_runs(steps) -> list:
    """The list of :func:`fused_runs` over checked ``steps``' ``gates._STANDARD``
    blocks, which :func:`_equivalence_error` checks a program against."""
    return list(fused_runs((None if name == "CNOT" else gates._STANDARD[name], targets)
                           for name, targets in steps))


def _lower_exact(circuit, qubit_count: int | None = None) -> tuple[NativeProgram, list]:
    """:func:`lower_circuit`'s exact lowering of ``circuit``, and the
    circuit's flushed runs (:func:`_circuit_runs`), which it lowers."""
    steps = _checked_steps(circuit)
    runs = _circuit_runs(steps)
    units = ((None if block is None else block.tobytes(), targets) for block, targets in runs)
    return _assemble(steps, units, _lower_run, qubit_count), runs


def _lower_fixed_set(circuit, epsilon, max_depth) -> tuple[NativeProgram | None, list | None, dict]:
    """``compile --fixed-set``'s lowering: the options are checked first, so
    a CNOT-only circuit cannot pass with a bad one, then each single-qubit
    gate name's ``gates._STANDARD`` matrix is searched once
    (:func:`approximate_fixed_set`) in first-occurrence order, up to the
    first name without a word.  Returns the program (each gate its name's
    word on its target, the phase counted once per gate) and the circuit's
    flushed runs (:func:`_circuit_runs`), or ``None`` for both on a missing
    word, and each searched name's :class:`FixedSetResult`."""
    epsilon, max_depth = _check_fixed_set_options(epsilon, max_depth)
    steps = _checked_steps(circuit)
    results: dict[str, FixedSetResult] = {}
    for name in dict.fromkeys(name for name, _ in steps if name != "CNOT"):
        results[name] = approximate_fixed_set(gates._STANDARD[name], epsilon=epsilon,
                                              max_depth=max_depth)
        if not results[name].found:
            return None, None, results
    units = ((None if name == "CNOT" else name, targets) for name, targets in steps)
    lower = functools.cache(lambda name, qubit: _moved(results[name].program, qubit))
    return _assemble(steps, units, lower, None), _circuit_runs(steps), results


def lower_circuit(circuit, qubit_count: int | None = None) -> NativeProgram:
    """Lower a logical circuit over {X, H, S, T, CNOT} to native operations.

    ``circuit`` is a sequence of ``(gate_name, targets)`` pairs with logical
    qubit indices, checked by :func:`_checked_steps` unless
    :func:`parse_circuit` built it; the first listed gate acts first.  Each
    CNOT becomes one controlled-swap op.  The single-qubit gates are fused
    by :func:`fused_runs`, and each flushed product is lowered by
    :func:`lower_single_qubit`, cached by the product's bytes and moved to
    its qubit, so each run between two CNOTs on a qubit costs at most three
    ops.  This is :func:`_lower_exact`'s program; ``compile --fixed-set``
    lowers by :func:`_lower_fixed_set` instead.
    """
    return _lower_exact(circuit, qubit_count)[0]


# A CNOT skeleton that differs between circuit and program counts as this
# deviation: the largest phase-invariant distance between two 2x2 unitaries.
_SKELETON_MISMATCH = 2.0


def _fused_segments(runs) -> tuple[list[tuple[int, int]], dict[tuple[int, int], np.ndarray]]:
    """Flushed ``runs`` of :func:`fused_runs` as their CNOT skeleton and
    their products keyed by ``(qubit, segment)``, where a qubit's segment
    counts the CNOTs on it before the product."""
    skeleton: list[tuple[int, int]] = []
    products: dict[tuple[int, int], np.ndarray] = {}
    segment: dict[int, int] = {}
    for block, targets in runs:
        if block is None:
            skeleton.append(targets)
            for qubit in targets:
                segment[qubit] = segment.get(qubit, 0) + 1
        else:
            products[targets[0], segment.get(targets[0], 0)] = block
    return skeleton, products


def _equivalence_error(runs, program: NativeProgram) -> float:
    """The ``equivalence_error`` of ``program`` against a circuit whose
    flushed runs are ``runs`` (:func:`_circuit_runs`; see the module
    docstring): the program side is fused afresh from its ops' code-space
    blocks, and each segment's distance and phase ``lambda`` are those of
    :func:`~ensembleqc.gates._phase_distance`.  Sound, since a fused
    product only moves past ops on other qubits; O(gates), with no 2^k
    array."""
    skeleton, wanted = _fused_segments(runs)
    program_skeleton, emitted = _fused_segments(fused_runs(
        zip(map(_op_kernel, program.ops), map(attrgetter("targets"), program.ops))))
    if program_skeleton != skeleton:
        return _SKELETON_MISMATCH
    keys = list(wanted.keys() | emitted.keys())
    eye = np.eye(2, dtype=complex)
    c = np.array([wanted.get(key, eye) for key in keys]).reshape(-1, 2, 2)
    p = np.array([emitted.get(key, eye) for key in keys]).reshape(-1, 2, 2)
    distances, phases = _phase_distance(c, p)
    return max(float(distances.max(initial=0.0)), abs(program.global_phase - complex(phases.prod())))


# Fixed-angle generator set: native op template plus its code-space block.
_FIXED_GENERATORS: tuple[tuple[str, NativeOp, np.ndarray], ...] = tuple(
    (name, op, _op_kernel(op)) for name, op in (
        ("ISWAP(pi/2)", NativeOp(ISWAP_KIND, (0,), (np.pi / 2,))),
        ("PHASE(pi/2)", NativeOp(PHASE_KIND, (0,), (np.pi / 2, 0.0))),
        ("PHASE(pi/4)", NativeOp(PHASE_KIND, (0,), (np.pi / 4, 0.0))),
    )
)

_DEDUP_DECIMALS = 6
# Slack on F^2 as _frobenius_squares computes it: each of its three terms
# is at most 4 and rounds by a few ulps, far below it.
_F2_SLACK = 1e-12
# Slack on the scan's cut: F and d are at most 2 and round by a few ulps, far below it.
_PRUNE_RTOL = 1e-9
_PRUNE_ATOL = 1e-12


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
def _fixed_set_table(max_depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every product the breadth-first search generates, in generation order.

    Row 0 is the identity (the empty word, parent -1).  Level by level, each
    kept word of the previous level is extended by each generator (the new
    letter acts after the word so far).  Every child is a row, duplicates
    included, since the search measures each child before it deduplicates
    it; only children whose dedup key is new are extended.  Returns the
    read-only ``(rows, 2, 2)`` products, each row's parent row (see
    :func:`_table_word`) and each row's squared Frobenius norm ``|b[n]|^2``.
    The table does not depend on the target.
    """
    generators = np.stack([gen for _, _, gen in _FIXED_GENERATORS])
    frontier = np.eye(2, dtype=complex)[None]
    frontier_rows = np.array([0])
    visited = set(_dedup_keys(frontier))
    levels, parents = [frontier], [np.array([-1])]
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
    parts = table.reshape(len(table), -1).view(float)  # each row's own |b[n]|^2, not an assumed 2
    norms = np.einsum("ij,ij->i", parts, parts)
    for array in (table, parent, norms):
        array.setflags(write=False)
    return table, parent, norms


def _table_word(parent: np.ndarray, row: int) -> tuple[int, ...]:
    """Letter indices of a table row's word.  After the identity in row 0,
    each level holds one child per generator for every kept parent, in
    generator order, so row ``r > 0`` ends in letter ``(r - 1) % 3``."""
    word = []
    while row > 0:
        word.append((row - 1) % len(_FIXED_GENERATORS))
        row = int(parent[row])
    return tuple(reversed(word))


def _check_fixed_set_options(epsilon, max_depth) -> tuple[float, int]:
    """``(float(epsilon), int(max_depth))``, or a ``ValueError`` unless ``epsilon``
    is a positive, finite real number and ``max_depth`` an integer in 1..20, neither a bool."""
    real = isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
    try:
        value = float(epsilon) if real else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    try:
        depth = -1 if isinstance(max_depth, bool) else index(max_depth)
    except TypeError:
        depth = -1
    if not 0 < depth <= 20:
        raise ValueError(f"max_depth must be an integer in 1..20, got {max_depth!r}")
    return value, depth


def _frobenius_squares(a: np.ndarray, b: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``min_phi ||a - exp(i phi) b[n]||_F^2 = |a|^2 + |b[n]|^2 - 2|<a, b[n]>|``
    for a stack ``b`` with ``norms[n] = |b[n]|^2``, from one matrix-vector product."""
    af = a.reshape(-1)
    squares = norms + float(np.vdot(af, af).real)
    squares -= 2.0 * np.abs(b.reshape(len(b), af.size) @ np.conj(af))
    return squares


def approximate_fixed_set(u, epsilon: float, max_depth: int) -> FixedSetResult:
    """Shortest word over the fixed gates approximating a single-qubit gate.

    Breadth-first search over products of the code-space actions
    {R_x(-pi/2), R_z(pi/2), R_z(pi/4)}, deduplicating visited unitaries up to
    global phase on a 1e-6 grid.  The search tree does not depend on the
    target, so it is built once per ``max_depth`` (:func:`_fixed_set_table`,
    cached) and each search scans it in generation order, the identity (the
    empty word) in row 0.  The first product within ``epsilon`` wins, so
    ties at the minimal depth resolve to the lexicographically first word in
    generator order; its word is re-multiplied from scratch and re-measured
    before being returned.  Without one, the result carries the smallest
    distance over the table, and ``depth = max_depth``.  The target must be
    a finite 2x2 unitary (defect at most 1e-10), ``epsilon`` a positive,
    finite real number and ``max_depth`` an integer in 1..20.

    One bracket, one cut and one measurement.  ``d`` is the one
    phase-invariant distance (:func:`~ensembleqc.gates._phase_distance`),
    whose phase is the program's global phase.  Every row's ``F^2 = d^2``
    also has a cheap formula (:func:`_frobenius_squares`), so with the slack
    ``_F2_SLACK``, ``F_lo = sqrt(F^2 - slack) <= d <= F_hi = sqrt(F^2 +
    slack)`` after rounding.  The smallest ``F_hi``, ``U``, bounds the
    smallest ``d``, so a row with ``F_lo > max(epsilon, U)`` (plus
    ``_PRUNE_RTOL`` relative and ``_PRUNE_ATOL`` absolute slack) can be
    neither the first hit nor the not-found minimum, and a row with ``F_hi
    <= epsilon`` is a sure hit.  One call measures the rows inside the cut,
    in generation order, up to the first sure hit (none if it comes first;
    the re-verification measures once more).  A row's ``d`` does not depend
    on the rows measured with it, so the result, bit for bit, is that of
    measuring every row.
    """
    epsilon, max_depth = _check_fixed_set_options(epsilon, max_depth)
    target = _single_qubit_unitary(u)[None]  # a stack of one matrix, for _phase_distance

    def finish(word: tuple[int, ...]) -> FixedSetResult:
        # Re-verify: rebuild the product from the word and measure again.
        product = np.eye(2, dtype=complex)
        for letter in word:
            product = _FIXED_GENERATORS[letter][2] @ product
        (dist,), (phase,) = _phase_distance(target, product[None])
        if dist > epsilon:
            raise AssertionError("search produced a word that fails re-verification")
        ops = [_FIXED_GENERATORS[letter][1] for letter in word]
        program = NativeProgram(qubit_count=1, ops=ops, global_phase=complex(phase))
        names = tuple(_FIXED_GENERATORS[letter][0] for letter in word)
        return FixedSetResult(
            found=True, program=program, word=names, distance=float(dist), depth=len(word)
        )

    table, parent, norms = _fixed_set_table(max_depth)
    squares = _frobenius_squares(target, table, norms)
    upper = math.sqrt(float(squares.min()) + _F2_SLACK)
    cut = max(epsilon, upper) * (1.0 + _PRUNE_RTOL) + _PRUNE_ATOL
    # F_lo <= cut, squared; a Python float product overflows to inf silently.
    rows = np.flatnonzero(squares <= cut * cut + _F2_SLACK)
    # The first row with F_hi <= epsilon is a sure hit: measure only the rows before it.
    sure = np.flatnonzero(np.sqrt(squares[rows] + _F2_SLACK) <= epsilon)
    stop = int(sure[0]) if sure.size else len(rows)
    if stop:
        distances = _phase_distance(target, table[rows[:stop]])[0]
        hits = np.flatnonzero(distances <= epsilon)
        stop = int(hits[0]) if hits.size else stop
    if stop < len(rows):
        return finish(_table_word(parent, int(rows[stop])))
    return FixedSetResult(
        found=False, program=None, word=(), distance=float(distances.min()), depth=max_depth
    )


_TARGET = re.compile(r"-?[0-9]+")


def parse_circuit(text: str) -> _CheckedCircuit:
    """Parse the one-gate-per-line circuit format into a checked circuit,
    which :func:`lower_circuit` takes without checking it again.

    Each line is ``NAME target [target2]``; ``#`` starts a comment; blank
    lines are ignored.  A target is written in ASCII decimal digits,
    ``-?[0-9]+``, so ``1_0``, ``+1`` or non-ASCII digits are not targets:
    such a line's words stay strings, which :func:`_checked_gate`, the one
    rule for every other rejection, refuses as non-integers.  Raises
    :class:`CircuitParseError` with the offending line number.
    """
    circuit: list[tuple[str, tuple[int, ...]]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        name, *targets = tokens
        # Words that are not all integers stay strings, for the gate rule to reject.
        digits = "".join(targets)  # all digits is the common case, and cheap to see
        try:
            if (digits.isascii() and digits.isdigit()) or all(map(_TARGET.fullmatch, targets)):
                targets = tuple(map(int, targets))  # past int()'s digit limit, a ValueError
            circuit.append(_checked_gate(name, targets))
        except ValueError as exc:
            raise CircuitParseError(line_number, str(exc)) from None
    return _CheckedCircuit(circuit)
