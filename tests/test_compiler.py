import dataclasses
import itertools
import json
import math
import re
import sys
import warnings
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc import compiler, gates, simulator
from ensembleqc.compiler import (
    _FIXED_GENERATORS,
    CISWAP_KIND,
    ISWAP_KIND,
    PHASE_KIND,
    CircuitParseError,
    EulerAngles,
    FixedSetResult,
    NativeOp,
    NativeProgram,
    _fixed_set_table,
    _table_word,
    approximate_fixed_set,
    euler_decompose,
    fused_runs,
    lower_circuit,
    lower_single_qubit,
    parse_circuit,
)
from ensembleqc.gates import (
    _phase_distance,
    rx,
    rz,
    standard_gate,
)
from helpers import (
    fixed_set_reference,
    haar_unitary_2,
    int_error,
    logical_circuit_matrix,
    native_op_format_reference,
    native_program_json_reference,
    pair_matrix,
    parse_circuit_reference,
    phase_distance,
    phase_distance_reference,
    restrict_to_logical,
    run_ops_reference,
)


def program_logical_matrix(program: NativeProgram) -> np.ndarray:
    """Replay a single-qubit program as its code-space matrix product."""
    total = np.eye(2, dtype=complex) * program.global_phase
    for op in program.ops:
        if op.kind not in (ISWAP_KIND, PHASE_KIND):
            raise AssertionError("single-qubit program expected")
        total = restrict_to_logical(pair_matrix(op)).matrix @ total
    return total


def mixed_circuit(rng: np.random.Generator, k: int, gate_count: int) -> list:
    """``gate_count`` gates on ``k`` qubits: 30% CNOT and the rest split
    evenly over X, H, S and T, in seeded order on seeded qubits."""
    n_cnot = round(0.3 * gate_count)
    names = ["CNOT"] * n_cnot + ["XHST"[i % 4] for i in range(gate_count - n_cnot)]
    circuit = []
    for name in rng.permutation(names):
        size = 2 if name == "CNOT" else 1
        circuit.append((str(name), tuple(int(q) for q in rng.choice(k, size=size, replace=False))))
    return circuit


def per_gate_op_count(circuit) -> int:
    return sum(1 if name == "CNOT" else len(lower_single_qubit(standard_gate(name)).ops)
               for name, _ in circuit)


def ops_per_run(program: NativeProgram) -> list[int]:
    """The op count of every run of single-qubit ops on one qubit between
    two CISWAPs on it."""
    runs: dict[int, int] = {}
    counts = []
    for op in program.ops:
        if op.kind == CISWAP_KIND:
            counts += [runs.pop(q, 0) for q in op.targets]
        else:
            runs[op.targets[0]] = runs.get(op.targets[0], 0) + 1
    return counts + list(runs.values())


class TestEulerDecompose:
    def test_identity(self):
        angles = euler_decompose(np.eye(2))
        assert (angles.delta, angles.alpha, angles.beta, angles.gamma) == (0, 0, 0, 0)

    def test_hadamard_canonical_angles(self):
        angles = euler_decompose(standard_gate("H"))
        for value in (angles.delta, angles.alpha, angles.beta, angles.gamma):
            assert abs(value - np.pi / 2) < 1e-12

    def test_t_gate(self):
        angles = euler_decompose(standard_gate("T"))
        assert abs(angles.delta - np.pi / 8) < 1e-12
        assert abs(angles.alpha - np.pi / 4) < 1e-12
        assert angles.beta == 0.0 and angles.gamma == 0.0

    def test_diagonal_tie_break_is_exact(self):
        for theta in (0.1, -2.0, 3.0):
            angles = euler_decompose(rz(theta))
            assert angles.gamma == 0.0 and angles.beta == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            u = haar_unitary_2(rng)
            angles = euler_decompose(u)
            assert np.max(np.abs(angles.matrix() - u)) < 1e-9
            assert 0.0 <= angles.beta <= np.pi

    def test_antidiagonal_branch(self):
        angles = euler_decompose(standard_gate("X"))
        assert abs(angles.beta - np.pi) < 1e-12
        assert angles.gamma == 0.0
        assert np.max(np.abs(angles.matrix() - standard_gate("X").matrix)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            euler_decompose(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_non_finite(self):
        # A NaN entry makes the unitarity defect NaN, which no threshold rejects.
        with pytest.raises(ValueError, match="non-finite"):
            euler_decompose(np.array([[1.0, 0.0], [0.0, np.nan]]))

    def test_reconstruction_invariant(self):
        angles = EulerAngles(delta=0.3, alpha=-1.0, beta=0.5, gamma=2.0)
        rebuilt = euler_decompose(angles.matrix())
        assert np.max(np.abs(rebuilt.matrix() - angles.matrix())) < 1e-9


class TestLowerSingleQubit:
    def test_t_lowers_to_one_phase_op(self):
        program = lower_single_qubit(standard_gate("T"))
        assert len(program.ops) == 1
        op = program.ops[0]
        assert op.kind == PHASE_KIND and op.targets == (0,) and program.qubit_count == 1
        assert abs(op.angles[0] - np.pi / 4) < 1e-12 and op.angles[1] == 0.0
        assert abs(program.global_phase - np.exp(1j * np.pi / 8)) < 1e-12

    def test_x_lowers_to_one_full_swap(self):
        program = lower_single_qubit(standard_gate("X"))
        assert len(program.ops) == 1
        op = program.ops[0]
        assert op.kind == ISWAP_KIND
        assert abs(abs(op.angles[0]) - np.pi) < 1e-12

    def test_identity_lowers_to_nothing(self):
        program = lower_single_qubit(np.eye(2))
        assert program.ops == ()
        assert program.global_phase == 1.0

    def test_emits_at_most_three_ops(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            program = lower_single_qubit(haar_unitary_2(rng))
            assert len(program.ops) <= 3

    def test_replay_reproduces_gate(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            u = haar_unitary_2(rng)
            replay = program_logical_matrix(lower_single_qubit(u))
            assert np.max(np.abs(replay - u)) < 1e-9

    def test_phase_angles_are_short_and_exact(self):
        # Every PHASE angle lies in (-pi, pi], and the whole turns it lost
        # are in the global phase: the program equals the gate, phase
        # included.  X then S once gave PHASE(3pi/2).
        rng = np.random.default_rng(58)
        unitaries = [haar_unitary_2(rng) for _ in range(300)]
        unitaries += [reduce(np.matmul, (standard_gate(name).matrix for name in word), np.eye(2))
                      for length in range(5) for word in itertools.product("XHST", repeat=length)]
        for u in unitaries:
            program = lower_single_qubit(u)
            assert all(-np.pi < op.angles[0] <= np.pi
                       for op in program.ops if op.kind == PHASE_KIND)
            assert np.max(np.abs(program_logical_matrix(program) - u)) < 1e-12


class TestLowerCircuit:
    def test_cnot_is_one_native_op(self):
        program = lower_circuit([("CNOT", (0, 1))])
        assert len(program.ops) == 1
        assert program.ops[0] == NativeOp(CISWAP_KIND, (0, 1))

    def test_hadamard_is_three_ops(self):
        program = lower_circuit([("H", (0,))])
        assert len(program.ops) == 3
        kinds = [op.kind for op in program.ops]
        assert kinds == [PHASE_KIND, ISWAP_KIND, PHASE_KIND]

    def test_bell_circuit_is_four_ops(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        assert len(program.ops) == 4
        assert program.qubit_count == 2
        assert program.ops[-1].kind == CISWAP_KIND

    def test_order_preserved(self):
        # T then S on one qubit fuse to S T = e^{i 3pi/8} R_z(3pi/4): one op.
        # Runs stay on their side of each CNOT on their qubit.
        program = lower_circuit([("T", (0,)), ("S", (0,)), ("CNOT", (0, 1)), ("S", (0,))])
        assert [op.kind for op in program.ops] == [PHASE_KIND, CISWAP_KIND, PHASE_KIND]
        assert abs(program.ops[0].angles[0] - 3 * np.pi / 4) < 1e-12
        assert abs(program.ops[2].angles[0] - np.pi / 2) < 1e-12
        assert abs(program.global_phase - np.exp(1j * 5 * np.pi / 8)) < 1e-12

    def test_unsupported_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            lower_circuit([("Y", (0,))])

    def test_bad_cnot_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            lower_circuit([("CNOT", (1, 1))])

    def test_equals_per_gate_lowering(self):
        # Lowering every gate on its own, moved to its target, is the
        # per-gate reference.  The fused lowering and the reference each pass
        # the run-by-run check against the circuit, phase included; the fused
        # one emits at most three ops per run, at least 25% fewer ops in all.
        rng = np.random.default_rng(45)
        for k in (4, 10, 20):
            circuit = mixed_circuit(rng, k, 10 * k)
            ops, phase = [], 1.0 + 0.0j
            for name, targets in circuit:
                if name == "CNOT":
                    ops.append(NativeOp(CISWAP_KIND, targets))
                else:
                    sub = lower_single_qubit(standard_gate(name))
                    ops.extend(NativeOp(op.kind, targets, op.angles) for op in sub.ops)
                    phase *= sub.global_phase
            reference = NativeProgram(qubit_count=k, ops=ops, global_phase=phase)
            fused, runs = compiler._lower_exact(circuit, qubit_count=k)
            assert compiler._equivalence_error(runs, reference) < 1e-12
            assert compiler._equivalence_error(runs, fused) < 1e-12
            assert max(ops_per_run(fused)) <= 3
            assert per_gate_op_count(circuit) == len(ops)
            assert len(fused.ops) <= 0.75 * len(ops)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fused_lowering_matches_logical_oracle(self, seed):
        # Every run between CNOTs on a qubit costs at most three ops, and the
        # program, phase included, is the circuit's matrix to 1e-9.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        names = ["X", "H", "S", "T"] + ["CNOT"] * (k > 1)
        circuit = []
        for name in (names[i] for i in rng.integers(len(names), size=int(rng.integers(0, 40)))):
            size = 2 if name == "CNOT" else 1
            circuit.append((name, tuple(int(q) for q in rng.choice(k, size=size, replace=False))))
        program = lower_circuit(circuit, qubit_count=k)
        assert max(ops_per_run(program), default=0) <= 3
        matrix = run_ops_reference(program, np.eye(2**k, dtype=complex)) * program.global_phase
        assert np.max(np.abs(matrix - logical_circuit_matrix(circuit, k))) < 1e-9

    def test_run_lowering_is_cached_by_product(self, monkeypatch):
        # One Euler lowering per distinct product, whatever its qubit, one
        # move per (product, qubit), and a warm call does neither.
        calls = []
        lower = compiler.lower_single_qubit

        def spy(u):
            calls.append(np.array(u))
            return lower(u)

        monkeypatch.setattr(compiler, "lower_single_qubit", spy)
        compiler._lower_product.cache_clear()
        compiler._lower_run.cache_clear()
        circuit = [("H", (0,)), ("T", (0,)), ("H", (1,)), ("T", (1,)), ("CNOT", (0, 1)),
                   ("H", (0,)), ("T", (0,))]
        first = lower_circuit(circuit)
        assert len(calls) == 1
        assert np.array_equal(calls[0], standard_gate("T").matrix @ standard_gate("H").matrix)
        assert [op.targets for op in first.ops] == [(0,)] * 3 + [(1,)] * 3 + [(0, 1)] + [(0,)] * 3
        assert compiler._lower_run.cache_info().currsize == 2
        assert lower_circuit(circuit) == first and len(calls) == 1
        assert compiler._lower_run.cache_info().misses == 2

    def test_single_qubit_lowering_argument(self, monkeypatch):
        # The fixed-set lowering searches each single-qubit name once, on its
        # gates._STANDARD matrix, in the order the names first occur; the
        # word lands on each gate's target and its phase counts once per gate.
        seen = []

        def search(u, epsilon, max_depth):
            seen.append(u)
            op = NativeOp(PHASE_KIND, (0,), (0.5, 0.0))
            program = NativeProgram(qubit_count=1, ops=[op], global_phase=1j)
            return FixedSetResult(True, program, ("PHASE(pi/2)",), 0.0, 1)

        monkeypatch.setattr(compiler, "approximate_fixed_set", search)
        circuit = [("H", (1,)), ("CNOT", (1, 0)), ("T", (0,)), ("H", (2,)), ("T", (0,))]
        program, runs, results = compiler._lower_fixed_set(circuit, 0.1, 4)
        assert list(results) == ["H", "T"]
        # The circuit's runs, as the exact lowering fuses them, for the check.
        assert ([(None if b is None else b.tobytes(), t) for b, t in runs]
                == [(None if b is None else b.tobytes(), t) for b, t in compiler._lower_exact(circuit)[1]])
        assert len(seen) == 2
        assert seen[0] is gates._STANDARD["H"] and seen[1] is gates._STANDARD["T"]
        assert [op.targets for op in program.ops] == [(1,), (1, 0), (0,), (2,), (0,)]
        assert [op.kind for op in program.ops] == [PHASE_KIND, CISWAP_KIND] + [PHASE_KIND] * 3
        assert program.global_phase == 1.0
        assert program.qubit_count == 3

    def test_fixed_set_stops_at_the_first_name_without_a_word(self, monkeypatch):
        # No search runs after the first name without a word, and no program is built.
        seen = []
        search = compiler.approximate_fixed_set

        def spy(u, epsilon, max_depth):
            seen.append(u)
            return search(u, epsilon=epsilon, max_depth=max_depth)

        monkeypatch.setattr(compiler, "approximate_fixed_set", spy)
        circuit = [("S", (0,)), ("H", (1,)), ("T", (0,)), ("X", (2,))]
        program, runs, results = compiler._lower_fixed_set(circuit, 1e-9, 1)
        assert program is None and runs is None
        assert list(results) == ["S", "H"] and len(seen) == 2
        assert results["S"].found and not results["H"].found


class TestFusedRuns:
    def test_flush_order(self):
        # Pending products flush before a CNOT on their qubit, control first,
        # and at the end in ascending qubit order; the later block multiplies
        # on the left and a lone block is yielded as it is.
        a, b, c, d = (np.diag([1.0, z]) for z in (1j, -1.0, -1j, np.exp(0.25j * np.pi)))
        steps = [(a, (2,)), (b, (0,)), (c, (1,)), (d, (0,)), (None, (1, 0)), (a, (0,))]
        fused = list(fused_runs(steps))
        assert [targets for _, targets in fused] == [(1,), (0,), (1, 0), (0,), (2,)]
        assert fused[0][0] is c and fused[2][0] is None and fused[3][0] is a
        assert np.array_equal(fused[1][0], d @ b)
        assert fused[4][0] is a

    def test_empty_and_cnot_only(self):
        assert list(fused_runs([])) == []
        assert list(fused_runs([(None, (0, 1))])) == [(None, (0, 1))]


class TestNativeProgram:
    def test_json_round_trip(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1)), ("T", (1,))])
        recovered = NativeProgram.from_json(program.to_json())
        assert recovered.qubit_count == program.qubit_count
        assert recovered.ops == program.ops
        assert abs(recovered.global_phase - program.global_phase) < 1e-15

    @given(ops=st.lists(st.tuples(
               st.sampled_from([ISWAP_KIND, PHASE_KIND, CISWAP_KIND]),
               st.lists(st.integers(0, 2**64), min_size=2, max_size=2, unique=True),
               st.lists(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324,
                                         1.7976931348623157e308, -1.7976931348623157e308])
                        | st.floats(allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=2)), max_size=6),
           phase=st.sampled_from([1 + 0j, complex(1.0, -0.0), complex(-0.0, 1.0), -1 + 0j,
                                  complex(0.6, -0.8)]))
    @settings(max_examples=200, deadline=None)
    def test_to_json_equals_indented_dumps(self, ops, phase):
        # Empty programs, CISWAP's empty angles, -0.0 and the extreme finite
        # angles, each written as json.dumps(..., indent=2) writes it.
        ops = [NativeOp(kind, tuple(targets[:compiler._ARITY[kind][0]]),
                        tuple(angles[:compiler._ARITY[kind][1]])) for kind, targets, angles in ops]
        qubit_count = 1 + max((max(op.targets) for op in ops), default=0)
        program = NativeProgram(qubit_count, ops, phase)
        text = program.to_json()
        assert text == native_program_json_reference(program)
        assert NativeProgram.from_json(text) == program
        assert NativeProgram.from_json(text).to_json() == text

    def test_to_json_of_a_long_program_equals_indented_dumps(self):
        rng = np.random.default_rng(0)
        circuit = [("CNOT", tuple(map(int, rng.choice(10, size=2, replace=False))))
                   if rng.random() < 0.3 else ("XHST"[rng.integers(4)], (int(rng.integers(10)),))
                   for _ in range(10_000)]
        program = lower_circuit(circuit)
        assert len(program.ops) > 8000
        assert program.to_json() == native_program_json_reference(program)
        assert NativeProgram.from_json(program.to_json()) == program

    def test_from_json_rejects_too_deep_nesting(self):
        with pytest.raises(ValueError, match="too deep"):
            NativeProgram.from_json("[" * 10**5 + "]" * 10**5)

    def test_disassembly_one_op_per_line(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        lines = program.disassemble().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[1].startswith("PHASE q0 ")
        assert lines[-1] == "CISWAP q0 q1"

    @given(kind=st.sampled_from([ISWAP_KIND, PHASE_KIND, CISWAP_KIND]),
           targets=st.lists(st.integers(0, 2**64), min_size=2, max_size=2, unique=True),
           angles=st.lists(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324,
                                            1e300, -1e300])
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_format_matches_the_list_and_join_definition(self, kind, targets, angles):
        target_count, angle_count = compiler._ARITY[kind]
        op = NativeOp(kind, tuple(targets[:target_count]), tuple(angles[:angle_count]))
        assert op.format() == native_op_format_reference(op)

    def test_validate_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError, match="outside"):
            NativeProgram(qubit_count=1, ops=[NativeOp(CISWAP_KIND, (0, 1))])

    @pytest.mark.parametrize("qubit_count, ops, phase, message", [
        (0, [], 1.0, "program needs at least one logical qubit"),
        (-3, [], 1.0, "program needs at least one logical qubit"),
        (1, [NativeOp(ISWAP_KIND, (1,), (0.1,))], 1.0,
         "op 'ISWAP q1 0.1' touches a pair outside the 1-qubit register"),
        (3, [NativeOp(CISWAP_KIND, (0, 3))], 1.0, "outside the 3-qubit register"),
        (1, [], 1.1, "global_phase must have modulus 1, got "),
        (1, [], 0.6 + 0.8000001j, "modulus 1"),
    ])
    def test_the_rule_holds_where_a_program_is_built(self, qubit_count, ops, phase, message):
        # The constructor raises, and from_json raises the same message on the
        # same program, so no caller can hold a program that breaks the rule.
        with pytest.raises(ValueError, match=re.escape(message)):
            NativeProgram(qubit_count, ops, phase)
        text = native_program_json_reference(SimpleNamespace(
            qubit_count=qubit_count, ops=ops, global_phase=complex(phase)))
        with pytest.raises(ValueError, match=re.escape(message)):
            NativeProgram.from_json(text)

    @pytest.mark.parametrize("field", ["qubit_count", "ops", "global_phase"])
    def test_a_program_is_frozen(self, field):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        before = program.to_json()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(program, field, getattr(program, field))
        assert program.to_json() == before

    def test_a_program_holds_a_tuple_and_has_no_separate_check(self):
        assert not hasattr(NativeProgram, "validate")
        ops = [NativeOp(ISWAP_KIND, (0,), (0.5,))]
        program = NativeProgram(1, ops)
        ops.append(NativeOp(ISWAP_KIND, (5,), (0.5,)))  # the caller's list is not the program's
        assert program.ops == (NativeOp(ISWAP_KIND, (0,), (0.5,)),)
        assert type(lower_circuit([("H", (0,))]).ops) is tuple
        assert type(approximate_fixed_set(standard_gate("S"), 1e-9, 4).program.ops) is tuple

    def test_a_bool_qubit_count_is_refused(self):
        # max(True, 1) is True, which to_json wrote as true and from_json refused.
        with pytest.raises(ValueError, match="as an integer, got True"):
            lower_circuit([("H", (0,))], qubit_count=True)
        with pytest.raises(ValueError, match="as an integer, got np.True_"):
            NativeProgram(qubit_count=np.True_)

    @pytest.mark.parametrize("qubit_count", [1.5, 2.0, "2", None, Fraction(2)])
    def test_a_non_integer_qubit_count_is_refused(self, qubit_count):
        with pytest.raises(ValueError, match="as an integer"):
            NativeProgram(qubit_count=qubit_count)

    def test_an_explicit_qubit_count_is_checked_as_given(self):
        # An explicit count below 1 is an error, not lifted to 1; a derived
        # count is the largest target plus 1, and 1 for an empty circuit.
        with pytest.raises(ValueError, match="at least one logical qubit"):
            lower_circuit([], qubit_count=0)
        assert lower_circuit([]).qubit_count == 1
        assert lower_circuit([("CNOT", (3, 1))]).qubit_count == 4

    def test_an_int_phase_is_kept_as_a_complex(self):
        program = NativeProgram(1, [], 1)
        assert type(program.global_phase) is complex
        assert '"global_phase": [\n    1.0,\n    0.0\n  ]' in program.to_json()
        assert program.to_json() == NativeProgram(1).to_json()
        assert type(NativeProgram(1, [], np.complex64(1j)).global_phase) is complex

    @pytest.mark.parametrize("phase", ["x", "1+0j", None, [1.0, 0.0], b"1"])
    def test_a_non_number_phase_is_a_value_error(self, phase):
        # complex() would parse the string "1+0j"; a phase must be a number.
        with pytest.raises(ValueError, match="global_phase must have modulus 1"):
            NativeProgram(1, [], phase)

    def test_a_numpy_qubit_count_round_trips(self):
        program = NativeProgram(qubit_count=np.int64(3), ops=[NativeOp(CISWAP_KIND, (2, 0))])
        assert type(program.qubit_count) is int
        assert NativeProgram.from_json(program.to_json()) == program

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_every_built_program_round_trips(self, seed):
        # The lowering, the one-qubit lowering and the fixed-set search build
        # programs that from_json reads back as equal values.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        names = ["X", "H", "S", "T"] + ["CNOT"] * (k > 1)
        circuit = []
        for name in (names[i] for i in rng.integers(len(names), size=int(rng.integers(0, 12)))):
            size = 2 if name == "CNOT" else 1
            circuit.append((name, tuple(int(q) for q in rng.choice(k, size=size, replace=False))))
        programs = [lower_circuit(circuit), lower_circuit(circuit, qubit_count=np.int32(k + 1)),
                    lower_single_qubit(haar_unitary_2(rng)),
                    compiler._lower_fixed_set(circuit, 0.3, 6)[0],
                    approximate_fixed_set(standard_gate("T"), 1e-9, 3).program]
        for program in programs:
            if program is not None:
                assert NativeProgram.from_json(program.to_json()) == program

    @pytest.mark.parametrize("text", [
        "[]",
        '{"ops": []}',
        '{"qubit_count": 1, "ops": [{"kind": "ISWAP", "targets": [0], "angles": null}]}',
        '{"qubit_count": 1, "ops": [["ISWAP"]]}',
        '{"qubit_count": 1, "ops": [], "global_phase": [1.0]}',
        '{"qubit_count": Infinity, "ops": []}',
    ])
    def test_from_json_rejects_malformed_program(self, text):
        with pytest.raises(ValueError):
            NativeProgram.from_json(text)

    @pytest.mark.parametrize("phase, accepted", [
        ([0.6, 0.800000000001], True),  # modulus off by 8e-13
        ([0.6, 0.8000001], False),
        ([1e308, 1e308], False),
        ([0.0, 0.0], False),
    ])
    def test_from_json_takes_a_unit_global_phase(self, phase, accepted):
        text = json.dumps({"qubit_count": 1, "ops": [], "global_phase": phase})
        if accepted:
            assert NativeProgram.from_json(text).global_phase == complex(*phase)
        else:
            with pytest.raises(ValueError, match="modulus 1"):
                NativeProgram.from_json(text)

    @pytest.mark.parametrize("targets, message", [
        ((0.5,), "targets must be integers, got (0.5,)"),
        ((1.0,), "targets must be integers, got (1.0,)"),
        ((True,), "targets must be integers, got (True,)"),
        ((np.True_,), "targets must be integers, got (np.True_,)"),
        (("0",), "targets must be integers, got ('0',)"),
        ((None,), "targets must be integers, got (None,)"),
        ((-1,), "targets must be nonnegative"),
        ((0, 1), "ISWAP takes 1 target(s), got 2"),
    ])
    def test_native_op_targets_follow_the_gate_rule(self, targets, message):
        with pytest.raises(ValueError) as err:
            NativeOp(ISWAP_KIND, targets, (1.0,))
        assert str(err.value) == message

    def test_native_op_stores_python_int_targets(self):
        op = NativeOp(CISWAP_KIND, [np.int64(2), np.uint8(0)])
        assert op.targets == (2, 0) and all(type(t) is int for t in op.targets)
        assert op.format() == "CISWAP q2 q0"
        with pytest.raises(ValueError, match="distinct"):
            NativeOp(CISWAP_KIND, (np.int32(1), 1))

    def test_native_op_validation(self):
        with pytest.raises(ValueError, match="angle"):
            NativeOp(ISWAP_KIND, (0,), ())
        # A target that is not a sequence falls under the one target rule.
        with pytest.raises(ValueError, match=r"^targets must be integers, got 0$"):
            NativeOp(ISWAP_KIND, 0, (1.0,))
        with pytest.raises(ValueError, match="finite"):
            NativeOp(ISWAP_KIND, (0,), (np.nan,))
        with pytest.raises(ValueError, match="kind"):
            NativeOp("SWAP", (0,), ())

    @pytest.mark.parametrize("angles, message", [
        ((1 + 0.5j, 0.0), "angles must be real numbers, got ((1+0.5j), 0.0)"),
        ((np.complex128(1.0), 0.0), "angles must be real numbers"),
        ((0.3, np.inf), "angles must be finite, got (0.3, inf)"),
        ((-np.inf, 0.0), "angles must be finite, got (-inf, 0.0)"),
        (1.0, "angles must be a sequence of numbers, got 1.0"),
        (None, "angles must be a sequence of numbers, got None"),
    ])
    def test_native_op_rejects_a_complex_or_non_finite_angle(self, angles, message):
        with pytest.raises(ValueError) as err:
            NativeOp(PHASE_KIND, (0,), angles)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("angles", [[1.0], (np.float32(1.0),), (np.int64(1),)])
    def test_native_op_stores_python_float_angles(self, angles):
        op = NativeOp(ISWAP_KIND, (0,), angles)
        assert op.angles == (1.0,) and type(op.angles[0]) is float
        assert hash(op) == hash(NativeOp(ISWAP_KIND, (0,), (1.0,)))
        program = NativeProgram(1, [op])
        assert NativeProgram.from_json(program.to_json()) == program

    def test_a_float32_angle_leaves_the_kernel_cache_float64(self):
        # np.float32(1.0) == 1.0, so both ops hit one cached kernel: the
        # first op to run must not leave a single-precision block there.
        def run(angle):
            program = NativeProgram(1, [NativeOp(ISWAP_KIND, (0,), (angle,))])
            return simulator.run_program(program, "0")[0]

        compiler._kernel.cache_clear()
        fresh = run(1.0).amplitudes
        compiler._kernel.cache_clear()
        run(np.float32(1.0))
        assert run(1.0).amplitudes.tobytes() == fresh.tobytes()


class TestFixedSetSearch:
    def test_s_found_at_depth_one(self):
        result = approximate_fixed_set(standard_gate("S"), epsilon=1e-9, max_depth=8)
        assert result.found and result.depth == 1
        assert result.word == ("PHASE(pi/2)",)
        assert result.distance < 1e-9

    def test_t_found_at_depth_one(self):
        result = approximate_fixed_set(standard_gate("T"), epsilon=1e-9, max_depth=8)
        assert result.found and result.depth == 1
        assert result.word == ("PHASE(pi/4)",)

    def test_identity_is_the_empty_word(self):
        result = approximate_fixed_set(np.eye(2), epsilon=1e-9, max_depth=8)
        assert result.found and result.depth == 0 and result.word == ()

    def test_hadamard_candidate_word_verifies(self):
        # Manual check before trusting the search: Rz Rx^3 Rz ~ H up to phase.
        candidate = (
            rz(np.pi / 2).matrix
            @ np.linalg.matrix_power(rx(-np.pi / 2).matrix, 3)
            @ rz(np.pi / 2).matrix
        )
        assert phase_distance(standard_gate("H"), candidate) < 1e-12

    def test_hadamard_found_within_depth_eight(self):
        result = approximate_fixed_set(standard_gate("H"), epsilon=1e-9, max_depth=8)
        assert result.found and result.depth <= 8
        assert result.distance < 1e-9
        # re-multiply the program ourselves and confirm the promise
        replay = program_logical_matrix(result.program)
        assert np.max(np.abs(replay - standard_gate("H").matrix)) < 1e-8

    def test_not_found_is_a_result_not_an_exception(self):
        result = approximate_fixed_set(rx(0.3), epsilon=1e-9, max_depth=2)
        assert not result.found
        assert result.program is None
        assert result.distance > 1e-9
        assert result.depth == 2

    def test_deterministic(self):
        a = approximate_fixed_set(standard_gate("H"), epsilon=1e-9, max_depth=8)
        b = approximate_fixed_set(standard_gate("H"), epsilon=1e-9, max_depth=8)
        assert a.word == b.word

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            approximate_fixed_set(np.eye(2), epsilon=0.0, max_depth=4)
        with pytest.raises(ValueError, match="max_depth"):
            approximate_fixed_set(np.eye(2), epsilon=1e-9, max_depth=40)

    @pytest.mark.parametrize("epsilon, max_depth, error", [
        (1e-9, True, "max_depth"), (1e-9, np.True_, "max_depth"), (1e-9, 2.0, "max_depth"),
        (1e-9, "2", "max_depth"), (1e-9, None, "max_depth"), (1e-9, np.int64(21), "max_depth"),
        (True, 2, "epsilon"), (np.True_, 2, "epsilon"), ("0.1", 2, "epsilon"), (None, 2, "epsilon"),
        (0.1j, 2, "epsilon"), (10**400, 2, "epsilon"), (-0.1, 2, "epsilon"),
        (np.float64(1e-9), np.int64(2), None), (Fraction(1, 10**9), np.uint8(2), None),
        (np.float32(1e-9), 2, None), (1, np.int32(2), None),
    ])
    def test_option_types(self, epsilon, max_depth, error):
        # max_depth is an integer and epsilon a real number, neither a bool;
        # anything else is a ValueError.  Accepted values search as the
        # Python float and int they equal, and the depth comes back an int.
        if error is not None:
            with pytest.raises(ValueError, match=error):
                approximate_fixed_set(rx(0.3), epsilon, max_depth)
            return
        result = approximate_fixed_set(rx(0.3), epsilon, max_depth)
        assert type(result.depth) is int
        assert_same_result(result, approximate_fixed_set(rx(0.3), float(epsilon), int(max_depth)))

    @pytest.mark.parametrize("epsilon", [np.inf, -np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            approximate_fixed_set(standard_gate("H"), epsilon=epsilon, max_depth=4)

    @pytest.mark.parametrize("target, message", [
        (np.full((2, 2), np.nan), "non-finite"),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), "non-finite"),
        (np.zeros((2, 2)), "not unitary"),
        (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), "not unitary"),
        (np.eye(4), "2x2"),
    ])
    def test_bad_target_rejected(self, target, message):
        with pytest.raises(ValueError, match=message):
            approximate_fixed_set(target, epsilon=0.1, max_depth=4)


def assert_same_result(result: FixedSetResult, reference: FixedSetResult) -> None:
    assert result.found == reference.found
    assert result.word == reference.word
    assert result.depth == reference.depth
    assert result.distance == reference.distance  # bit for bit, not approximately
    if reference.program is None:
        assert result.program is None
    else:
        assert result.program.ops == reference.program.ops
        assert result.program.global_phase == reference.program.global_phase


def near_word_target(rng: np.random.Generator, depth: int, angle: float) -> np.ndarray:
    """A depth-12 table row with a ``depth``-letter word, turned by ``angle``
    about a random axis and given a random global phase: the near-word
    targets of the fixed_set_search benchmark."""
    table, parent, _ = _fixed_set_table(12)
    rows = [row for row in range(len(table)) if len(_table_word(parent, row)) == depth]
    axis = rng.normal(size=3)
    nx, ny, nz = axis / np.linalg.norm(axis)
    sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    turn = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sigma
    return turn @ table[rows[rng.integers(len(rows))]] * np.exp(2j * np.pi * rng.random())


@pytest.fixture(scope="module")
def reference_children():
    """Every (child, word) the node-at-a-time search generates to depth 12."""
    generated = []
    result = fixed_set_reference(
        haar_unitary_2(np.random.default_rng(5)), 1e-13, 12, generated=generated
    )
    assert not result.found
    return generated


class TestFixedSetTable:
    @pytest.mark.parametrize("depth", [1, 5, 8, 12])
    def test_table_is_the_generated_children(self, depth, reference_children):
        # The reference generates level by level, so depth d is a prefix;
        # the table starts with the identity, the empty word.
        expected = [(np.eye(2, dtype=complex), ())]
        expected += [(m, w) for m, w in reference_children if len(w) <= depth]
        table, parent, _ = _fixed_set_table(depth)
        assert np.array_equal(table, np.array([m for m, _ in expected]))
        assert [_table_word(parent, row) for row in range(len(table))] == [w for _, w in expected]

    def test_table_sizes_and_sharing(self):
        assert [len(_fixed_set_table(d)[0]) for d in (1, 8, 12)] == [4, 622, 2338]
        assert _fixed_set_table(8) is _fixed_set_table(8)
        table, parent, norms = _fixed_set_table(8)
        assert np.array_equal(table[0], np.eye(2)) and parent[0] == -1
        assert not table.flags.writeable and not parent.flags.writeable
        assert not norms.flags.writeable
        # Each row's |b[n]|^2, bit for bit as the einsum over the whole table.
        parts = table.reshape(len(table), -1).view(float)
        assert norms.tobytes() == np.einsum("ij,ij->i", parts, parts).tobytes()

    def test_stacked_distance_equals_single_matrix_calls(self):
        rng = np.random.default_rng(11)
        table = _fixed_set_table(12)[0]
        for index in range(40):
            target = haar_unitary_2(rng)
            distances, phases = _phase_distance(target[None], table)
            # Every row for the first target, a seeded sample for the rest.
            rows = range(len(table)) if index == 0 else rng.choice(len(table), 48, replace=False)
            for row in rows:
                d, phase = _phase_distance(target[None], table[row][None])
                assert np.array_equal(d, distances[row:row + 1])
                assert np.array_equal(phase, phases[row:row + 1])

    def test_stacked_distance_equals_reference(self):
        rng = np.random.default_rng(12)
        table = _fixed_set_table(8)[0]
        for _ in range(2):
            target = haar_unitary_2(rng)
            distances, phases = _phase_distance(target[None], table)
            expected = [phase_distance_reference(target, m) for m in table]
            assert np.allclose(distances, [d for d, _ in expected], rtol=0.0, atol=1e-14)
            assert np.allclose(phases, [phase for _, phase in expected], rtol=0.0, atol=1e-14)

    def test_zero_entries_and_no_crossings(self):
        # Diagonal and antidiagonal pairs, whose zero entries add nothing to
        # the overlap, and a pair whose overlap is 0, where lambda is 1.
        pairs = [(np.eye(2), rz(0.7).matrix), (rx(np.pi).matrix, np.eye(2)),
                 (standard_gate("X").matrix, rx(np.pi).matrix), (np.eye(2), rx(np.pi).matrix)]
        for a, b in pairs:
            a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
            d, phase = _phase_distance(a[None], b[None])
            want_d, want_phase = phase_distance_reference(a, b)
            assert abs(d[0] - want_d) < 1e-15 and abs(phase[0] - want_phase) < 1e-15


class TestFixedSetMatchesReference:
    @pytest.mark.parametrize("depth", [1, 5, 8, 12])
    def test_haar_targets(self, depth):
        rng = np.random.default_rng(100 + depth)
        found = set()
        for _ in range(2):
            target = haar_unitary_2(rng)
            for epsilon in (1e-9, 0.05, 0.1, 0.3):
                result = approximate_fixed_set(target, epsilon, depth)
                assert_same_result(result, fixed_set_reference(target, epsilon, depth))
                found.add(result.found)
        # No single letter is within 0.3 of a Haar target.
        assert found == ({False} if depth == 1 else {True, False})

    @pytest.mark.parametrize("name", ["I", "X", "H", "S", "T"])
    @pytest.mark.parametrize("epsilon", [1e-9, 1e-3, 0.2])
    def test_identity_and_standard_gates(self, name, epsilon):
        # Above F_hi = 1e-6, the identity (row 0) is a sure hit at any phase.
        target = np.eye(2) * np.exp(0.7j) if name == "I" else standard_gate(name)
        for depth in (1, 8):
            result = approximate_fixed_set(target, epsilon, depth)
            assert_same_result(result, fixed_set_reference(target, epsilon, depth))

    def test_epsilon_equal_to_a_row_distance(self):
        # <= is inclusive: epsilon at exactly a row's distance finds that row,
        # one ulp below it does not.
        target = haar_unitary_2(np.random.default_rng(21))
        table, parent, _ = _fixed_set_table(5)
        distances = _phase_distance(target[None], table)[0]
        row = int(np.argmin(distances))
        epsilon = float(distances[row])
        assert phase_distance(target, np.eye(2)) > epsilon
        result = approximate_fixed_set(target, epsilon, 5)
        assert result.found and result.distance == epsilon
        assert result.word == tuple(_FIXED_GENERATORS[i][0] for i in _table_word(parent, row))
        assert_same_result(result, fixed_set_reference(target, epsilon, 5))
        below = float(np.nextafter(epsilon, 0.0))
        assert_same_result(approximate_fixed_set(target, below, 5),
                           fixed_set_reference(target, below, 5))

    def test_near_word_targets(self):
        # fixed_set_search's class: within a turn by epsilon of a word of up
        # to 6 letters, so a word is found at depth <= 6.
        rng = np.random.default_rng(22)
        for letters in (1, 3, 5, 6, 6, 6):
            target = near_word_target(rng, letters, 0.1)
            result = approximate_fixed_set(target, 0.1, 12)
            assert result.found and result.depth <= letters
            assert_same_result(result, fixed_set_reference(target, 0.1, 12))

    @pytest.mark.parametrize("angle", [1e-3, 1e-6])
    def test_epsilon_at_a_row_upper_bound(self, angle):
        # epsilon exactly at the nearest row's F_hi = sqrt(F^2 + slack),
        # where that row becomes a sure hit, one ulp below it, and one ulp
        # below the row's exact distance, where it is no hit.  At 1e-6,
        # F^2 is below the slack, so only F_hi, not F, bounds the distance.
        target = near_word_target(np.random.default_rng(23), 4, angle)
        table, _, norms = _fixed_set_table(12)
        squares = compiler._frobenius_squares(target, table, norms)
        row = int(np.argmin(squares))
        f_hi = float(np.sqrt(squares[row] + compiler._F2_SLACK))
        distance = float(_phase_distance(target[None], table[row][None])[0][0])
        for epsilon in (f_hi, np.nextafter(f_hi, 0.0), np.nextafter(distance, 0.0)):
            epsilon = float(epsilon)
            assert_same_result(approximate_fixed_set(target, epsilon, 12),
                               fixed_set_reference(target, epsilon, 12))

    @pytest.mark.parametrize("epsilon", [0.5, 1e308])
    def test_loose_epsilon(self, epsilon):
        # The identity is within both, so it is the first hit at depth 12.
        result = approximate_fixed_set(rx(0.2), epsilon, 12)
        assert result.found and result.word == ()
        assert_same_result(result, fixed_set_reference(rx(0.2), epsilon, 12))

    @pytest.mark.parametrize("depth", [16, 20])
    def test_deep_tables(self, depth):
        # A Haar target that exhausts the depth, epsilon at exactly its
        # smallest row distance, a target near a row in the last quarter of
        # the table, and the identity, on the largest tables.
        rng = np.random.default_rng(60 + depth)
        table, parent, _ = _fixed_set_table(depth)
        target = haar_unitary_2(rng)
        missed = approximate_fixed_set(target, 1e-9, depth)
        assert not missed.found
        assert_same_result(missed, fixed_set_reference(target, 1e-9, depth))
        assert phase_distance(target, np.eye(2)) > missed.distance
        hit = approximate_fixed_set(target, missed.distance, depth)
        assert hit.found and hit.distance == missed.distance
        assert_same_result(hit, fixed_set_reference(target, missed.distance, depth))
        row = len(table) - 1 - int(rng.integers(len(table) // 4))
        near = rx(1e-3).matrix @ table[row] * np.exp(2j * np.pi * rng.random())
        result = approximate_fixed_set(near, 1e-3, depth)
        assert result.found and result.depth <= len(_table_word(parent, row))
        assert_same_result(result, fixed_set_reference(near, 1e-3, depth))
        for epsilon in (1e-9, 0.3):
            assert_same_result(approximate_fixed_set(np.eye(2), epsilon, depth),
                               fixed_set_reference(np.eye(2), epsilon, depth))


class TestFixedSetPruning:
    """The scan measures the distance only where the bracket ``F_lo <= d <=
    F_hi`` from the cheap formula cannot rule a row out."""

    def test_frobenius_bound_brackets_the_distance(self):
        # F_lo <= d <= F_hi with the scan's slack and no other tolerance:
        # rounding moves F^2 by a few ulps of 4, far inside the slack.
        rng = np.random.default_rng(31)
        table, _, norms = _fixed_set_table(12)
        for index in range(12):
            target = haar_unitary_2(rng)
            if index % 2:  # a row up to a global phase: F and d are ~0
                target = np.exp(2j * np.pi * rng.random()) * table[rng.integers(len(table))]
            if index == 4:  # the identity, row 0, up to a global phase
                target = np.exp(2j * np.pi * rng.random()) * table[0]
            squares = compiler._frobenius_squares(target, table, norms)
            f_lo = np.sqrt(np.maximum(squares - compiler._F2_SLACK, 0.0))
            f_hi = np.sqrt(squares + compiler._F2_SLACK)
            distances = _phase_distance(target[None], table)[0]
            assert np.all(f_lo <= distances)
            assert np.all(distances <= f_hi)
            if index % 2:
                assert np.abs(squares).min() < 1e-14
            if index == 4:
                assert abs(squares[0]) < 1e-14

    @pytest.mark.parametrize("depth", [12, 16])
    def test_not_found_distance_is_the_minimum_over_the_table(self, depth):
        rng = np.random.default_rng(40 + depth)
        table = _fixed_set_table(depth)[0]
        for _ in range(3):
            target = haar_unitary_2(rng)
            result = approximate_fixed_set(target, 1e-9, depth)
            assert not result.found
            identity = _phase_distance(target[None], np.eye(2, dtype=complex)[None])[0][0]
            assert result.distance == min(identity, _phase_distance(target[None], table)[0].min())

    def test_haar_search_measures_few_rows_exactly(self, monkeypatch):
        measured = []

        def counting_phase_distance(a, b):
            measured[-1] += len(b)
            return _phase_distance(a, b)

        monkeypatch.setattr(compiler, "_phase_distance", counting_phase_distance)
        rng = np.random.default_rng(50)
        rows = len(_fixed_set_table(12)[0])
        for _ in range(20):
            measured.append(0)
            approximate_fixed_set(haar_unitary_2(rng), 0.05, 12)
        assert max(measured) <= 0.05 * rows, measured

    def test_one_exact_measurement_per_search(self, monkeypatch):
        # At most one call measures the candidate rows, up to the first
        # sure hit (F_hi <= epsilon); a found word is measured once more, on
        # its own, to re-verify it.  A miss always makes the main call, and
        # a sure hit with no candidate before it makes none.
        calls = []

        def spy(a, b):
            calls.append(len(b))
            return _phase_distance(a, b)

        monkeypatch.setattr(compiler, "_phase_distance", spy)
        rng = np.random.default_rng(51)
        cases = [(haar_unitary_2(rng), 1e-9, 12), (haar_unitary_2(rng), 0.1, 12),
                 (standard_gate("H"), 1e-9, 8), (np.eye(2), 1e-9, 5),
                 (standard_gate("T"), 0.2, 1), (rx(0.2), 0.5, 12), (rx(0.2), 1e308, 12)]
        founds = set()
        for target, epsilon, depth in cases:
            calls.clear()
            result = approximate_fixed_set(target, epsilon, depth)
            main = calls[:len(calls) - result.found]
            assert len(main) == 1 or (result.found and not main), (epsilon, depth, calls)
            assert calls[len(main):] == [1] * result.found
            founds.add(result.found)
        assert founds == {True, False}
        # fixed_set_search's near-word targets: the word's row is the first
        # candidate and a sure hit, so the re-verification is the only call.
        for _ in range(24):
            calls.clear()
            assert approximate_fixed_set(near_word_target(rng, 6, 0.1), 0.1, 12).found
            assert calls == [1]

    @pytest.mark.parametrize("epsilon", [1e308, sys.float_info.max])
    def test_huge_epsilon_raises_no_warning(self, epsilon):
        # The cut is squared as a Python float, which overflows to inf
        # silently; the identity is then the first hit.
        rng = np.random.default_rng(53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (np.eye(2), standard_gate("H"), haar_unitary_2(rng)):
                result = approximate_fixed_set(target, epsilon, 12)
                assert result.found and result.word == ()


_TARGET_WORD = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["1_0", "+1", "\u0663", "\u00b2", "x", "1.5", "-0", "007", "--1"]),
)
_VALID_LINE = st.one_of(
    st.builds("{} {}".format, st.sampled_from("XHST"), st.integers(0, 9)),
    st.builds("CNOT {}\t{}".format, st.integers(0, 9), st.integers(0, 9)),
)
_ANY_LINE = st.builds(
    lambda lead, name, words, gap, trail, comment: lead + gap.join([name, *words]) + trail + comment,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["X", "H", "S", "T", "CNOT", "Y", "cnot", ""]),
    st.lists(_TARGET_WORD, max_size=3),
    st.sampled_from([" ", "\t", " \t "]),
    st.sampled_from(["", " ", "\t "]),
    st.sampled_from(["", "# note", "#H 0", " # CNOT 1 1"]),
)
# Mostly valid lines, so that a text often parses past its first lines.
_CIRCUIT_TEXT = st.lists(
    st.tuples(st.one_of(_VALID_LINE, _VALID_LINE, _ANY_LINE), st.sampled_from(["\n", "\r\n"])),
    max_size=10,
).map(lambda lines: "".join(line + end for line, end in lines))


class TestParseCircuit:
    def test_valid_file(self):
        text = "# bell pair\nH 0\n\nCNOT 0 1  # entangle\n"
        assert parse_circuit(text) == (("H", (0,)), ("CNOT", (0, 1)))

    def test_unknown_gate_names_line(self):
        with pytest.raises(CircuitParseError, match="line 1") as err:
            parse_circuit("Q 0\n")
        assert err.value.line_number == 1

    def test_bad_arity(self):
        with pytest.raises(CircuitParseError, match="line 2"):
            parse_circuit("H 0\nCNOT 0\n")

    def test_non_integer_target(self):
        with pytest.raises(CircuitParseError, match="integers"):
            parse_circuit("H zero\n")

    def test_negative_target(self):
        with pytest.raises(CircuitParseError, match="nonnegative"):
            parse_circuit("H -1\n")

    def test_duplicate_targets(self):
        with pytest.raises(CircuitParseError, match="distinct"):
            parse_circuit("CNOT 2 2\n")

    @pytest.mark.parametrize("text, line, message", [
        ("Q 0\n", 1, "unknown gate 'Q'"),
        ("H 0\n\n# note\nh 1\n", 4, "unknown gate 'h'"),
        ("H zero\n", 1, "targets must be integers, got ['zero']"),
        ("H 1_0\n", 1, "targets must be integers, got ['1_0']"),
        ("H \u0663\n", 1, "targets must be integers, got ['\u0663']"),
        ("H +1\n", 1, "targets must be integers, got ['+1']"),
        ("H 1.0\n", 1, "targets must be integers, got ['1.0']"),
        ("CNOT 0 --1\n", 1, "targets must be integers, got ['0', '--1']"),
        ("H 0\nCNOT 0\n", 2, "CNOT takes 2 target(s), got 1"),
        ("H 0 1\n", 1, "H takes 1 target(s), got 2"),
        ("T\n", 1, "T takes 1 target(s), got 0"),
        ("H -1\n", 1, "targets must be nonnegative"),
        ("CNOT 0 -2\n", 1, "targets must be nonnegative"),
        ("CNOT 2 2\n", 1, "targets must be distinct"),
        ("X 0\r\nCNOT 1 01 # c\r\n", 2, "targets must be distinct"),
        # Syntactically a target, but past int()'s digit limit.
        pytest.param("X 0\nH " + "9" * 5000 + "\n", 2, int_error("9" * 5000), id="oversized_target"),
    ])
    def test_every_rejection_names_its_line(self, text, line, message):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        assert (err.value.line_number, str(err.value)) == (line, f"line {line}: {message}")

    def test_targets_are_ascii_decimal_integers(self):
        assert parse_circuit("H 007\nCNOT -0 1\n") == (("H", (7,)), ("CNOT", (0, 1)))

    def test_returns_a_checked_circuit_the_lowering_takes_as_it_is(self, monkeypatch):
        circuit = parse_circuit("H 0\nCNOT 0 1\n")
        assert isinstance(circuit, tuple) and not hasattr(circuit, "__dict__")
        assert compiler._checked_steps(circuit) is circuit
        expected = lower_circuit([("H", [0]), ("CNOT", [0, 1])])
        monkeypatch.setattr(compiler, "_checked_gate", None)  # any call would raise
        assert lower_circuit(circuit) == expected

    def test_a_foreign_sequence_gets_the_full_check(self):
        steps = compiler._checked_steps([("H", [np.int64(0)]), ("CNOT", (0, 1))])
        assert steps == (("H", (0,)), ("CNOT", (0, 1)))
        assert type(steps[0][1][0]) is int
        # A plain tuple is not a checked circuit, whatever it holds.
        with pytest.raises(ValueError, match="distinct"):
            compiler._checked_steps((("CNOT", (1, 1)),))

    @given(text=_CIRCUIT_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_parser(self, text):
        circuit, error = parse_circuit_reference(text)
        if error is None:
            assert parse_circuit(text) == tuple(circuit)
        else:
            with pytest.raises(CircuitParseError) as err:
                parse_circuit(text)
            assert (err.value.line_number, str(err.value)) == (error[0], f"line {error[0]}: {error[1]}")


@pytest.mark.parametrize("circuit, message", [
    ([("Y", (0,))], "unknown gate 'Y'"),
    ([(["H"], (0,))], "unknown gate ['H']"),
    ([("H", (0, 1))], "H takes 1 target(s), got 2"),
    ([("T", ())], "T takes 1 target(s), got 0"),
    ([("CNOT", (0,))], "CNOT takes 2 target(s), got 1"),
    ([("CNOT", (0, 1, 2))], "CNOT takes 2 target(s), got 3"),
    ([("H", (0,)), ("CNOT", (1, 1))], "targets must be distinct"),
    ([("H", ("x",))], "targets must be integers, got ('x',)"),
    ([("H", (-1,))], "targets must be nonnegative"),
    ([("CNOT", (0, -2))], "targets must be nonnegative"),
    ([("H", 0)], "targets must be integers, got 0"),
])
def test_every_lower_circuit_rejection(circuit, message):
    with pytest.raises(ValueError) as err:
        lower_circuit(circuit)
    assert str(err.value) == message


@pytest.mark.parametrize("gate, error", [
    (("H", (1.9,)), "targets must be integers, got (1.9,)"),
    (("H", (1.0,)), "targets must be integers, got (1.0,)"),
    (("H", (np.float64(1.0),)), "targets must be integers, got (np.float64(1.0),)"),
    (("CNOT", (True, 0)), "targets must be integers, got (True, 0)"),
    (("CNOT", (1, False)), "targets must be integers, got (1, False)"),
    (("H", (np.True_,)), "targets must be integers, got (np.True_,)"),
    (("H", ("1",)), "targets must be integers, got ('1',)"),
    (("H", (None,)), "targets must be integers, got (None,)"),
    (("H", (1 + 0j,)), "targets must be integers, got ((1+0j),)"),
    (("H", (1,)), None),
    (("H", [np.int64(1)]), None),
    (("CNOT", (np.uint8(1), np.int32(0))), None),
])
def test_lower_circuit_targets_are_integers(gate, error):
    # A target is an int or a numpy integer; anything else is rejected,
    # never truncated or read as a bool's value.
    if error is not None:
        with pytest.raises(ValueError) as err:
            lower_circuit([gate])
        assert str(err.value) == error
        return
    name, targets = gate
    program = lower_circuit([gate])
    assert program == lower_circuit([(name, tuple(map(int, targets)))])
    assert all(type(t) is int for op in program.ops for t in op.targets)
