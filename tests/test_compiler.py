import json

import numpy as np
import pytest

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
    lower_circuit,
    lower_single_qubit,
    parse_circuit,
)
from ensembleqc.gates import (
    _phase_align,
    phase_distance,
    restrict_to_logical,
    rx,
    rz,
    standard_gate,
)
from ensembleqc.gates import iswap as iswap_gate
from ensembleqc.gates import phase_gate
from helpers import fixed_set_reference, haar_unitary_2, phase_align_reference


def program_logical_matrix(program: NativeProgram) -> np.ndarray:
    """Replay a single-qubit program as its code-space matrix product."""
    total = np.eye(2, dtype=complex) * program.global_phase
    for op in program.ops:
        if op.kind == ISWAP_KIND:
            block = restrict_to_logical(iswap_gate(op.angles[0])).matrix
        elif op.kind == PHASE_KIND:
            block = restrict_to_logical(phase_gate(*op.angles)).matrix
        else:
            raise AssertionError("single-qubit program expected")
        total = block @ total
    return total


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
        assert program.ops == []
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
        program = lower_circuit([("T", (0,)), ("S", (0,))])
        assert abs(program.ops[0].angles[0] - np.pi / 4) < 1e-12
        assert abs(program.ops[1].angles[0] - np.pi / 2) < 1e-12

    def test_unsupported_gate(self):
        with pytest.raises(ValueError, match="unsupported gate"):
            lower_circuit([("Y", (0,))])

    def test_bad_cnot_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            lower_circuit([("CNOT", (1, 1))])

    def test_equals_per_gate_lowering(self):
        # One cached lowering per gate name, moved to each target, gives the
        # ops of lowering every gate on its own and the same phase, bit for bit.
        rng = np.random.default_rng(45)
        names = ["X", "H", "S", "T", "CNOT"]
        for _ in range(20):
            circuit = []
            for name in (names[i] for i in rng.integers(len(names), size=40)):
                targets = rng.choice(4, size=2 if name == "CNOT" else 1, replace=False)
                circuit.append((name, tuple(int(t) for t in targets)))
            ops, phase = [], 1.0 + 0.0j
            for name, targets in circuit:
                if name == "CNOT":
                    ops.append(NativeOp(CISWAP_KIND, targets))
                else:
                    sub = lower_single_qubit(standard_gate(name))
                    ops.extend(NativeOp(op.kind, targets, op.angles) for op in sub.ops)
                    phase *= sub.global_phase
            program = lower_circuit(circuit, qubit_count=4)
            assert program.ops == ops
            assert np.array([program.global_phase]).tobytes() == np.array([phase]).tobytes()

    def test_single_qubit_lowering_argument(self):
        # lower_1q runs once per gate name and returns a pair-0 program; its
        # ops land on each gate's target and its phase counts once per gate.
        seen = []

        def lower_1q(name):
            seen.append(name)
            op = NativeOp(PHASE_KIND, (0,), (0.5, 0.0))
            return NativeProgram(qubit_count=1, ops=[op], global_phase=1j)

        circuit = [("H", (1,)), ("CNOT", (1, 0)), ("T", (0,)), ("H", (2,)), ("T", (0,))]
        program = lower_circuit(circuit, lower_1q=lower_1q)
        assert seen == ["H", "T"]
        assert [op.targets for op in program.ops] == [(1,), (1, 0), (0,), (2,), (0,)]
        assert [op.kind for op in program.ops] == [PHASE_KIND, CISWAP_KIND] + [PHASE_KIND] * 3
        assert program.global_phase == 1.0
        assert program.qubit_count == 3


class TestNativeProgram:
    def test_json_round_trip(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1)), ("T", (1,))])
        recovered = NativeProgram.from_json(program.to_json())
        assert recovered.qubit_count == program.qubit_count
        assert recovered.ops == program.ops
        assert abs(recovered.global_phase - program.global_phase) < 1e-15

    def test_disassembly_one_op_per_line(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        lines = program.disassemble().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[1].startswith("PHASE q0 ")
        assert lines[-1] == "CISWAP q0 q1"

    def test_validate_rejects_out_of_range_targets(self):
        program = NativeProgram(qubit_count=1, ops=[NativeOp(CISWAP_KIND, (0, 1))])
        with pytest.raises(ValueError, match="outside"):
            program.validate()

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

    def test_native_op_validation(self):
        with pytest.raises(ValueError, match="angle"):
            NativeOp(ISWAP_KIND, (0,), ())
        with pytest.raises(ValueError, match="finite"):
            NativeOp(ISWAP_KIND, (0,), (np.nan,))
        with pytest.raises(ValueError, match="kind"):
            NativeOp("SWAP", (0,), ())


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
        # The reference generates level by level, so depth d is a prefix.
        expected = [(m, w) for m, w in reference_children if len(w) <= depth]
        table, parent = _fixed_set_table(depth)
        assert np.array_equal(table, np.array([m for m, _ in expected]))
        assert [_table_word(parent, row) for row in range(len(table))] == [w for _, w in expected]

    def test_table_sizes_and_sharing(self):
        assert [len(_fixed_set_table(d)[0]) for d in (1, 8, 12)] == [3, 621, 2337]
        assert _fixed_set_table(8) is _fixed_set_table(8)
        table, parent = _fixed_set_table(8)
        assert not table.flags.writeable and not parent.flags.writeable

    def test_stacked_distance_equals_single_matrix_calls(self):
        rng = np.random.default_rng(11)
        table, _ = _fixed_set_table(12)
        for index in range(40):
            target = haar_unitary_2(rng)
            distances, phis = _phase_align(target, table)
            # Every row for the first target, a seeded sample for the rest
            # (one call per row costs ~0.1 ms).
            rows = range(len(table)) if index == 0 else rng.choice(len(table), 48, replace=False)
            for row in rows:
                d, phi = _phase_align(target, table[row][None])
                assert np.array_equal(d, distances[row:row + 1])
                assert np.array_equal(phi, phis[row:row + 1])

    def test_stacked_distance_equals_reference(self):
        rng = np.random.default_rng(12)
        table, _ = _fixed_set_table(8)
        for _ in range(2):
            target = haar_unitary_2(rng)
            distances, phis = _phase_align(target, table)
            expected = np.array([phase_align_reference(target, m) for m in table])
            assert np.array_equal(distances, expected[:, 0])
            assert np.array_equal(phis, expected[:, 1])

    def test_zero_entries_and_no_crossings(self):
        # Diagonal and antidiagonal pairs leave branch and crossing slots empty.
        pairs = [(np.eye(2), rz(0.7).matrix), (rx(np.pi).matrix, np.eye(2)),
                 (standard_gate("X").matrix, rx(np.pi).matrix)]
        for a, b in pairs:
            a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
            d, phi = _phase_align(a, b[None])
            assert (d[0], phi[0]) == phase_align_reference(a, b)


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
    @pytest.mark.parametrize("epsilon", [1e-9, 0.2])
    def test_identity_and_standard_gates(self, name, epsilon):
        target = np.eye(2) if name == "I" else standard_gate(name)
        for depth in (1, 8):
            result = approximate_fixed_set(target, epsilon, depth)
            assert_same_result(result, fixed_set_reference(target, epsilon, depth))

    def test_epsilon_equal_to_a_row_distance(self):
        # <= is inclusive: epsilon at exactly a row's distance finds that row,
        # one ulp below it does not.
        target = haar_unitary_2(np.random.default_rng(21))
        table, parent = _fixed_set_table(5)
        distances = _phase_align(target, table)[0]
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


class TestParseCircuit:
    def test_valid_file(self):
        text = "# bell pair\nH 0\n\nCNOT 0 1  # entangle\n"
        assert parse_circuit(text) == [("H", (0,)), ("CNOT", (0, 1))]

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
