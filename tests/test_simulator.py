import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc.compiler import (
    CISWAP_KIND,
    ISWAP_KIND,
    PHASE_KIND,
    NativeOp,
    NativeProgram,
    lower_circuit,
)
from ensembleqc.simulator import (
    LeakedStateError,
    PhysicalState,
    apply_op,
    decode,
    encode_basis,
    encode_state,
    leakage,
    measure_logical,
    run_program,
    state_from_json,
    state_to_json,
    _apply_unitary,
)
from helpers import logical_circuit_matrix, random_state


def random_native_program(rng: np.random.Generator, qubit_count: int, op_count: int) -> NativeProgram:
    ops = []
    for _ in range(op_count):
        kind = rng.choice([ISWAP_KIND, PHASE_KIND, CISWAP_KIND] if qubit_count > 1 else [ISWAP_KIND, PHASE_KIND])
        if kind == CISWAP_KIND:
            control, target = rng.choice(qubit_count, size=2, replace=False)
            ops.append(NativeOp(CISWAP_KIND, (int(control), int(target))))
        elif kind == ISWAP_KIND:
            ops.append(NativeOp(ISWAP_KIND, (int(rng.integers(qubit_count)),), (float(rng.uniform(-np.pi, np.pi)),)))
        else:
            ops.append(
                NativeOp(
                    PHASE_KIND,
                    (int(rng.integers(qubit_count)),),
                    (float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(-np.pi, np.pi))),
                )
            )
    return NativeProgram(qubit_count=qubit_count, ops=ops)


class TestEncoding:
    def test_single_zero(self):
        state = encode_basis("0")
        # |q0=0, q1=1> sits at little-endian index 2
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_two_qubit_product(self):
        state = encode_basis("10")
        # pair0 |10> -> bit0 set; pair1 |01> -> bit3 set; index 1 + 8 = 9
        assert state.amplitudes[9] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0

    def test_norm_is_one(self):
        for bits in ("0", "1", "01", "110"):
            assert abs(encode_basis(bits).norm() - 1.0) < 1e-15

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            encode_basis("")
        with pytest.raises(ValueError):
            encode_basis("02")

    def test_encode_state_superposition(self):
        logical = np.array([1.0, 1j]) / np.sqrt(2)
        state = encode_state(logical)
        assert abs(state.amplitudes[2] - 1 / np.sqrt(2)) < 1e-15
        assert abs(state.amplitudes[1] - 1j / np.sqrt(2)) < 1e-15

    def test_decode_round_trip(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            logical = random_state(rng, 2**k)
            assert np.max(np.abs(decode(encode_state(logical)) - logical)) < 1e-12


class TestApplyUnitary:
    def test_matches_explicit_matrix_oracle(self):
        # Oracle: build the embedded matrix entry by entry from index bits.
        rng = np.random.default_rng(32)
        n = 4
        u4 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        for qubits in ((0, 1), (2, 3), (3, 1), (0, 3)):
            big = np.zeros((2**n, 2**n), dtype=complex)
            for i in range(2**n):
                for j in range(2**n):
                    li = 2 * ((i >> qubits[0]) & 1) + ((i >> qubits[1]) & 1)
                    lj = 2 * ((j >> qubits[0]) & 1) + ((j >> qubits[1]) & 1)
                    rest_i = i & ~((1 << qubits[0]) | (1 << qubits[1]))
                    rest_j = j & ~((1 << qubits[0]) | (1 << qubits[1]))
                    if rest_i == rest_j:
                        big[i, j] = u4[li, lj]
            vec = random_state(rng, 2**n)
            got = _apply_unitary(vec, u4, qubits, n)
            assert np.max(np.abs(got - big @ vec)) < 1e-12


class TestApplyOp:
    def test_full_swap_maps_zero_to_one_with_phase(self):
        state = encode_basis("0")
        out = apply_op(state, NativeOp(ISWAP_KIND, (0,), (np.pi,)))
        # |0_L> -> i |1_L>: amplitude i at index 1
        assert abs(out.amplitudes[1] - 1j) < 1e-15
        assert abs(out.amplitudes[2]) < 1e-15

    def test_phase_gate_with_equal_angles_fixes_code_zero(self):
        state = encode_basis("0")
        out = apply_op(state, NativeOp(PHASE_KIND, (0,), (0.77, 0.77)))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-15

    def test_ciswap_truth_table_is_logical_cnot(self):
        for control_bit in "01":
            for target_bit in "01":
                state = encode_basis(control_bit + target_bit)
                out = apply_op(state, NativeOp(CISWAP_KIND, (0, 1)))
                flipped = str(int(target_bit) ^ int(control_bit))
                expected = encode_basis(control_bit + flipped)
                assert np.max(np.abs(out.amplitudes - expected.amplitudes)) == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(33)
        state = encode_state(random_state(rng, 4))
        for op in (
            NativeOp(ISWAP_KIND, (1,), (0.3,)),
            NativeOp(PHASE_KIND, (0,), (0.1, -0.6)),
            NativeOp(CISWAP_KIND, (1, 0)),
        ):
            state = apply_op(state, op)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="outside"):
            apply_op(encode_basis("0"), NativeOp(ISWAP_KIND, (1,), (0.1,)))


class TestLeakage:
    def test_encoded_states_have_none(self):
        for bits in ("0", "11", "010"):
            assert leakage(encode_basis(bits)) == 0.0

    def test_fully_leaked_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0  # |00>
        assert leakage(PhysicalState(amplitudes=amps, qubit_count=1)) == 1.0

    def test_random_programs_never_leak(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            program = random_native_program(rng, 2, 12)
            state = encode_basis("00")
            for op in program.ops:
                state = apply_op(state, op)
                assert leakage(state) < 1e-10


class TestMeasurement:
    def test_definite_outcome(self):
        outcome, collapsed = measure_logical(encode_basis("1"), 0, rng=0)
        assert outcome == 1
        assert np.array_equal(collapsed.amplitudes, encode_basis("1").amplitudes)

    def test_superposition_statistics(self):
        plus = encode_state(np.array([1.0, 1.0]) / np.sqrt(2))
        rng = np.random.default_rng(35)
        n = 100_000
        ones = sum(measure_logical(plus, 0, rng=rng)[0] for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 3 * sigma

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(36)
        state = encode_state(random_state(rng, 4))
        outcome, collapsed = measure_logical(state, 1, rng=1)
        assert abs(collapsed.norm() - 1.0) < 1e-12
        again, _ = measure_logical(collapsed, 1, rng=2)
        assert again == outcome

    def test_leaked_state_rejected(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(LeakedStateError):
            measure_logical(PhysicalState(amplitudes=amps, qubit_count=1), 0, rng=0)

    def test_deterministic_given_seed(self):
        plus = encode_state(np.array([1.0, 1.0]) / np.sqrt(2))
        a = [measure_logical(plus, 0, rng=k)[0] for k in range(32)]
        b = [measure_logical(plus, 0, rng=k)[0] for k in range(32)]
        assert a == b


class TestRunProgram:
    def test_empty_program(self):
        final, stats = run_program(NativeProgram(qubit_count=1), "0")
        assert np.array_equal(final.amplitudes, encode_basis("0").amplitudes)
        assert stats.max_leakage == 0.0 and stats.op_count == 0

    def test_bell_state(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        final, stats = run_program(program, "00")
        target = logical_circuit_matrix([("H", (0,)), ("CNOT", (0, 1))], 2)[:, 0]
        got = decode(final)
        fidelity = abs(np.vdot(target, got)) ** 2
        assert fidelity > 1.0 - 1e-9
        assert np.max(np.abs(got - target)) < 1e-9  # tracked phase makes it exact
        assert stats.max_leakage < 1e-10

    def test_x_gate_flips_encoded_zero(self):
        program = lower_circuit([("X", (0,))])
        final, _ = run_program(program, "0")
        assert np.max(np.abs(decode(final) - np.array([0.0, 1.0]))) < 1e-9

    def test_stats_record_leakage_after_each_op(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1)), ("T", (1,))])
        _, stats = run_program(program, "00")
        assert len(stats.op_leakages) == len(program.ops)
        state = encode_basis("00")
        for op, recorded in zip(program.ops, stats.op_leakages):
            state = apply_op(state, op)
            assert recorded == leakage(state)
        assert stats.max_leakage == max([leakage(encode_basis("00")), *stats.op_leakages])

    def test_stats_record_phase(self):
        program = lower_circuit([("T", (0,))])
        _, stats = run_program(program, "0")
        assert abs(stats.global_phase - np.exp(1j * np.pi / 8)) < 1e-12

    def test_wrong_initial_length(self):
        with pytest.raises(ValueError, match="length"):
            run_program(NativeProgram(qubit_count=2), "0")

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        program = random_native_program(rng, 3, 20)
        a, _ = run_program(program, "010")
        b, _ = run_program(program, "010")
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_match_logical_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        names = ["X", "H", "S", "T", "CNOT"]
        circuit = []
        for _ in range(int(rng.integers(1, 7))):
            name = names[rng.integers(len(names))]
            if name == "CNOT" and k > 1:
                c, t = rng.choice(k, size=2, replace=False)
                circuit.append((name, (int(c), int(t))))
            elif name != "CNOT":
                circuit.append((name, (int(rng.integers(k)),)))
        if not circuit:
            circuit = [("H", (0,))]
        program = lower_circuit(circuit, qubit_count=k)
        bits = "".join(rng.choice(["0", "1"]) for _ in range(k))
        final, stats = run_program(program, bits)
        assert stats.max_leakage < 1e-10
        index = sum(1 << j for j, b in enumerate(bits) if b == "1")
        expected = logical_circuit_matrix(circuit, k)[:, index]
        assert np.max(np.abs(decode(final) - expected)) < 1e-9


class TestStateSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(38)
        state = encode_state(random_state(rng, 4))
        recovered = state_from_json(state_to_json(state), qubit_count=2)
        assert np.max(np.abs(recovered.amplitudes - state.amplitudes)) == 0.0

    def test_physical_state_validation(self):
        with pytest.raises(ValueError, match="norm"):
            PhysicalState(amplitudes=np.ones(4, dtype=complex), qubit_count=1)
        with pytest.raises(ValueError, match="amplitudes"):
            PhysicalState(amplitudes=np.array([1.0, 0.0]), qubit_count=1)
