import collections
import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensembleqc import cli, compiler, gates
from ensembleqc.compiler import (
    CISWAP_KIND,
    ISWAP_KIND,
    PHASE_KIND,
    NativeOp,
    NativeProgram,
    lower_circuit,
)
from ensembleqc.simulator import (
    LogicalState,
    _apply_run,
    decode,
    encode_basis,
    measure_logical,
    run_program,
)
from helpers import (
    CONTROLLED_SWAP,
    apply_unitary,
    circuit_columns_reference,
    circuit_steps,
    code_indices,
    code_space_coupling,
    fused_reference,
    logical_circuit_matrix,
    native_steps,
    pair_matrix,
    physical_leakage,
    random_state,
    run_ops_reference,
    run_physical,
)


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
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
    return NativeProgram(qubit_count=qubit_count, ops=ops, global_phase=complex(phase))


def apply_program(program: NativeProgram, amps: np.ndarray) -> np.ndarray:
    """``program`` on amplitudes (axis 0 the 2^k index, a second axis of
    columns allowed) through the simulator's one apply loop, the global
    phase multiplied in last as ``run_program`` does; on the identity this
    is the program's matrix."""
    steps = ((compiler._op_kernel(op), op.targets) for op in program.ops)
    return _apply_run(amps, steps) * program.global_phase


def program_columns(program: NativeProgram) -> np.ndarray:
    return apply_program(program, np.eye(2**program.qubit_count, dtype=complex))


def circuit_columns(circuit, qubit_count: int) -> np.ndarray:
    """A circuit's matrix through the simulator's one apply loop, from the
    standard gate matrices of :func:`helpers.circuit_steps`."""
    return _apply_run(np.eye(2**qubit_count, dtype=complex), circuit_steps(circuit))


def random_circuit(rng: np.random.Generator, k: int, gate_count: int) -> list:
    names = ["X", "H", "S", "T", "CNOT"]
    circuit = []
    for _ in range(gate_count):
        name = names[rng.integers(len(names))]
        if name == "CNOT" and k > 1:
            c, t = rng.choice(k, size=2, replace=False)
            circuit.append((name, (int(c), int(t))))
        elif name != "CNOT":
            circuit.append((name, (int(rng.integers(k)),)))
    return circuit or [("H", (0,))]


class TestEncoding:
    def test_single_zero(self):
        assert np.array_equal(encode_basis("0").amplitudes, [1.0, 0.0])

    def test_two_qubit_product(self):
        state = encode_basis("10")
        # character j is qubit j, qubit j is bit j: "10" is index 1
        assert state.amplitudes[1] == 1.0
        assert np.sum(np.abs(state.amplitudes)) == 1.0
        assert state.qubit_count == 2

    def test_norm_is_one(self):
        for bits in ("0", "1", "01", "110"):
            assert abs(encode_basis(bits).norm() - 1.0) < 1e-15

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            encode_basis("")
        with pytest.raises(ValueError):
            encode_basis("02")

    def test_constructor_holds_superposition(self):
        logical = np.array([1.0, 1j]) / np.sqrt(2)
        state = LogicalState(logical)
        assert state.qubit_count == 1
        assert np.array_equal(state.amplitudes, logical)
        assert not state.amplitudes.flags.writeable
        logical[0] = 0.0  # the state keeps its own copy
        assert state.amplitudes[0] != 0.0

    def test_decode_round_trip(self):
        rng = np.random.default_rng(31)
        for k in (1, 2, 3):
            logical = random_state(rng, 2**k)
            assert np.array_equal(decode(LogicalState(logical)), logical)


class TestApplyUnitary:
    def test_matches_explicit_matrix_oracle(self):
        # The physical-register oracle against the embedded matrix built
        # entry by entry from index bits.
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
            got = apply_unitary(vec, u4, qubits, n)
            assert np.max(np.abs(got - big @ vec)) < 1e-12


def one_op(op: NativeOp, qubit_count: int) -> NativeProgram:
    return NativeProgram(qubit_count=qubit_count, ops=[op])


class TestApplyOp:
    """Each op kind on its own, as a one-op program."""

    def test_full_swap_maps_zero_to_one_with_phase(self):
        out, _ = run_program(one_op(NativeOp(ISWAP_KIND, (0,), (np.pi,)), 1), "0")
        # |0_L> -> i |1_L>
        assert abs(out.amplitudes[1] - 1j) < 1e-15
        assert abs(out.amplitudes[0]) < 1e-15

    def test_phase_gate_with_equal_angles_fixes_code_zero(self):
        out, _ = run_program(one_op(NativeOp(PHASE_KIND, (0,), (0.77, 0.77)), 1), "0")
        assert np.max(np.abs(out.amplitudes - encode_basis("0").amplitudes)) < 1e-15

    def test_ciswap_truth_table_is_logical_cnot(self):
        for control_bit in "01":
            for target_bit in "01":
                out, _ = run_program(one_op(NativeOp(CISWAP_KIND, (0, 1)), 2),
                                     control_bit + target_bit)
                flipped = str(int(target_bit) ^ int(control_bit))
                expected = encode_basis(control_bit + flipped)
                assert np.max(np.abs(out.amplitudes - expected.amplitudes)) == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(33)
        state = LogicalState(random_state(rng, 4))
        for op in (
            NativeOp(ISWAP_KIND, (1,), (0.3,)),
            NativeOp(PHASE_KIND, (0,), (0.1, -0.6)),
            NativeOp(CISWAP_KIND, (1, 0)),
        ):
            state = LogicalState(apply_program(one_op(op, 2), state.amplitudes))
            assert abs(state.norm() - 1.0) < 1e-12

    def test_rejects_out_of_range_target(self):
        # NativeProgram.validate, which run_program calls.
        for op, k in ((NativeOp(ISWAP_KIND, (1,), (0.1,)), 1), (NativeOp(CISWAP_KIND, (0, 2)), 2)):
            with pytest.raises(ValueError, match="outside"):
                run_program(one_op(op, k), "0" * k)

    def test_kernels_match_logical_oracle(self):
        # Each op kind against the code-space block of its pair matrix, or the
        # CNOT, embedded by index bits (helpers.logical_circuit_matrix).
        rng = np.random.default_rng(39)
        state = random_state(rng, 8)
        for op, block in (
            (NativeOp(ISWAP_KIND, (1,), (0.4,)), gates.rx(-0.4).matrix),
            (NativeOp(PHASE_KIND, (2,), (0.9, 0.0)), gates.rz(0.9).matrix),
            (NativeOp(PHASE_KIND, (0,), (0.9, 0.5)), np.exp(0.25j) * gates.rz(0.9).matrix),
        ):
            expected = logical_circuit_matrix([(block, op.targets)], 3) @ state
            assert np.max(np.abs(apply_program(one_op(op, 3), state) - expected)) < 1e-12
        cnot = logical_circuit_matrix([("CNOT", (2, 0))], 3) @ state
        assert np.array_equal(apply_program(one_op(NativeOp(CISWAP_KIND, (2, 0)), 3), state), cnot)


class TestLeakage:
    def test_encoded_states_have_none(self):
        # The oracle's encoded physical register holds the code words only,
        # and on them it is the simulator's encoded state.
        for bits in ("0", "11", "010"):
            k = len(bits)
            identity = one_op(NativeOp(PHASE_KIND, (0,), (0.0, 0.0)), k)
            register = run_physical(identity, bits)[-1]
            assert physical_leakage(register, k) == 0.0
            assert np.array_equal(register[code_indices(k)], encode_basis(bits).amplitudes)

    def test_every_op_kind_keeps_its_pair_in_the_code_space(self):
        # The physical matrix behind each op of a lowered circuit couples
        # nothing out of the code space, so the simulator measures no leakage.
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1)), ("T", (1,))])
        assert {op.kind for op in program.ops} == {CISWAP_KIND, ISWAP_KIND, PHASE_KIND}
        for op in program.ops:
            matrix = CONTROLLED_SWAP if op.kind == CISWAP_KIND else pair_matrix(op)
            assert code_space_coupling(matrix) == 0.0

    def test_random_programs_never_leak(self):
        # The physical register, op by op: no probability leaves the code space.
        rng = np.random.default_rng(34)
        for _ in range(20):
            program = random_native_program(rng, 2, 12)
            for amps in run_physical(program, "00"):
                assert physical_leakage(amps, 2) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_logical_run_is_code_space_restriction_of_physical_run(self, seed):
        # The evidence that keeping 2^k amplitudes loses nothing: on random
        # native programs the logical run equals the physical run restricted
        # to the code words, tracked phase included, and the physical run
        # never leaks.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        program = random_native_program(rng, k, int(rng.integers(1, 16)))
        bits = "".join(rng.choice(["0", "1"], size=k))
        history = run_physical(program, bits)
        assert max(physical_leakage(amps, k) for amps in history) < 1e-12
        final, _ = run_program(program, bits)
        expected = history[-1][code_indices(k)] * program.global_phase
        assert np.max(np.abs(final.amplitudes - expected)) < 1e-12


# Program layouts for the fusion oracle test: ("run", qubit, n) is n >= 6
# single-qubit ops on one qubit, ("cnot", qubit, shift) a CNOT from the qubit
# to another; qubits are taken modulo k.
FUSION_SEGMENTS = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 3), st.integers(6, 9)),
    st.tuples(st.just("cnot"), st.integers(0, 3), st.integers(1, 3)),
)


def layout_program(rng: np.random.Generator, k: int, layout) -> NativeProgram:
    ops = []
    for kind, qubit, n in layout:
        qubit %= k
        if kind == "run":
            for _ in range(n):
                if rng.random() < 0.5:
                    ops.append(NativeOp(ISWAP_KIND, (qubit,), (float(rng.uniform(-np.pi, np.pi)),)))
                else:
                    angles = tuple(float(a) for a in rng.uniform(-np.pi, np.pi, size=2))
                    ops.append(NativeOp(PHASE_KIND, (qubit,), angles))
        elif k > 1:
            ops.append(NativeOp(CISWAP_KIND, (qubit, (qubit + 1 + n % (k - 1)) % k)))
    phase = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
    return NativeProgram(qubit_count=k, ops=ops, global_phase=phase)


class TestFusion:
    @given(k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           layout=st.lists(FUSION_SEGMENTS, max_size=6))
    @example(k=1, seed=0, layout=[])  # no ops
    @example(k=2, seed=1, layout=[("run", 0, 6), ("cnot", 0, 1)])  # only the control pending
    @example(k=3, seed=2, layout=[("run", 2, 7), ("cnot", 0, 1)])  # only the target pending
    @example(k=3, seed=3, layout=[("run", 1, 6), ("cnot", 1, 1), ("run", 1, 8), ("run", 0, 6)])
    @settings(max_examples=40, deadline=None)
    def test_fused_runs_match_physical_register(self, k, seed, layout):
        # Long single-qubit runs, CNOTs next to them and empty programs
        # against the 4^k register, one physical matrix per op, at the
        # tolerance of the random-program oracle test.
        rng = np.random.default_rng(seed)
        program = layout_program(rng, k, layout)
        bits = "".join(rng.choice(["0", "1"], size=k))
        history = run_physical(program, bits)
        if history:
            expected = history[-1][code_indices(k)]
        else:
            expected = encode_basis(bits).amplitudes
        final, _ = run_program(program, bits)
        assert np.max(np.abs(final.amplitudes - expected * program.global_phase)) < 1e-12
        assert np.max(np.abs(program_columns(program)[:, int(bits[::-1], 2)]
                             - final.amplitudes)) < 1e-12


class TestMeasurement:
    def test_definite_outcome(self):
        outcome, collapsed = measure_logical(encode_basis("1"), 0, rng=0)
        assert outcome == 1
        assert np.array_equal(collapsed.amplitudes, encode_basis("1").amplitudes)

    def test_superposition_statistics(self):
        plus = LogicalState(np.array([1.0, 1.0]) / np.sqrt(2))
        rng = np.random.default_rng(35)
        n = 10_000
        ones = sum(measure_logical(plus, 0, rng)[0] for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) <= 3 * sigma

    def test_shots_equal_one_shot_measurements(self):
        # Each measurement takes one draw from the generator: 64 shots from
        # one generator are its 64 doubles against the qubit's probability of 1.
        state = LogicalState(random_state(np.random.default_rng(38), 8))
        for qubit in range(3):
            rng = np.random.default_rng(39)
            one_by_one = [measure_logical(state, qubit, rng)[0] for _ in range(64)]
            ones = ((np.arange(8) >> qubit) & 1) == 1
            p1 = np.sum(np.abs(state.amplitudes[ones]) ** 2)
            draws = np.random.default_rng(39).random(64)
            assert one_by_one == (draws < p1).astype(int).tolist()

    def test_collapse_renormalizes(self):
        rng = np.random.default_rng(36)
        state = LogicalState(random_state(rng, 4))
        outcome, collapsed = measure_logical(state, 1, rng=1)
        assert abs(collapsed.norm() - 1.0) < 1e-12
        again, _ = measure_logical(collapsed, 1, rng=2)
        assert again == outcome

    def test_collapse_keeps_the_outcome_slice(self):
        rng = np.random.default_rng(40)
        state = LogicalState(random_state(rng, 8))
        for qubit in range(3):
            outcome, collapsed = measure_logical(state, qubit, rng=qubit)
            mask = ((np.arange(8) >> qubit) & 1) == outcome
            kept = np.where(mask, state.amplitudes, 0.0)
            assert np.max(np.abs(collapsed.amplitudes - kept / np.linalg.norm(kept))) < 1e-15

    def test_deterministic_given_seed(self):
        plus = LogicalState(np.array([1.0, 1.0]) / np.sqrt(2))
        a = [measure_logical(plus, 0, rng=k)[0] for k in range(32)]
        b = [measure_logical(plus, 0, rng=k)[0] for k in range(32)]
        assert a == b

    def test_qubit_follows_the_target_rule(self):
        state = encode_basis("01")
        for qubit in (True, 1.0, "0", None):
            with pytest.raises(ValueError, match="targets must be integers"):
                measure_logical(state, qubit, rng=0)
        with pytest.raises(ValueError, match="targets must be nonnegative"):
            measure_logical(state, -1, rng=0)
        for qubit in (2, np.int64(2)):
            with pytest.raises(ValueError, match="qubit 2 out of range"):
                measure_logical(state, qubit, rng=0)
        assert measure_logical(state, np.int64(1), rng=0)[0] == 1
        assert measure_logical(state, np.int64(0), rng=0)[0] == 0

    def test_no_leakage_tolerance_parameter(self):
        for fn in (decode, measure_logical):
            assert "leakage_tol" not in inspect.signature(fn).parameters


class TestRunProgram:
    def test_empty_program(self):
        final, stats = run_program(NativeProgram(qubit_count=1), "0")
        assert np.array_equal(final.amplitudes, encode_basis("0").amplitudes)
        assert stats.norm_defect == 0.0

    def test_bell_state(self):
        program = lower_circuit([("H", (0,)), ("CNOT", (0, 1))])
        final, _ = run_program(program, "00")
        target = logical_circuit_matrix([("H", (0,)), ("CNOT", (0, 1))], 2)[:, 0]
        got = decode(final)
        fidelity = abs(np.vdot(target, got)) ** 2
        assert fidelity > 1.0 - 1e-9
        assert np.max(np.abs(got - target)) < 1e-9  # tracked phase makes it exact

    def test_x_gate_flips_encoded_zero(self):
        program = lower_circuit([("X", (0,))])
        final, _ = run_program(program, "0")
        assert np.max(np.abs(decode(final) - np.array([0.0, 1.0]))) < 1e-9

    def test_stats_record_norm_defect_of_the_returned_state(self):
        rng = np.random.default_rng(41)
        program = random_native_program(rng, 3, 20)
        final, stats = run_program(program, "010")
        assert stats.norm_defect == abs(final.norm() - 1.0) < 1e-12

    def test_stats_record_phase(self):
        # The tracked phase is in the state, not in the stats: T|1> = e^{i pi/4}|1>
        # needs the lowering's e^{i pi/8}.
        program = lower_circuit([("T", (0,))])
        assert abs(program.global_phase - np.exp(1j * np.pi / 8)) < 1e-12
        final, stats = run_program(program, "1")
        assert abs(final.amplitudes[1] - np.exp(1j * np.pi / 4)) < 1e-12
        assert [f.name for f in dataclasses.fields(stats)] == ["norm_defect"]

    def test_wrong_initial_length(self):
        with pytest.raises(ValueError, match="length"):
            run_program(NativeProgram(qubit_count=2), "0")

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        program = random_native_program(rng, 3, 20)
        a, _ = run_program(program, "010")
        b, _ = run_program(program, "010")
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("target", [
        0, np.int64(0), np.uint8(0), 0.0, 0.5, True, np.True_, "0", None, 1 + 0j])
    def test_directly_built_ops_run_or_fail_the_target_rule(self, target):
        # An op built without from_json either fails the one target rule with
        # a ValueError or runs; run_program never sees a non-integer target.
        try:
            op = NativeOp(ISWAP_KIND, (target,), (1.0,))
        except ValueError as err:
            assert isinstance(target, (bool, np.bool_)) or not isinstance(target, (int, np.integer))
            assert str(err).startswith("targets must be integers")
            return
        final, stats = run_program(NativeProgram(qubit_count=1, ops=[op]), "0")
        assert op.targets == (0,) and type(op.targets[0]) is int
        assert stats.norm_defect < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_match_logical_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        circuit = random_circuit(rng, k, int(rng.integers(1, 7)))
        program = lower_circuit(circuit, qubit_count=k)
        bits = "".join(rng.choice(["0", "1"]) for _ in range(k))
        final, _ = run_program(program, bits)
        index = sum(1 << j for j, b in enumerate(bits) if b == "1")
        expected = logical_circuit_matrix(circuit, k)[:, index]
        assert np.max(np.abs(decode(final) - expected)) < 1e-9


class TestMatrices:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_circuit_and_program_match_logical_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        circuit = random_circuit(rng, k, int(rng.integers(1, 12)))
        oracle = logical_circuit_matrix(circuit, k)
        assert np.max(np.abs(circuit_columns(circuit, k) - oracle)) < 1e-12
        program = lower_circuit(circuit, qubit_count=k)
        assert np.max(np.abs(program_columns(program) - oracle)) < 1e-9

    def test_program_columns_are_runs_of_basis_inputs(self):
        rng = np.random.default_rng(42)
        program = random_native_program(rng, 3, 25)
        matrix = program_columns(program)
        for idx in range(8):
            bits = "".join("1" if (idx >> j) & 1 else "0" for j in range(3))
            final, _ = run_program(program, bits)
            assert np.max(np.abs(matrix[:, idx] - final.amplitudes)) < 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# A small pool, signed zeros included, so that ops repeat as in lowered programs.
ANGLE_POOL = (0.0, -0.0, 0.3, -0.3, np.pi / 2, -np.pi, 1.25)


def pooled_native_program(rng: np.random.Generator, qubit_count: int, op_count: int) -> NativeProgram:
    kinds = [ISWAP_KIND, PHASE_KIND] + [CISWAP_KIND] * (qubit_count > 1)
    ops = []
    for _ in range(op_count):
        kind = kinds[rng.integers(len(kinds))]
        if kind == CISWAP_KIND:
            targets = tuple(int(q) for q in rng.choice(qubit_count, size=2, replace=False))
        else:
            targets = (int(rng.integers(qubit_count)),)
        n_angles = {ISWAP_KIND: 1, PHASE_KIND: 2, CISWAP_KIND: 0}[kind]
        angles = tuple(ANGLE_POOL[i] for i in rng.integers(len(ANGLE_POOL), size=n_angles))
        ops.append(NativeOp(kind, targets, angles))
    phase = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
    return NativeProgram(qubit_count=qubit_count, ops=ops, global_phase=phase)


class TestKernelCache:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_runs_equal_per_op_reference(self, seed):
        # Fusing single-qubit runs moves results in their last bits only:
        # states, matrices and circuit matrices stay within 1e-13 of an
        # op-by-op run, and the tracked phase is exact.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        program = pooled_native_program(rng, k, int(rng.integers(0, 24)))
        bits = "".join(rng.choice(["0", "1"], size=k))
        final, _ = run_program(program, bits)
        expected = run_ops_reference(program, encode_basis(bits).amplitudes)
        assert np.max(np.abs(final.amplitudes - expected * program.global_phase)) <= 1e-13
        matrix = run_ops_reference(program, np.eye(2**k, dtype=complex))
        assert np.max(np.abs(program_columns(program) - matrix * program.global_phase)) <= 1e-13
        circuit = random_circuit(rng, k, int(rng.integers(1, 24)))
        assert np.max(np.abs(circuit_columns(circuit, k) - circuit_columns_reference(circuit, k))) <= 1e-13

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_runs_equal_fused_reference(self, seed):
        # The one apply loop, its cached kernels, its slice-swap CNOT and its
        # row-by-row contraction on trailing axes of 2, 4 or 8 change no bit
        # against the separately written fused loop: states, matrices and
        # circuit matrices.  k up to 6 puts each contraction under several
        # leading-axis lengths.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        program = pooled_native_program(rng, k, int(rng.integers(0, 24)))
        bits = "".join(rng.choice(["0", "1"], size=k))
        final, _ = run_program(program, bits)
        # The phase goes on last, amplitudes times phase, in both functions:
        # numpy's vectorized complex product can differ in the last bit when
        # the operands swap (seen on AVX-512 hosts).
        expected = fused_reference(native_steps(program), encode_basis(bits).amplitudes)
        assert same_bits(final.amplitudes, expected * program.global_phase)
        matrix = fused_reference(native_steps(program), np.eye(2**k, dtype=complex))
        assert same_bits(program_columns(program), matrix * program.global_phase)
        circuit = random_circuit(rng, k, int(rng.integers(1, 24)))
        assert same_bits(circuit_columns(circuit, k),
                         fused_reference(circuit_steps(circuit), np.eye(2**k, dtype=complex)))

    def test_signed_zero_angles_get_their_own_kernels(self):
        compiler._kernel.cache_clear()
        ops = [NativeOp(PHASE_KIND, (0,), (0.7, 0.0)), NativeOp(PHASE_KIND, (0,), (0.7, -0.0)),
               NativeOp(ISWAP_KIND, (0,), (0.0,)), NativeOp(ISWAP_KIND, (0,), (-0.0,))]
        for op in ops:
            program = one_op(op, 1)
            expected = run_ops_reference(program, np.eye(2, dtype=complex))
            assert same_bits(program_columns(program), expected * program.global_phase)
        assert compiler._kernel.cache_info().currsize == len(ops)

    def test_warm_kernels_build_no_unitary_and_check_no_state_per_op(self, monkeypatch):
        rng = np.random.default_rng(43)
        program = lower_circuit(random_circuit(rng, 10, 100), qubit_count=10)
        # The 2^10 columns cost ~15 ms per op, so they run a prefix.
        prefix = NativeProgram(qubit_count=10, ops=program.ops[:16])
        calls = collections.Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(gates.Unitary, "__init__", spy("Unitary", gates.Unitary.__init__))
        monkeypatch.setattr(LogicalState, "__post_init__",
                            spy("LogicalState", LogicalState.__post_init__))
        compiler._kernel.cache_clear()
        run_program(program, "0" * 10)
        program_columns(prefix)
        # One kernel build per distinct (kind, angles); a warm pass builds none.
        distinct = {(op.kind, op.angles, tuple(math.copysign(1.0, a) for a in op.angles))
                    for op in program.ops}
        assert {kind for kind, _, _ in distinct} == {CISWAP_KIND, ISWAP_KIND, PHASE_KIND}
        assert compiler._kernel.cache_info().misses == len(distinct)
        calls.clear()
        run_program(program, "1" * 10)
        program_columns(prefix)
        # States are validated at run_program's entry and exit only.
        assert calls == {"LogicalState": 2}
        assert compiler._kernel.cache_info().misses == len(distinct)


class TestStateSerialization:
    def test_json_writes_logical_layout(self, tmp_path):
        # The state.json that simulate --out writes holds the 2^k amplitudes
        # as they are, and embedding them at the code words rebuilds the 4^k
        # physical register of the oracle run.
        rng = np.random.default_rng(38)
        for k in (1, 2, 3):
            program = random_native_program(rng, k, 12)
            bits = "".join(rng.choice(["0", "1"], size=k))
            state, _ = run_program(program, bits)
            (tmp_path / "program.json").write_text(program.to_json())
            assert cli.main(["--out", str(tmp_path), "simulate", "--program",
                             str(tmp_path / "program.json"), "--initial", bits]) == 0
            written = json.loads((tmp_path / "state.json").read_text())
            assert same_bits(np.array([complex(re, im) for re, im in written]), state.amplitudes)
            register = np.zeros(4**k, dtype=complex)
            register[code_indices(k)] = [complex(re, im) for re, im in written]
            physical = run_physical(program, bits)[-1] * program.global_phase
            assert np.max(np.abs(register - physical)) < 1e-12

    def test_logical_state_validation(self):
        # The norm is written as a plain float.
        with pytest.raises(ValueError, match=r"^state norm 1\.4142135623730951 deviates from 1$"):
            LogicalState(np.ones(2, dtype=complex))
        for bad in (np.array([1.0]), np.array([1.0, 0.0, 0.0]), np.eye(2)):
            with pytest.raises(ValueError, match="amplitudes"):
                LogicalState(bad)
