import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensembleqc import compiler
from ensembleqc.gates import (
    _STANDARD,
    Unitary,
    _phase_distance,
    matrix_to_json,
    rx,
    rz,
    standard_gate,
)
from helpers import (
    CODE_INDICES,
    CONTROLLED_SWAP,
    code_space_coupling,
    haar_unitary_2,
    iswap,
    phase_distance,
    phase_gate,
    restrict_to_logical,
)


def iswap_block(theta: float) -> np.ndarray:
    """The code-space block the simulator applies for ``ISWAP(theta)``."""
    return compiler._op_kernel(compiler.NativeOp(compiler.ISWAP_KIND, (0,), (theta,)))


def phase_block(theta: float, phi: float) -> np.ndarray:
    """The code-space block the simulator applies for ``PHASE(theta, phi)``."""
    return compiler._op_kernel(compiler.NativeOp(compiler.PHASE_KIND, (0,), (theta, phi)))


# The pair matrices of the test oracle, then the package's matrices.
UNITARY_SAMPLES = [
    iswap(0.0),
    iswap(np.pi),
    iswap(0.7345),
    phase_gate(0.0, 0.0),
    phase_gate(1.1, -0.4),
    phase_gate(np.pi / 2, np.pi / 2),
    Unitary(CONTROLLED_SWAP),
    rx(0.3),
    rz(-2.2),
    standard_gate("X"),
    standard_gate("H"),
    standard_gate("S"),
    standard_gate("T"),
    standard_gate("CNOT"),
    Unitary(iswap_block(0.7345)),
    Unitary(phase_block(1.1, -0.4)),
]

# Any angle a native op accepts.
ANGLES = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("u", UNITARY_SAMPLES, ids=lambda u: f"dim{u.dim}")
def test_unitarity(u):
    assert u.unitarity_defect() < 1e-12


class TestUnitaryType:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(np.array([[1.0, 0.0], [0.0, 1.1]]))

    @pytest.mark.parametrize("build, message", [
        (lambda: Unitary([[np.nan, 0.0], [0.0, 1.0]]), "not unitary"),
        (lambda: rx(np.nan), "angles must be finite"),
        (lambda: rx(np.inf), "angles must be finite"),
        (lambda: rz(-np.inf), "angles must be finite"),
        (lambda: iswap(np.nan), "angles must be finite"),
        (lambda: phase_gate(np.nan, 0.0), "angles must be finite"),
        (lambda: phase_gate(0.0, np.nan), "angles must be finite"),
        (lambda: phase_gate(0.0, np.inf), "angles must be finite"),
        (lambda: Unitary([[np.inf, 0.0], [0.0, 1.0]]), "not unitary"),
        (lambda: Unitary([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]), "not unitary"),
        (lambda: compiler.NativeOp(compiler.ISWAP_KIND, (0,), (np.inf,)), "angles must be finite"),
    ], ids=["matrix", "rx", "rx_inf", "rz_minus_inf", "iswap", "phase_gate_theta",
            "phase_gate_phi", "phase_gate_phi_inf", "matrix_inf", "matrix_imag_inf",
            "native_op_inf"])
    def test_rejects_nan(self, build, message):
        # A non-finite angle is rejected before any trig call and a
        # non-finite entry before the unitarity defect is computed; either
        # would warn, and the test configuration makes a warning an error.
        with pytest.raises(ValueError, match=message):
            build()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            Unitary(np.eye(3))

    def test_matrix_is_readonly(self):
        u = standard_gate("H")
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 5.0

    def test_cannot_be_rebound(self):
        u = rx(0.3)
        before = u.matrix.copy()
        with pytest.raises(AttributeError, match="immutable"):
            u.matrix = np.zeros((2, 2))
        with pytest.raises(AttributeError, match="immutable"):
            del u.matrix
        assert np.array_equal(u.matrix, before) and u.unitarity_defect() < 1e-12

    # An int past the float range is a ValueError, as any other bad value, not
    # the OverflowError of converting it.
    @pytest.mark.parametrize("build", [
        lambda b: compiler.NativeOp(compiler.ISWAP_KIND, (0,), (b,)),
        lambda b: compiler.NativeProgram(1, (), b),
        rx,
        rz,
        lambda b: Unitary([[b, 0], [0, 1]]),
        lambda b: compiler.euler_decompose([[b, 0], [0, 1]]),
        lambda b: compiler.approximate_fixed_set([[b, 0], [0, 1]], 0.1, 3),
    ], ids=["native_op", "native_program", "rx", "rz", "unitary", "euler_decompose",
            "approximate_fixed_set"])
    def test_int_past_the_float_range_is_a_value_error(self, build):
        with pytest.raises(ValueError):
            build(10**400)

    def test_matrix_json_round_trip(self):
        m = phase_block(0.37, 1.2)
        pairs = np.array(matrix_to_json(m))
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], m)


class TestIswap:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(iswap_block(0.0), np.eye(2))

    def test_full_swap_block(self):
        expected = np.array([[0.0, 1j], [1j, 0.0]])
        assert np.max(np.abs(iswap_block(np.pi) - expected)) < 1e-15

    def test_half_angle_superposition(self):
        zero, one = np.eye(2, dtype=complex)
        out = iswap_block(np.pi / 2) @ zero
        expected = (zero + 1j * one) / np.sqrt(2)
        assert np.max(np.abs(out - expected)) < 1e-15

    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_parameter_group(self, a, b):
        left = iswap_block(a) @ iswap_block(b)
        assert np.max(np.abs(left - iswap_block(a + b))) < 1e-12

    def test_restriction_is_x_rotation_by_minus_theta(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 100):
            block = iswap_block(theta)
            assert np.max(np.abs(block - rx(-theta).matrix)) < 1e-14
            assert phase_distance(block, rx(-theta).matrix) < 1e-10


class TestPhaseGate:
    def test_zero_angles_identity(self):
        assert np.max(np.abs(phase_block(0.0, 0.0) - np.eye(2))) == 0.0

    def test_code_entry_with_equal_angles(self):
        # With phi = theta the |0_L> entry is exp(i phi/2) exp(-i theta/2) = 1.
        assert abs(phase_block(1.234, 1.234)[0, 0] - 1.0) < 1e-15

    def test_restriction_is_z_rotation(self):
        m = phase_block(np.pi / 2, 0.0)
        assert np.max(np.abs(m - rz(np.pi / 2).matrix)) < 1e-15
        # nonzero phi contributes only a global phase on the code space
        assert phase_distance(phase_block(0.8, 0.5), rz(0.8).matrix) < 1e-12

    @given(
        st.floats(-6, 6, allow_nan=False),
        st.floats(-6, 6, allow_nan=False),
        st.floats(-6, 6, allow_nan=False),
        st.floats(-6, 6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_family_commutes(self, t1, p1, t2, p2):
        a, b = phase_block(t1, p1), phase_block(t2, p2)
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


class TestStandardGates:
    def test_h_squares_to_identity(self):
        h = standard_gate("H")
        assert np.max(np.abs(h.matrix @ h.matrix - np.eye(2))) < 1e-15

    def test_s_is_phased_z_rotation(self):
        expected = np.exp(1j * np.pi / 4) * rz(np.pi / 2).matrix
        assert np.max(np.abs(standard_gate("S").matrix - expected)) < 1e-15

    def test_t_is_phased_z_rotation(self):
        expected = np.exp(1j * np.pi / 8) * rz(np.pi / 4).matrix
        assert np.max(np.abs(standard_gate("T").matrix - expected)) < 1e-15

    def test_hadamard_zxz_identity(self):
        product = (
            np.exp(1j * np.pi / 2)
            * rz(np.pi / 2).matrix
            @ rx(np.pi / 2).matrix
            @ rz(np.pi / 2).matrix
        )
        assert np.max(np.abs(standard_gate("H").matrix - product)) < 1e-15

    def test_identities_through_native_restrictions(self):
        # The same identities with the rotations produced by the native gates.
        rz_native = phase_block(np.pi / 2, 0.0)
        rx_native = iswap_block(-np.pi / 2)
        product = np.exp(1j * np.pi / 2) * rz_native @ rx_native @ rz_native
        assert np.max(np.abs(standard_gate("H").matrix - product)) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown standard gate"):
            standard_gate("Q")

    def test_the_table_is_the_parsers_gate_set_and_read_only(self):
        # _STANDARD is the one gate table: parse_circuit takes exactly its
        # names, each with its matrix dimension over 2 targets.
        counts = {name: len(matrix) // 2 for name, matrix in _STANDARD.items()}
        assert counts == {"X": 1, "H": 1, "S": 1, "T": 1, "CNOT": 2}
        for name, matrix in _STANDARD.items():
            targets = tuple(range(counts[name]))
            assert compiler.parse_circuit(f"{name} {' '.join(map(str, targets))}\n") == ((name, targets),)
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
        for name in ("Y", "I", "SWAP", "x", "cnot", "Unitary"):
            with pytest.raises(ValueError, match="unknown gate"):
                compiler.parse_circuit(f"{name} 0\n")


class TestEncoding:
    def test_code_words_orthonormal(self):
        # |0_L> = |01> and |1_L> = |10> in the pair basis |00>, |01>, |10>, |11>.
        assert CODE_INDICES == (0b01, 0b10)
        z, o = np.eye(4, dtype=complex)[list(CODE_INDICES)]
        assert abs(np.vdot(z, z) - 1.0) < 1e-15
        assert abs(np.vdot(o, o) - 1.0) < 1e-15
        assert abs(np.vdot(z, o)) < 1e-15

    def test_projectors_resolve_identity(self):
        def projector(indices):
            p = np.zeros((4, 4))
            p[list(indices), list(indices)] = 1.0
            return p

        total = projector(CODE_INDICES) + projector((0b00, 0b11))
        assert np.array_equal(total, np.eye(4))

    def test_restrict_reports_leakage_coupling(self):
        # Rotation between |00> and |01> has an off-block element sin(angle).
        angle = np.arcsin(0.1)
        m = np.eye(4, dtype=complex)
        m[0, 0] = m[1, 1] = np.cos(angle)
        m[0, 1] = -0.1
        m[1, 0] = 0.1
        with pytest.raises(ValueError, match=r"max off-block element 1\.000e-01$"):
            restrict_to_logical(m)

    @given(theta=ANGLES, phi=ANGLES)
    @example(theta=-0.0, phi=0.0)
    @example(theta=0.0, phi=-0.0)
    @example(theta=-np.pi, phi=-0.0)
    @example(theta=-5e-324, phi=-1e300)
    @settings(max_examples=200, deadline=None)
    def test_coupling_of_native_matrices_is_zero(self, theta, phi):
        # Every native op keeps each pair's excitation number, so its
        # leakage in the oracle's pair matrix is exactly 0 at any angle, and
        # the block the package builds directly is that matrix's code-space
        # block, bit for bit, signs of zeros included.
        assert code_space_coupling(CONTROLLED_SWAP) == 0.0
        for kind, angles, pair in ((compiler.ISWAP_KIND, (theta,), iswap(theta)),
                                   (compiler.PHASE_KIND, (theta, phi), phase_gate(theta, phi))):
            assert code_space_coupling(pair) == 0.0
            kernel = compiler._op_kernel(compiler.NativeOp(kind, (0,), angles))
            expected = restrict_to_logical(pair).matrix
            assert kernel.shape == expected.shape
            assert kernel.tobytes() == expected.tobytes()
            assert not kernel.flags.writeable

    def test_kernels_build_no_pair_matrix(self, monkeypatch):
        dims = []
        init = Unitary.__init__

        def spy(self, matrix):
            init(self, matrix)
            dims.append(self.dim)

        monkeypatch.setattr(Unitary, "__init__", spy)
        compiler._kernel.cache_clear()
        iswap_block(0.3)
        phase_block(0.3, -1.1)
        assert compiler._kernel.cache_info().misses == 2
        assert set(dims) <= {2}

    def test_coupling_reads_the_pair_bits_of_larger_matrices(self):
        # Control 1 mixes target |01> (index 5) with |00> (index 4).
        m = np.eye(8, dtype=complex)
        m[4, 4] = m[5, 5] = np.sqrt(1 - 0.2**2)
        m[4, 5], m[5, 4] = -0.2, 0.2
        assert abs(code_space_coupling(m) - 0.2) < 1e-15
        # A swap of the control bit keeps the target pair in the code space.
        assert code_space_coupling(np.eye(8)[[4, 5, 6, 7, 0, 1, 2, 3]]) == 0.0

    def test_restrict_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            restrict_to_logical(np.eye(2))


class TestPhaseDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = haar_unitary_2(rng)
            assert phase_distance(u, u) < 1e-12
            assert phase_distance(u, np.exp(1j * rng.uniform(0, 2 * np.pi)) * u) < 1e-12

    def test_alignment_scalar(self):
        rng = np.random.default_rng(4)
        u = haar_unitary_2(rng)
        phi = 0.813
        found = _phase_distance(u[None], (np.exp(-1j * phi) * u)[None])[1][0]
        assert abs(found - np.exp(1j * phi)) < 1e-9

    def test_empty_stack(self):
        # A circuit may have no single-qubit run to check.
        empty = np.zeros((0, 2, 2), dtype=complex)
        for c in (np.eye(2)[None], empty):
            distances, phases = _phase_distance(c, empty)
            assert distances.shape == phases.shape == (0,)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pseudo_metric(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (haar_unitary_2(rng) for _ in range(3))
        duv, dvu = phase_distance(u, v), phase_distance(v, u)
        assert abs(duv - dvu) < 1e-10
        assert phase_distance(u, w) <= duv + phase_distance(v, w) + 1e-10


class TestFredkin:
    """On classical basis states the register controlled swap is the Fredkin
    gate, which computes NOT, AND and FANOUT with constant ancillas."""

    @staticmethod
    def fredkin(a: int, b: int, c: int) -> tuple[int, int, int]:
        out = int(np.flatnonzero(CONTROLLED_SWAP[:, 4 * a + 2 * b + c])[0])
        return out >> 2, (out >> 1) & 1, out & 1

    def test_register_swap_has_no_phases(self):
        # Index 4*c + 2*a + b -> 4*c + 2*b + a when c = 1, else unchanged;
        # no -i entries, unlike the photon-controlled swap of the dynamics.
        expected = np.zeros((8, 8))
        for i in range(8):
            c, a, b = i >> 2, (i >> 1) & 1, i & 1
            j = 4 * c + (2 * b + a if c else 2 * a + b)
            expected[j, i] = 1.0
        assert np.array_equal(CONTROLLED_SWAP, expected)
        assert not CONTROLLED_SWAP.flags.writeable

    def test_control_one_swaps(self):
        assert self.fredkin(1, 0, 1) == (1, 1, 0)

    @pytest.mark.parametrize("b,c", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_control_zero_passes_through(self, b, c):
        assert self.fredkin(0, b, c) == (0, b, c)

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_and(self, a, b):
        # Ancilla 0 as the second target: the third output is a AND b.
        assert self.fredkin(a, b, 0)[2] == a & b

    @pytest.mark.parametrize("a", [0, 1])
    def test_not(self, a):
        # Ancilla targets (0, 1): the third output is NOT a.
        assert self.fredkin(a, 0, 1)[2] == 1 - a

    @pytest.mark.parametrize("a", [0, 1])
    def test_fanout(self, a):
        # Ancilla targets (1, 0): the control line and the third output carry a.
        out = self.fredkin(a, 1, 0)
        assert (out[0], out[2]) == (a, a)
