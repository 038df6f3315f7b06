import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc import presets
from ensembleqc.dynamics import (
    DEFAULT_STEP_FACTOR,
    FRAME_LAB,
    FRAME_ROTATING,
    BlockadeConditionError,
    NodePairState,
    ResonanceConditionError,
    StepSizeError,
    blockade_error,
    evolve_closed_form,
    evolve_numerical,
    extract_controlled_iswap,
    sector_propagator,
    swap_time,
)
from ensembleqc.gates import iswap, phase_distance, restrict_to_logical
from ensembleqc.physical import DerivedCouplings, derive_couplings, effective_hamiltonian
from helpers import (
    blockade_row_reference,
    propagator_eig_oracle,
    random_resonant_params,
    random_state,
    rescaled_params_reference,
    rk4_reference,
)

EXCITED = NodePairState.excited_node_one()


@pytest.fixture(scope="module")
def resonant():
    return derive_couplings(presets.blockade_tuned_params(1.0))


@pytest.fixture(scope="module")
def tuned():
    return derive_couplings(presets.blockade_tuned_params(presets.SQRT3))


class TestNodePairState:
    def test_norm(self):
        assert abs(NodePairState(0.6, 0.8j).norm() - 1.0) < 1e-15

    def test_unnormalized_initial_rejected(self, resonant):
        with pytest.raises(ValueError, match="normalized"):
            evolve_closed_form(resonant, 0, 1.0, NodePairState(0.5, 0.0))


def rotating(couplings, n, t, initial=EXCITED) -> np.ndarray:
    """Rotating-frame state at ``t`` from ``initial``."""
    return sector_propagator(couplings, n, t, FRAME_ROTATING) @ initial.as_vector()


class TestClosedForm:
    def test_identity_at_time_zero(self, resonant):
        result = evolve_closed_form(resonant, 0, 0.0, EXCITED)
        assert result.state.c1 == 1.0 and result.state.c2 == 0.0
        assert result.sector == 0

    def test_full_swap_amplitudes(self, resonant):
        c1, c2 = rotating(resonant, 0, swap_time(resonant))
        assert abs(c1) < 1e-12
        assert abs(c2 - (-1j)) < 1e-12

    def test_lab_frame_differs_by_mean_phase_only(self, resonant):
        # The evolvers report the lab frame: the rotating frame's state times
        # the mean-frequency phase.
        t = 0.37
        lab = evolve_closed_form(resonant, 0, t, EXCITED)
        rot = rotating(resonant, 0, t)
        phase = np.exp(1j * resonant.varpi_mean(0) * t)
        assert abs(lab.state.c1 - phase * rot[0]) < 1e-12
        assert abs(lab.state.c2 - phase * rot[1]) < 1e-12

    def test_periodicity(self, resonant):
        c1, c2 = rotating(resonant, 0, 2.0 * np.pi / abs(resonant.s_coupling))
        assert abs(c1 - 1.0) < 1e-10
        assert abs(c2) < 1e-10

    def test_perfect_blockade_zero(self, tuned):
        c1, c2 = rotating(tuned, 1, swap_time(tuned))
        assert abs(c2) < 1e-12
        assert abs(abs(c1) - 1.0) < 1e-12
        # kappa(1) t = pi makes the returned amplitude exactly -1.
        assert abs(c1 - (-1.0)) < 1e-12

    def test_refuses_off_resonance(self, resonant):
        delta = 10.0 * abs(resonant.s_coupling)
        params = presets.blockade_tuned_params(1.0)
        bumped = derive_couplings(
            dataclasses.replace(params, omega_2=params.omega_2 + delta)
        )
        with pytest.raises(ResonanceConditionError, match="evolve_numerical"):
            evolve_closed_form(bumped, 0, 1.0, EXCITED)

    def test_decoupled_when_s_is_zero(self):
        params = presets.blockade_tuned_params(1.0)
        couplings = derive_couplings(
            dataclasses.replace(params, g_sigma_1=0.0)
        )
        initial = NodePairState(0.6, 0.8)
        result = evolve_closed_form(couplings, 1, 2.5, initial)
        assert abs(abs(result.state.c1) - 0.6) < 1e-12
        assert abs(abs(result.state.c2) - 0.8) < 1e-12

    def test_matches_eigendecomposition_oracle(self, tuned):
        rng = np.random.default_rng(17)
        for n in (0, 1):
            h = effective_hamiltonian(tuned, n)
            for t in rng.uniform(0.0, 5.0, 5):
                expected = propagator_eig_oracle(h, t)
                got = sector_propagator(tuned, n, t)
                assert np.max(np.abs(got - expected)) < 1e-10


class TestTimeArrays:
    @pytest.mark.parametrize("frame", [FRAME_LAB, FRAME_ROTATING])
    @pytest.mark.parametrize("n", [0, 1])
    def test_propagator_stack_equals_scalar_calls(self, tuned, n, frame):
        rng = np.random.default_rng(31)
        times = rng.uniform(0.0, 20.0 / abs(tuned.s_coupling), (3, 5))
        stacked = sector_propagator(tuned, n, times, frame)
        scalar = np.stack([sector_propagator(tuned, n, float(x), frame) for x in times.ravel()])
        assert stacked.shape == (3, 5, 2, 2)
        assert np.array_equal(stacked.reshape(-1, 2, 2), scalar)

    @pytest.mark.parametrize("frame", [FRAME_LAB, FRAME_ROTATING])
    def test_propagator_stack_without_dynamics(self, frame):
        # S = 0 and a zero split: the rate k vanishes, each propagator is the
        # mean-frequency phase times the identity.
        still = DerivedCouplings(
            omega_cap_sigma=0j, omega_1_sigma=0.0, omega_1_pi=0.0, omega_2_sigma=0.0,
            omega_2_pi=0.0, s_coupling=0j, n_atoms_1=3, n_atoms_2=2, omega_1=1.5, omega_2=1.5,
        )
        assert still.varpi_split(0) == still.varpi_split(1) == 0.0
        times = np.linspace(0.0, 4.0, 9)
        for n in (0, 1):
            stacked = sector_propagator(still, n, times, frame)
            scalar = np.stack([sector_propagator(still, n, float(x), frame) for x in times])
            assert np.array_equal(stacked, scalar)
            phase = np.exp(1j * still.varpi_mean(n) * times) if frame == FRAME_LAB else 1.0
            assert np.array_equal(stacked[:, 0, 0], np.broadcast_to(phase, times.shape))
            assert np.all(stacked[:, 0, 1] == 0.0)

    def test_angle_that_is_not_finite_rejected(self, tuned):
        # In a stack, one time whose lab-frame phase angle overflows is enough;
        # the rotating frame has no such angle.
        far = dataclasses.replace(tuned, omega_1=1e10, omega_2=1e10)
        times = np.array([1.0, 1e300])
        assert np.all(np.isfinite(sector_propagator(far, 0, times, FRAME_ROTATING)))
        with pytest.raises(ValueError, match="sector 0 propagator undefined"):
            sector_propagator(far, 0, times, FRAME_LAB)
        with pytest.raises(ValueError, match="sector 1 propagator undefined"):
            sector_propagator(far, 1, np.inf, FRAME_ROTATING)

    def test_closed_form_trajectory_equals_per_sample_products(self, tuned):
        initial = NodePairState(*random_state(np.random.default_rng(37), 2))
        t = 3.0 / abs(tuned.s_coupling)
        for n in (0, 1):
            result = evolve_closed_form(tuned, n, t, initial, samples=50)
            expected = np.stack([
                sector_propagator(tuned, n, ti) @ initial.as_vector() for ti in result.times
            ])
            assert np.array_equal(result.trajectory, expected)


class TestNumerical:
    @pytest.mark.parametrize("samples", [0, 1, 1000])
    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_step_by_step_reference(self, tuned, n, samples):
        s = abs(tuned.s_coupling)
        step = DEFAULT_STEP_FACTOR / max(tuned.kappa(n), float(np.hypot(tuned.varpi_split(n), s)))
        vec = random_state(np.random.default_rng(41), 2)
        for t in (0.0, 0.5 * step, 10.0 * np.pi / s):
            result = evolve_numerical(tuned, n, t, NodePairState(*vec), samples=samples)
            # The reference integrates in the rotating frame; the result is in the lab frame.
            times = np.linspace(0.0, t, samples + 1) if samples else np.array([0.0, t])
            reference = (rk4_reference(tuned, n, t, vec, step, samples)
                         * np.exp(1j * tuned.varpi_mean(n) * times)[:, None])
            assert abs(result.state.as_vector() - reference[-1]).max() < 1e-12
            if samples:
                assert result.trajectory.shape == reference.shape
                assert np.max(np.abs(result.trajectory - reference)) < 1e-12
            else:
                assert result.trajectory is None

    @pytest.mark.parametrize("samples", [1, 2, 3, 5, 8, 1023, 1024, 1025])
    @pytest.mark.parametrize("n", [0, 1])
    def test_scan_edges_match_step_by_step_reference(self, tuned, n, samples):
        # Sample counts around the doubling scan's powers of two.
        s = abs(tuned.s_coupling)
        step = DEFAULT_STEP_FACTOR / max(tuned.kappa(n), float(np.hypot(tuned.varpi_split(n), s)))
        vec = random_state(np.random.default_rng(43), 2)
        t = 10.0 * np.pi / s
        reference = rk4_reference(tuned, n, t, vec, step, samples)
        lab_phase = np.exp(1j * tuned.varpi_mean(n) * np.linspace(0.0, t, samples + 1))[:, None]
        expected = reference * lab_phase
        result = evolve_numerical(tuned, n, t, NodePairState(*vec), samples=samples)
        assert result.trajectory.shape == expected.shape
        assert np.max(np.abs(result.trajectory - expected)) < 1e-12
        assert abs(result.state.as_vector() - expected[-1]).max() < 1e-12

    @pytest.mark.parametrize("n", [0, 1])
    def test_long_horizon_keeps_the_norm(self, tuned, n):
        t = 100.0 * np.pi / abs(tuned.s_coupling)
        result = evolve_numerical(tuned, n, t, EXCITED, samples=2**14)
        norms = np.linalg.norm(result.trajectory, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_rejects_non_finite_time(self, resonant):
        for t in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                evolve_numerical(resonant, 0, t, EXCITED)

    def test_agrees_with_closed_form(self, tuned):
        rng = np.random.default_rng(23)
        s = abs(tuned.s_coupling)
        for n in (0, 1):
            initial_vec = random_state(rng, 2)
            initial = NodePairState(*initial_vec)
            for t in (0.3 / s, 4.0 / s, 10.0 / s):
                num = evolve_numerical(tuned, n, t, initial)
                ref = evolve_closed_form(tuned, n, t, initial)
                assert abs(num.state.c1 - ref.state.c1) < 1e-8
                assert abs(num.state.c2 - ref.state.c2) < 1e-8

    def test_off_resonance_peak_transfer(self):
        # Oracle: generalized two-level transfer, max |c2|^2 = S^2/(S^2 + d^2/4)
        # for a sector offset d; cross-checked against the eigen-splitting.
        params = presets.blockade_tuned_params(0.0)
        couplings = derive_couplings(params)
        s = abs(couplings.s_coupling)
        delta = 10.0 * s
        bumped = derive_couplings(
            dataclasses.replace(params, omega_2=params.omega_2 + delta)
        )
        expected_peak_sq = s**2 / (s**2 + delta**2 / 4.0)
        assert abs(expected_peak_sq - 1.0 / 26.0) < 1e-15
        k_eff = np.hypot(bumped.varpi_split(0), s)
        t_peak = np.pi / (2.0 * k_eff)
        result = evolve_numerical(bumped, 0, t_peak, EXCITED)
        assert abs(abs(result.state.c2) ** 2 - expected_peak_sq) < 1e-8
        # scanning a period never exceeds the peak
        traj = evolve_numerical(bumped, 0, 2 * np.pi / k_eff, EXCITED, samples=256)
        peak = np.max(np.abs(traj.trajectory[:, 1]) ** 2)
        assert peak <= expected_peak_sq + 1e-8

    @pytest.mark.parametrize(
        "step, message",
        [(np.nan, "finite and positive"), (np.inf, "finite and positive"), (1e-300, r"2\*\*53")],
    )
    def test_rejects_non_finite_or_tiny_step(self, step, message):
        # The step is DEFAULT_STEP_FACTOR / |S| on a sector without split: a
        # NaN rate gives a NaN step, the smallest subnormal rate overflows it
        # to inf, and a rate near 4e297 gives 1e-300, which needs more than
        # 2**53 steps for t = 1.  Such steps are refused before any array
        # work, so numpy warns of no invalid cast on the way.
        s = 5e-324 if step == np.inf else DEFAULT_STEP_FACTOR / step
        extreme = DerivedCouplings(
            omega_cap_sigma=0j, omega_1_sigma=0.0, omega_1_pi=0.0, omega_2_sigma=0.0,
            omega_2_pi=0.0, s_coupling=complex(s), n_atoms_1=1, n_atoms_2=1, omega_1=0.0, omega_2=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match=message):
                evolve_numerical(extreme, 0, 1.0, EXCITED)

    def test_huge_time_needs_too_many_steps(self, resonant):
        # The 2**53 guard on ordinary couplings: a finite time of 1e300 s.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError, match=r"2\*\*53"):
                evolve_numerical(resonant, 0, 1e300, EXCITED)

    def test_norm_conserved_along_trajectory(self, tuned):
        t = 10.0 / abs(tuned.s_coupling)
        result = evolve_numerical(tuned, 1, t, EXCITED, samples=64)
        norms = np.linalg.norm(result.trajectory, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        couplings = derive_couplings(random_resonant_params(rng))
        n = int(rng.integers(0, 2))
        t = float(rng.uniform(0.0, 10.0 / abs(couplings.s_coupling)))
        initial = NodePairState(*random_state(rng, 2))
        num = evolve_numerical(couplings, n, t, initial)
        ref = evolve_closed_form(couplings, n, t, initial)
        assert abs(num.state.c1 - ref.state.c1) < 1e-8
        assert abs(num.state.c2 - ref.state.c2) < 1e-8


class TestBlockadeError:
    def test_strong_blockade_value(self):
        couplings = derive_couplings(presets.blockade_tuned_params(100.0))
        # |S|/kappa(1) = 1/sqrt(1 + 100^2)
        assert abs(blockade_error(couplings) - 0.009999500037496875) < 1e-15

    def test_no_blockade_without_pi_coupling(self):
        couplings = derive_couplings(presets.blockade_tuned_params(0.0))
        assert blockade_error(couplings) == 1.0

    def test_half_at_perfect_tuning(self, tuned):
        assert abs(blockade_error(tuned) - 0.5) < 1e-12

    def test_strictly_decreasing_in_ratio(self):
        values = [
            blockade_error(derive_couplings(presets.blockade_tuned_params(r)))
            for r in (0.0, 0.5, 1.0, presets.SQRT3, 3.0, 10.0, 100.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_numerical_peak_matches_formula(self, tuned):
        k1 = tuned.kappa(1)
        t_peak = np.pi / (2.0 * k1)
        result = evolve_numerical(tuned, 1, t_peak, EXCITED)
        assert abs(abs(result.state.c2) - blockade_error(tuned)) < 1e-9


def _ratio_cases():
    """(params, ratios): tuned and untuned sets, N1 != N2, complex couplings."""
    reference = presets.reference_params()
    ratios = [0.0, presets.SQRT3, 1e6, 1.0, 0.25, 17.5, 3e-9, 2.0 ** 0.5]
    rng = np.random.default_rng(47)
    ratios += (rng.uniform(0.0, 10.0, 40) * 10.0 ** rng.uniform(-6.0, 6.0, 40)).tolist()
    untuned = dataclasses.replace(
        reference, n_atoms_2=37, g_sigma_2=complex(reference.g_sigma_2, 3.0e5),
        delta_pi_1=-0.7 * reference.delta_pi_1, omega_2=reference.omega_2 + 1.0e7, omega_1=12.5,
    )
    return [
        (presets.blockade_tuned_params(presets.SQRT3, n_atoms_1=3, n_atoms_2=7, omega_1=0.3), ratios),
        (presets.blockade_tuned_params(0.4, s_coupling=2.5e8, n_atoms_1=10_000, n_atoms_2=9),
         ratios),
        (reference, ratios),
        (untuned, ratios),
        (random_resonant_params(rng), ratios),
    ]


@pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
class TestRatioStacks:
    """The blockade-sweep quantities over an array of ratios equal the scalar
    calls, and the scalar arithmetic of one row at a time, bit for bit."""

    @pytest.mark.parametrize("case", range(5))
    def test_stack_equals_scalar_chain(self, case):
        params, ratios = _ratio_cases()[case]
        stack = presets.rescaled_couplings(params, ratios)
        singles = [derive_couplings(rescaled_params_reference(params, r)) for r in ratios]
        assert stack.omega_1_pi.shape == stack.omega_2.shape == (len(ratios),)
        for field in dataclasses.fields(DerivedCouplings):
            value = getattr(stack, field.name)
            column = [getattr(c, field.name) for c in singles]
            if field.name in ("omega_1_pi", "omega_2"):
                assert np.array_equal(value, column), field.name
            else:
                assert all(v == value for v in column), field.name
        t = np.pi / (2.0 * abs(stack.s_coupling))
        assert np.array_equal(blockade_error(stack), [blockade_error(c) for c in singles])
        assert np.array_equal(stack.kappa(1), [c.kappa(1) for c in singles])
        for n in (0, 1):
            for frame in (FRAME_LAB, FRAME_ROTATING):
                stacked = sector_propagator(stack, n, t, frame)
                assert stacked.shape == (len(ratios), 2, 2)
                assert np.array_equal(
                    stacked, [sector_propagator(c, n, t, frame) for c in singles])

    @pytest.mark.parametrize("case", range(6))
    def test_rows_equal_scalar_reference(self, case):
        if case < 5:
            params, ratios = _ratio_cases()[case]
        else:  # enough rows that a last-bit difference in any step would show
            rng = np.random.default_rng(61)
            params = presets.blockade_tuned_params(1.1, s_coupling=3e7, n_atoms_1=5, n_atoms_2=800)
            ratios = (rng.uniform(0.0, 10.0, 3000) * 10.0 ** rng.uniform(-4.0, 4.0, 3000)).tolist()
        stack = presets.rescaled_couplings(params, ratios)
        c2 = sector_propagator(stack, 1, np.pi / (2.0 * abs(stack.s_coupling)))[:, 1, 0]
        rows = np.column_stack([ratios, blockade_error(stack), np.hypot(c2.real, c2.imag)])
        assert np.array_equal(rows, [blockade_row_reference(params, r) for r in ratios])

    def test_stack_with_times(self, tuned):
        # A stack of n coupling sets and m times broadcast like any numpy operands.
        stack = presets.rescaled_couplings(presets.blockade_tuned_params(presets.SQRT3), [0.5, 1.0, 2.0])
        times = np.linspace(0.0, 3.0, 4)[:, None]
        got = sector_propagator(stack, 1, times)
        assert got.shape == (4, 3, 2, 2)
        for i, t in enumerate(times[:, 0]):
            assert np.array_equal(got[i], sector_propagator(stack, 1, t))

    def test_zero_swap_coupling_gives_zero_error(self):
        still = DerivedCouplings(
            omega_cap_sigma=0j, omega_1_sigma=0.0, omega_1_pi=np.array([0.0, 2.0]),
            omega_2_sigma=0.0, omega_2_pi=0.0, s_coupling=0j, n_atoms_1=3, n_atoms_2=2,
            omega_1=1.5, omega_2=np.array([1.5, 1.5]),
        )
        assert np.array_equal(blockade_error(still), [0.0, 0.0])
        assert blockade_error(dataclasses.replace(still, omega_1_pi=0.0, omega_2=1.5)) == 0.0

    @pytest.mark.parametrize("ratios, message", [
        ([1.0, -1.0], "ratio must be nonnegative"),
        ([1e300], "g_pi_1 must be finite"),
        ([1.0, 1e300, -1.0], "g_pi_1 must be finite"),
        ([-1.0, 1e300], "ratio must be nonnegative"),
    ])
    def test_first_rejected_ratio_raises_its_error(self, ratios, message):
        params = presets.reference_params()
        with pytest.raises(ValueError, match=message):
            presets.rescaled_couplings(params, ratios)

    def test_non_finite_resonant_frequency_rejected(self):
        # The shift |g_pi_1|^2/Delta ~ 1.6e308 is finite; N1 times it is not.
        params = dataclasses.replace(presets.reference_params(), g_pi_1=0.0, delta_pi_1=-1e-300)
        with pytest.raises(ValueError, match="omega_2 must be finite"):
            presets.rescaled_couplings(params, [1.0, 1e300])

    def test_zero_swap_coupling_rejected(self):
        params = dataclasses.replace(presets.reference_params(), g_sigma_1=0.0)
        with pytest.raises(ValueError, match="swap coupling S is zero"):
            presets.rescaled_couplings(params, [1.0, 2.0])
        with pytest.raises(ValueError, match="ratio must be nonnegative"):
            presets.rescaled_couplings(params, [-1.0])


class TestSwapTime:
    def test_value(self, resonant):
        assert swap_time(resonant) == np.pi / (2 * abs(resonant.s_coupling))

    def test_is_the_extraction_time(self, tuned):
        # The extracted gate is the rotating-frame sector propagators at
        # swap_time, bit for bit.
        t = swap_time(tuned)
        m = extract_controlled_iswap(tuned).matrix
        assert np.array_equal(m[:2, :2], sector_propagator(tuned, 0, t, FRAME_ROTATING))
        rel_phase = np.exp(1j * (tuned.n_atoms_1 - 1) * tuned.omega_1_pi * t)
        assert np.array_equal(m[2:, 2:], rel_phase * sector_propagator(tuned, 1, t, FRAME_ROTATING))

    def test_two_swaps_return_population_with_sign_flip(self, resonant):
        c1, c2 = rotating(resonant, 0, 2.0 * swap_time(resonant))
        assert abs(c1 - (-1.0)) < 1e-12
        assert abs(c2) < 1e-12

    @pytest.mark.parametrize("fraction", [0.2, 1.0, 1.3])
    def test_native_iswap_angle_is_twice_s_t(self, fraction):
        # At time t the photon-free sector has turned by iswap(-2|S|t), not
        # by iswap(-|S|t): a native ISWAP(theta) takes |theta|/pi swap times.
        rng = np.random.default_rng(23)
        for params in [presets.reference_params()] + [random_resonant_params(rng) for _ in range(6)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # reference_params is outside the dispersive window
                couplings = derive_couplings(params)
            t = fraction * swap_time(couplings)
            s_t = abs(couplings.s_coupling) * t
            u = sector_propagator(couplings, 0, t, FRAME_ROTATING)
            assert phase_distance(u, restrict_to_logical(iswap(-2.0 * s_t))) < 1e-11
            assert phase_distance(u, restrict_to_logical(iswap(-s_t))) > 0.1

    # 1e-311 is nonzero, but pi/(2|S|) overflows.
    @pytest.mark.parametrize("s", [0.0, np.inf, np.nan, 1e-311])
    def test_rejects_zero_or_non_finite_coupling(self, s):
        couplings = dataclasses.replace(
            derive_couplings(presets.blockade_tuned_params(1.0)), s_coupling=complex(s))
        with pytest.raises(ValueError, match="finite and nonzero"):
            swap_time(couplings)


class TestGateExtraction:
    def test_structure_at_swap_time(self, tuned):
        m = extract_controlled_iswap(tuned).matrix
        assert max(abs(m[0, 0]), abs(m[1, 1])) < 1e-12
        assert max(abs(m[0, 1] + 1j), abs(m[1, 0] + 1j)) < 1e-12
        assert max(abs(m[2, 3]), abs(m[3, 2])) < 1e-12
        assert abs(abs(m[2, 2]) - 1.0) < 1e-12
        assert abs(abs(m[3, 3]) - 1.0) < 1e-12

    def test_one_photon_phase_value(self, tuned):
        # The blocked branch returns -exp(i (N1-1) Omega_1pi t).
        t = swap_time(tuned)
        expected = -np.exp(1j * (tuned.n_atoms_1 - 1) * tuned.omega_1_pi * t)
        m = extract_controlled_iswap(tuned).matrix
        assert abs(m[2, 2] - expected) < 1e-12
        assert abs(m[3, 3] - expected) < 1e-12

    def test_detuned_coupling_rejected_with_leakage(self, resonant):
        with pytest.raises(BlockadeConditionError) as err:
            extract_controlled_iswap(resonant)
        # ratio 1: kappa t = pi/sqrt(2), leakage = sin(pi/sqrt 2)/sqrt(2)
        expected = abs(np.sin(np.pi / np.sqrt(2))) / np.sqrt(2)
        assert abs(err.value.leakage - expected) < 1e-12

    def test_force_flag_skips_the_gate_condition(self, resonant):
        u = extract_controlled_iswap(resonant, enforce_condition=False)
        assert u.unitarity_defect() < 1e-12

    @pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
    def test_angles_that_are_not_finite_rejected(self, tuned):
        # Each sector turns through ~1e293 rad in the 1.6e141 s swap, but
        # (N1 - 1) Omega_1^(pi) t overflows.
        couplings = derive_couplings(presets.blockade_tuned_params(
            1e293, s_coupling=1e-141, n_atoms_1=2**53, n_atoms_2=4))
        with pytest.raises(ValueError, match="relative phase angle -inf"):
            extract_controlled_iswap(couplings, enforce_condition=False)
        # A rotation angle that overflows is rejected by the propagator.
        huge_split = dataclasses.replace(tuned, omega_1=-1e308, omega_2=1e308)
        with pytest.raises(ValueError, match="sector 0 propagator undefined"):
            extract_controlled_iswap(huge_split, enforce_condition=False)
