import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc import presets
from ensembleqc.dynamics import (
    DEFAULT_STEP_FACTOR,
    BlockadeConditionError,
    NodePairState,
    StepSizeError,
    blockade_error,
    evolve_closed_form,
    evolve_numerical,
    extract_controlled_iswap,
    sector_propagator,
    swap_time,
)
from ensembleqc.physical import DerivedCouplings, derive_couplings
from helpers import (
    blockade_row_reference,
    detuned_params,
    effective_hamiltonian,
    iswap,
    phase_distance,
    propagator_eig_oracle,
    random_resonant_params,
    random_state,
    rescaled_params_reference,
    restrict_to_logical,
    rk4_reference,
    sector_frequencies,
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
    return sector_propagator(couplings, n, t) @ initial.as_vector()


def lab_propagator(couplings, n, t) -> np.ndarray:
    """exp(i M(n) t) of the full generator: sector_propagator times the
    sector's mean-frequency phase, which the package never forms."""
    mean = 0.5 * sum(sector_frequencies(couplings, n))
    return np.exp(1j * mean * np.asarray(t))[..., None, None] * sector_propagator(couplings, n, t)


# The one frame sector_propagator works in, and the lab frame built on it.
FRAMES = [pytest.param(lab_propagator, id="lab"), pytest.param(sector_propagator, id="rotating")]


class TestClosedForm:
    def test_identity_at_time_zero(self, resonant):
        result = evolve_closed_form(resonant, 0, 0.0, EXCITED)
        assert result.state.c1 == 1.0 and result.state.c2 == 0.0
        assert result.sector == 0

    def test_full_swap_amplitudes(self, resonant):
        c1, c2 = rotating(resonant, 0, swap_time(resonant))
        assert abs(c1) < 1e-12
        assert abs(c2 - (-1j)) < 1e-12

    def test_evolvers_report_the_rotating_frame(self, resonant):
        # Both evolvers report the state of the one frame sector_propagator
        # works in, with no mean-frequency phase.
        t = 0.37
        rot = rotating(resonant, 0, t)
        assert np.array_equal(evolve_closed_form(resonant, 0, t, EXCITED).state.as_vector(), rot)
        assert abs(evolve_numerical(resonant, 0, t, EXCITED).state.as_vector() - rot).max() < 1e-12

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

    def test_exact_off_resonance(self):
        # The closed form holds at any detuning.  Oracle: eigh exponential of
        # the traceless generator, with d from the paper's sector frequencies.
        rng = np.random.default_rng(71)
        for _ in range(50):
            params = random_resonant_params(rng)
            s = abs(derive_couplings(params).s_coupling)
            residual = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 20.0)) * s
            detuned = derive_couplings(dataclasses.replace(params, omega_2=params.omega_2 + residual))
            initial = NodePairState(*random_state(rng, 2))
            t = float(rng.uniform(0.0, 10.0 / s))
            for n in (0, 1):
                varpi_1, varpi_2 = sector_frequencies(detuned, n)
                d = 0.5 * (varpi_1 - varpi_2)
                a = np.array([[d, -detuned.s_coupling], [-np.conj(detuned.s_coupling), -d]])
                expected = propagator_eig_oracle(a, t) @ initial.as_vector()
                got = evolve_closed_form(detuned, n, t, initial).state.as_vector()
                assert abs(got - expected).max() < 1e-12

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
        # The full generator's propagator is the rotating-frame one times the
        # sector's mean-frequency phase.
        rng = np.random.default_rng(17)
        for n in (0, 1):
            h = effective_hamiltonian(tuned, n)
            mean = 0.5 * sum(sector_frequencies(tuned, n))
            for t in rng.uniform(0.0, 5.0, 5):
                expected = np.exp(-1j * mean * t) * propagator_eig_oracle(h, t)
                got = sector_propagator(tuned, n, t)
                assert np.max(np.abs(got - expected)) < 1e-10


class TestTimeArrays:
    @pytest.mark.parametrize("propagator", FRAMES)
    @pytest.mark.parametrize("n", [0, 1])
    def test_propagator_stack_equals_scalar_calls(self, tuned, n, propagator):
        rng = np.random.default_rng(31)
        times = rng.uniform(0.0, 20.0 / abs(tuned.s_coupling), (3, 5))
        stacked = propagator(tuned, n, times)
        scalar = np.stack([propagator(tuned, n, float(x)) for x in times.ravel()])
        assert stacked.shape == (3, 5, 2, 2)
        assert np.array_equal(stacked.reshape(-1, 2, 2), scalar)
        if propagator is lab_propagator:
            h = effective_hamiltonian(tuned, n)
            expected = np.stack([propagator_eig_oracle(h, float(x)) for x in times.ravel()])
            assert np.max(np.abs(scalar - expected)) < 1e-10

    @pytest.mark.parametrize("propagator", FRAMES)
    def test_propagator_stack_without_dynamics(self, propagator):
        # S = 0 and a zero split: the rate k vanishes, each propagator is the
        # identity, times the mean-frequency phase in the lab frame.
        still = DerivedCouplings(
            omega_cap_sigma=0j, omega_1_sigma=0.0, omega_1_pi=0.0, omega_2_sigma=0.0,
            omega_2_pi=0.0, s_coupling=0j, n_atoms_1=3, n_atoms_2=2, omega_1=1.5, omega_2=1.5,
        )
        assert still.varpi_split(0) == still.varpi_split(1) == 0.0
        times = np.linspace(0.0, 4.0, 9)
        for n in (0, 1):
            stacked = propagator(still, n, times)
            scalar = np.stack([propagator(still, n, float(x)) for x in times])
            assert np.array_equal(stacked, scalar)
            if propagator is sector_propagator:
                assert np.array_equal(stacked, np.broadcast_to(np.eye(2), stacked.shape))
            else:
                phase = np.exp(1j * 0.5 * sum(sector_frequencies(still, n)) * times)
                assert np.array_equal(stacked, phase[:, None, None] * np.eye(2))

    def test_angle_that_is_not_finite_rejected(self, tuned):
        # A common shift of the node frequencies leaves every angle as it is,
        # and a huge finite time is fine; in a stack, one time whose rotation
        # angle is not finite is enough.
        far = dataclasses.replace(tuned, omega_1=1e10, omega_2=1e10)
        assert np.all(np.isfinite(sector_propagator(far, 0, np.array([1.0, 1e300]))))
        with pytest.raises(ValueError, match="sector 0 propagator undefined"):
            sector_propagator(far, 0, np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="sector 1 propagator undefined"):
            sector_propagator(far, 1, np.inf)

    def test_closed_form_trajectory_equals_per_sample_products(self, tuned):
        initial = NodePairState(*random_state(np.random.default_rng(37), 2))
        t = 3.0 / abs(tuned.s_coupling)
        for n in (0, 1):
            result = evolve_closed_form(tuned, n, t, initial, samples=50)
            expected = np.stack([
                sector_propagator(tuned, n, ti) @ initial.as_vector() for ti in result.times
            ])
            assert np.array_equal(result.trajectory, expected)

    @pytest.mark.parametrize("samples", [1, 7, 50])
    def test_closed_form_final_state_equals_scalar_call(self, tuned, samples):
        # The final state is the trajectory's last row, equal to the call at t alone.
        initial = NodePairState(*random_state(np.random.default_rng(53), 2))
        t = 3.0 / abs(tuned.s_coupling)
        for n in (0, 1):
            result = evolve_closed_form(tuned, n, t, initial, samples=samples)
            expected = sector_propagator(tuned, n, t) @ initial.as_vector()
            assert np.array_equal(result.state.as_vector(), expected)


def _reference_case(kind):
    """The sqrt(3)-tuned preset detuned by -2|S| (d != 0 in both sectors,
    so kappa(n) = hypot(d, |S|) is not the resonant rate), or with a complex
    g_sigma_2, which makes S complex (and detunes it too).  There A's
    eigenvectors are not the symmetric and antisymmetric node states of the
    tuned case."""
    params = presets.blockade_tuned_params(presets.SQRT3)
    if kind == "off_resonant":
        params = dataclasses.replace(params, omega_2=params.omega_2 - 2.0)
    else:
        params = dataclasses.replace(params, g_sigma_2=complex(params.g_sigma_2, 0.5 * params.g_sigma_2))
    couplings = derive_couplings(params)
    assert couplings.varpi_split(0) != 0.0 and couplings.varpi_split(1) != 0.0
    assert (couplings.s_coupling.imag != 0.0) == (kind == "complex_s")
    return couplings


def _check_against_reference(couplings, n, samples):
    s = abs(couplings.s_coupling)
    step = DEFAULT_STEP_FACTOR / couplings.kappa(n)
    vec = random_state(np.random.default_rng(41), 2)
    for t in (0.0, 0.5 * step, 10.0 * np.pi / s):
        result = evolve_numerical(couplings, n, t, NodePairState(*vec), samples=samples)
        reference = rk4_reference(couplings, n, t, vec, step, samples)
        assert abs(result.state.as_vector() - reference[-1]).max() < 1e-12
        if samples:
            assert result.trajectory.shape == reference.shape
            assert np.max(np.abs(result.trajectory - reference)) < 1e-12
        else:
            assert result.trajectory is None


class TestNumerical:
    @pytest.mark.parametrize("samples", [0, 1, 1000])
    @pytest.mark.parametrize("n", [0, 1])
    def test_matches_step_by_step_reference(self, tuned, n, samples):
        _check_against_reference(tuned, n, samples)

    @pytest.mark.parametrize("samples", [0, 1, 1000])
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", ["off_resonant", "complex_s"])
    def test_eigenbasis_matches_step_by_step_reference(self, kind, n, samples):
        _check_against_reference(_reference_case(kind), n, samples)

    @pytest.mark.parametrize("samples", [1, 2, 3, 5, 8, 1023, 1024, 1025])
    @pytest.mark.parametrize("n", [0, 1])
    def test_scan_edges_match_step_by_step_reference(self, tuned, n, samples):
        # Sample counts around powers of two, where a doubling or blocked
        # product of the segments would change its number of levels.
        s = abs(tuned.s_coupling)
        step = DEFAULT_STEP_FACTOR / tuned.kappa(n)
        vec = random_state(np.random.default_rng(43), 2)
        t = 10.0 * np.pi / s
        expected = rk4_reference(tuned, n, t, vec, step, samples)
        result = evolve_numerical(tuned, n, t, NodePairState(*vec), samples=samples)
        assert result.trajectory.shape == expected.shape
        assert np.max(np.abs(result.trajectory - expected)) < 1e-12
        assert abs(result.state.as_vector() - expected[-1]).max() < 1e-12

    @pytest.mark.parametrize("samples", [0, 1, 64])
    @pytest.mark.parametrize("n, omega_1, omega_1_pi, omega_2", [(0, 2.5, 0.0, 2.5), (1, 0.0, 1.0, 6.0)])
    def test_zero_generator_keeps_the_state(self, n, omega_1, omega_1_pi, omega_2, samples):
        # d = S = 0 in sector n, with Omega_1^(pi) = 0 or 1: a zero generator
        # has zero rate, kappa(n) = 0, and one step covers the time.  The
        # state stays as it is, and k = 0 divides nothing.
        couplings = DerivedCouplings(
            omega_cap_sigma=0j, omega_1_sigma=0.0, omega_1_pi=omega_1_pi, omega_2_sigma=0.0,
            omega_2_pi=0.0, s_coupling=0j, n_atoms_1=4, n_atoms_2=4, omega_1=omega_1, omega_2=omega_2,
        )
        assert couplings.varpi_split(n) == 0.0
        assert couplings.kappa(n) == 0.0
        vec = random_state(np.random.default_rng(61), 2)
        t = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evolve_numerical(couplings, n, t, NodePairState(*vec), samples=samples)
        assert np.array_equal(result.state.as_vector(), vec)
        if samples:
            assert np.array_equal(result.trajectory, np.broadcast_to(vec, (samples + 1, 2)))

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

    def test_peak_of_eigh_propagator_off_resonance(self):
        # Oracle: the generator's eigendecomposition, off resonance with node
        # 2's pi shift and a complex S.  |c2| peaks at a quarter period of
        # the eigen splitting, and a dense scan of one period stays below it.
        rng = np.random.default_rng(29)
        for _ in range(10):
            couplings = derive_couplings(detuned_params(rng))
            h = effective_hamiltonian(couplings, 1)
            lo, hi = np.linalg.eigvalsh(h - np.eye(2) * np.trace(h) / 2.0)
            t_peak = np.pi / (hi - lo)
            peak = abs(propagator_eig_oracle(h, t_peak)[1, 0])
            assert abs(blockade_error(couplings) - peak) < 1e-9
            times = np.linspace(0.0, 2.0 * t_peak, 101)
            assert max(abs(propagator_eig_oracle(h, t)[1, 0]) for t in times) <= peak + 1e-12

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
            stacked = sector_propagator(stack, n, t)
            assert stacked.shape == (len(ratios), 2, 2)
            assert np.array_equal(stacked, [sector_propagator(c, n, t) for c in singles])

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

    @pytest.mark.parametrize("case", range(4))
    def test_retuned_sets_are_resonant(self, case):
        # Oracle: the eigendecomposition of each retuned set's generator.
        # Whatever node 2's pi shift, S's phase and the detuning of omega_2,
        # the photon-free sector swaps fully at swap_time, and at the sqrt(3)
        # ratio the one-photon sector returns.
        if case == 0:  # |S| = 1 and g_pi_2 = 5, far from the presets
            params = dataclasses.replace(presets.blockade_tuned_params(presets.SQRT3), g_pi_2=5.0)
        else:
            params = detuned_params(np.random.default_rng(83 + case))
        ratios = [0.0, 0.5, 1.0, presets.SQRT3, 3.0, 10.0]
        stack = presets.rescaled_couplings(params, ratios)
        t = swap_time(stack)
        propagators = [sector_propagator(stack, n, t) for n in (0, 1)]
        for i, ratio in enumerate(ratios):
            single = dataclasses.replace(stack, omega_1_pi=stack.omega_1_pi[i], omega_2=stack.omega_2[i])
            for n in (0, 1) if ratio == presets.SQRT3 else (0,):
                expected = 0.0 if n else 1.0
                oracle = propagator_eig_oracle(effective_hamiltonian(single, n), t)
                assert abs(abs(oracle[1, 0]) - expected) <= 1e-12
                assert abs(abs(propagators[n][i, 1, 0]) - expected) <= 1e-12

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
        assert np.array_equal(m[:2, :2], sector_propagator(tuned, 0, t))
        assert np.array_equal(m[2:, :2], np.zeros((2, 2)))
        # The one-photon block is sector_propagator up to the one phase
        # between the sectors, which TestGateExtraction checks against eigh.
        core1 = sector_propagator(tuned, 1, t)
        rel_phase = m[2, 2] / core1[0, 0]
        assert abs(abs(rel_phase) - 1.0) < 1e-15
        assert np.allclose(m[2:, 2:], rel_phase * core1, rtol=0.0, atol=1e-15)

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
            u = sector_propagator(couplings, 0, t)
            assert phase_distance(u, restrict_to_logical(iswap(-2.0 * s_t))) < 1e-11
            assert phase_distance(u, restrict_to_logical(iswap(-s_t))) > 0.1

    # 1e-311 is nonzero, but pi/(2|S|) overflows.
    @pytest.mark.parametrize("s", [0.0, np.inf, np.nan, 1e-311])
    def test_rejects_zero_or_non_finite_coupling(self, s):
        couplings = dataclasses.replace(
            derive_couplings(presets.blockade_tuned_params(1.0)), s_coupling=complex(s))
        with pytest.raises(ValueError, match="finite and nonzero"):
            swap_time(couplings)


def _drift_cases():
    rng = np.random.default_rng(29)
    return ([presets.reference_params(), presets.blockade_tuned_params(presets.SQRT3)]
            + [random_resonant_params(rng) for _ in range(30)])


class TestFrequencyDriftImmunity:
    """The n=0 swap sees the node frequencies only through the resonance
    residual, so a drift common to both nodes costs nothing and a
    differential one is not rejected at all (``dynamics`` docstring)."""

    @staticmethod
    def swap_miss(params, drift_1: float, drift_2: float) -> float:
        """``1 - |c2|^2`` of the n=0 swap from node 1 at the swap time of
        ``params``, with ``omega_1`` and ``omega_2`` moved by ``drift_1``
        and ``drift_2`` times ``|S|``."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # reference_params is outside the dispersive window
            couplings = derive_couplings(params)
            s = abs(couplings.s_coupling)
            drifted = derive_couplings(dataclasses.replace(
                params, omega_1=params.omega_1 + drift_1 * s, omega_2=params.omega_2 + drift_2 * s))
        u = sector_propagator(drifted, 0, swap_time(couplings))
        return float(1.0 - abs(u[1, 0]) ** 2)

    @pytest.mark.parametrize("drift", [0.02, 1.0, 100.0])
    def test_common_mode_drift_costs_nothing(self, drift):
        for params in _drift_cases():
            assert abs(self.swap_miss(params, drift, drift)) <= 1e-15

    def test_differential_drift_is_not_rejected(self):
        # A residual of 0.02|S| detunes the swap by d = 0.01|S|, a miss of
        # about (d/|S|)^2 = 1e-4: the whole fault-tolerance budget.
        for params in _drift_cases():
            assert abs(self.swap_miss(params, 0.0, 0.02) - 1.0e-4) <= 0.01 * 1.0e-4


class TestGateExtraction:
    # The oracle forms each sector's lab-frame phase itself, so its own
    # rounding grows as eps |mean_0 t|: about 1e-13 at N1 + N2 <= 109,
    # 1.8e-12 at N1 = N2 = 100 (|mean_0 t| = 1.3e4 rad) and 4.2e-8 at
    # N1 = N2 = 10^4 (1.4e8 rad).  A wrong phase between the sectors, say
    # N1 Omega_1^(pi) t for (N1 - 1) Omega_1^(pi) t, moves the gate by ~1.
    @pytest.mark.parametrize("n_atoms_1, n_atoms_2, omega_1, tol", [
        (1, 1, 0.0, 1e-12), (4, 4, 0.3, 1e-12), (3, 7, -2.0, 1e-12), (2, 100, 0.3, 1e-12),
        (100, 9, -2.0, 1e-12), (100, 100, 0.0, 1e-11), (10**4, 10**4, 0.3, 1e-7),
    ])
    def test_phase_between_sectors_matches_eigh(self, n_atoms_1, n_atoms_2, omega_1, tol):
        # Oracle: each sector's lab-frame block is the eigh exponential of
        # the full generator on the paper's sector frequencies; with the
        # photon-free sector's mean phase divided out, the two blocks are the
        # extracted gate, the phase between the sectors included.
        couplings = derive_couplings(presets.blockade_tuned_params(
            presets.SQRT3, n_atoms_1=n_atoms_1, n_atoms_2=n_atoms_2, omega_1=omega_1))
        t = swap_time(couplings)
        expected = np.zeros((4, 4), dtype=complex)
        for n in (0, 1):
            expected[2 * n:2 * n + 2, 2 * n:2 * n + 2] = propagator_eig_oracle(
                effective_hamiltonian(couplings, n), t)
        expected *= np.exp(-1j * 0.5 * sum(sector_frequencies(couplings, 0)) * t)
        assert np.abs(extract_controlled_iswap(couplings).matrix - expected).max() < tol

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
