import dataclasses
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc import physical, presets
from ensembleqc.physical import (
    MAX_JSON_DEPTH,
    DispersiveRegimeWarning,
    PhysicalParams,
    _json_loads,
    _intra_node_shift,
    check_interference_condition,
    derive_couplings,
)
from helpers import effective_hamiltonian, json_depth_reference, random_resonant_params, sector_frequencies


def make_params(**overrides) -> PhysicalParams:
    base = dict(
        n_atoms_1=4,
        n_atoms_2=4,
        g_sigma_1=1.0,
        g_sigma_2=1.0,
        g_pi_1=2.0,
        g_pi_2=0.0,
        omega_1=0.0,
        omega_2=-5.0,
        delta_sigma_1=50.0,
        delta_sigma_2=50.0,
        delta_pi_1=-50.0,
        delta_pi_2=-50.0,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestParamsValidation:
    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="delta_pi_1"):
            make_params(delta_pi_1=0.0)

    def test_atom_counts_must_be_positive_integers(self):
        with pytest.raises(ValueError, match="n_atoms_1"):
            make_params(n_atoms_1=0)
        with pytest.raises(ValueError, match="n_atoms_2"):
            make_params(n_atoms_2=2.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_params(omega_1=np.inf)

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(PhysicalParams) if not f.name.startswith("n_atoms")
    ])
    def test_non_finite_real_or_imaginary_part_rejected(self, field):
        for bad in (np.nan, np.inf, -np.inf):
            for value in (bad, complex(bad, 0.0), complex(1.0, bad), complex(bad, bad)):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    make_params(**{field: value})

    @pytest.mark.parametrize("field", ["g_sigma_1", "g_sigma_2", "g_pi_1", "g_pi_2"])
    def test_coupling_whose_modulus_overflows_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_params(**{field: complex(1.3e308, -1.3e308)})
        # A modulus just below overflow is accepted.
        make_params(**{field: complex(1e308, 1e308)})

    def test_fields_are_the_twelve_the_model_reads(self):
        names = ["n_atoms_1", "n_atoms_2", "g_sigma_1", "g_sigma_2", "g_pi_1", "g_pi_2",
                 "omega_1", "omega_2", "delta_sigma_1", "delta_sigma_2", "delta_pi_1",
                 "delta_pi_2"]
        assert [f.name for f in dataclasses.fields(PhysicalParams)] == names
        assert sorted(json.loads(make_params().to_json())) == sorted(names)

    def test_json_round_trip(self):
        params = make_params(g_sigma_1=1.0 + 0.25j)
        recovered = PhysicalParams.from_json(params.to_json())
        assert recovered == params

    @pytest.mark.parametrize("field, value", [
        ("n_atoms_1", 2.7),  # rejected, not truncated to 2
        ("n_atoms_2", 10**20),  # beyond what float64 holds exactly
        ("g_sigma_1", "1"),
        ("g_pi_1", [1.0]),
        ("omega_1", None),
        # A bool is not a JSON number, and only couplings may be pairs.
        ("g_pi_2", False),
        ("n_atoms_1", True),
        ("g_sigma_1", [True, False]),
        ("g_sigma_1", [1.0, "0"]),
        ("omega_1", [1.0, 0.0]),
    ])
    def test_from_json_rejects_malformed_field(self, field, value):
        raw = json.loads(make_params().to_json())
        raw[field] = value
        with pytest.raises(ValueError, match=field):
            PhysicalParams.from_json(json.dumps(raw))

    def test_from_json_rejects_too_deep_nesting(self):
        with pytest.raises(ValueError, match="too deep"):
            PhysicalParams.from_json("[" * 10**5 + "]" * 10**5)

    def test_json_nesting_limit(self):
        at_limit = "[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH
        assert _json_loads(at_limit) == json.loads(at_limit)
        objects = '{"a": ' * MAX_JSON_DEPTH + "0" + "}" * MAX_JSON_DEPTH
        assert _json_loads(objects) == json.loads(objects)
        for deeper in ("[" + at_limit + "]", '{"a": ' + at_limit + "}", "[" + at_limit):
            with pytest.raises(ValueError, match=f"too deep \\(more than {MAX_JSON_DEPTH} levels\\)"):
                _json_loads(deeper)
        # Brackets in strings, after escaped quotes too, are not nesting.
        text = json.dumps(['\\"[{' * MAX_JSON_DEPTH, {"[" * MAX_JSON_DEPTH: at_limit}])
        assert _json_loads(text) == json.loads(text)

    # Strings full of brackets, quotes, backslashes and non-ASCII text.
    @given(value=st.recursive(
        st.none() | st.floats(allow_nan=False) | st.text('[]{}"\\ \u00e9\u2603'),
        lambda members: st.lists(members) | st.dictionaries(st.text('[]{}"\\'), members)),
        ensure_ascii=st.booleans(), limit=st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_json_nesting_limit_matches_reference_depth(self, value, ensure_ascii, limit):
        text = json.dumps(value, ensure_ascii=ensure_ascii)
        with mock.patch.object(physical, "MAX_JSON_DEPTH", limit):
            if json_depth_reference(value) > limit:
                with pytest.raises(ValueError, match="too deep"):
                    _json_loads(text)
            else:
                assert _json_loads(text) == value

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_from_dict_inverts_to_dict(self, data):
        # Integer-valued floats stay floats, JSON integers in float fields
        # are taken as they are, and a coupling's [re, -0.0] pair keeps the
        # sign of its zero.
        real = (st.floats(-1e300, 1e300, allow_nan=False)
                | st.integers(-10**6, 10**6).map(float) | st.integers(-10**6, 10**6))
        nonzero = real.filter(bool)
        coupling = real | st.builds(complex, real, real) | st.builds(complex, real, st.just(-0.0))
        couplings = ("g_sigma_1", "g_sigma_2", "g_pi_1", "g_pi_2")
        params = PhysicalParams(
            n_atoms_1=data.draw(st.integers(1, 2**53)), n_atoms_2=data.draw(st.integers(1, 2**53)),
            **{name: data.draw(coupling) for name in couplings},
            omega_1=data.draw(real), omega_2=data.draw(real),
            **{name: data.draw(nonzero)
               for name in ("delta_sigma_1", "delta_sigma_2", "delta_pi_1", "delta_pi_2")})
        assert PhysicalParams.from_dict(json.loads(params.to_json())) == params
        pairs = {name: [complex(getattr(params, name)).real, complex(getattr(params, name)).imag]
                 for name in couplings}
        recovered = PhysicalParams.from_dict({**params.to_dict(), **pairs})
        assert recovered == params
        for name, (re, im) in pairs.items():
            value = getattr(recovered, name)
            assert math.copysign(1.0, value.imag) == math.copysign(1.0, im)
            assert math.copysign(1.0, value.real) == math.copysign(1.0, re)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            PhysicalParams.from_json("3")


class TestDeriveCouplings:
    def test_coupling_off_forces_zero(self):
        couplings = derive_couplings(make_params(g_sigma_1=0.0, g_pi_1=0.0))
        assert couplings.omega_cap_sigma == 0.0
        assert couplings.s_coupling == 0.0
        assert couplings.kappa(0) == 0.0

    @pytest.mark.parametrize("overrides", [
        {"g_sigma_1": 0.0, "delta_sigma_2": 1e-310},  # 0 * inf
        {"delta_sigma_1": 1e-310, "delta_sigma_2": -1e-310},  # inf - inf
    ])
    def test_nan_exchange_rate_rejected(self, overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DispersiveRegimeWarning)
            with pytest.raises(ValueError, match="undefined"):
                derive_couplings(make_params(**overrides))

    @pytest.mark.parametrize("overrides", [
        # Finite parts whose modulus overflows: complex abs() would raise.
        {"n_atoms_1": 1, "n_atoms_2": 1, "g_sigma_1": 1.2e308, "g_sigma_2": 1 + 1j,
         "delta_sigma_1": 0.909, "delta_sigma_2": 0.909},
        # An exchange rate of inf+infj, which makes S nan+nanj.
        {"g_sigma_1": 1e300 + 1e300j, "delta_sigma_1": 1e-300},
    ])
    def test_swap_coupling_without_a_float_modulus_rejected(self, overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DispersiveRegimeWarning)
            with pytest.raises(ValueError, match="has a NaN part or an overflowing modulus"):
                derive_couplings(make_params(**overrides))

    def test_sqrt3_tuning_gives_kappa_two_s(self):
        couplings = derive_couplings(presets.blockade_tuned_params(presets.SQRT3))
        s = abs(couplings.s_coupling)
        assert abs(couplings.kappa(1) - 2.0 * s) < 1e-12 * s
        assert couplings.kappa(0) == s

    def test_shift_signs_follow_detunings(self):
        couplings = derive_couplings(make_params())
        assert couplings.omega_1_sigma > 0  # positive detuning
        assert couplings.omega_1_pi < 0  # negative detuning
        assert couplings.omega_2_pi == 0.0  # uncoupled mode

    def test_scale_consistency_is_exact(self):
        params = make_params(g_pi_2=0.5)
        scaled = dataclasses.replace(
            params,
            g_sigma_1=2.0 * params.g_sigma_1,
            g_sigma_2=2.0 * params.g_sigma_2,
            g_pi_1=2.0 * params.g_pi_1,
            g_pi_2=2.0 * params.g_pi_2,
        )
        a, b = derive_couplings(params), derive_couplings(scaled)
        # powers of two keep float multiplication exact
        assert b.omega_cap_sigma == 4.0 * a.omega_cap_sigma
        assert b.omega_1_sigma == 4.0 * a.omega_1_sigma
        assert b.omega_1_pi == 4.0 * a.omega_1_pi
        assert b.omega_2_sigma == 4.0 * a.omega_2_sigma
        assert b.omega_2_pi == 4.0 * a.omega_2_pi
        assert b.s_coupling == 4.0 * a.s_coupling

    def test_shift_of_an_array_equals_scalar_arithmetic(self):
        # Array ** 2 and np.abs of complex values round differently from the
        # scalar ** and abs in some 0.1% and 40% of cases; the shift must not.
        rng = np.random.default_rng(53)
        g = rng.normal(size=20_000) * 10.0 ** rng.uniform(-8.0, 8.0, 20_000)
        g = g + 1j * np.where(rng.random(20_000) < 0.5, 0.0, g * rng.normal(size=20_000))
        delta = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-4.0, 9.0, 20_000)
        expected = [abs(complex(gi)) ** 2 / di for gi, di in zip(g.tolist(), delta.tolist())]
        assert np.array_equal(_intra_node_shift(g, delta), expected)
        assert np.array_equal(_intra_node_shift(g.real, delta),
                              [abs(gi) ** 2 / di for gi, di in zip(g.real.tolist(), delta.tolist())])

    @pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
    @pytest.mark.parametrize("field, value, shift", [
        ("g_sigma_1", 1e200, "omega_1_sigma"),
        ("g_pi_1", complex(1e200, 1.0), "omega_1_pi"),
        ("delta_pi_2", 1e-320, "omega_2_pi"),
    ])
    def test_overflowing_shift_is_inf_without_a_warning(self, field, value, shift):
        # |g|^2 or the division overflows; float arithmetic gives inf, and so
        # does the shift, without a numpy warning.
        params = make_params(**{field: value, "g_pi_2": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            couplings = derive_couplings(params)
        assert abs(getattr(couplings, shift)) == np.inf

    def test_dispersive_violation_warns_not_raises(self):
        bad = make_params(g_pi_1=40.0)  # |g/Delta| = 0.8
        with pytest.warns(DispersiveRegimeWarning, match="pi_1"):
            derive_couplings(bad)

    def test_compliant_set_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derive_couplings(presets.blockade_tuned_params(1.0))

    def test_kappa_rejects_bad_sector(self):
        couplings = derive_couplings(make_params())
        with pytest.raises(ValueError, match="sector"):
            couplings.kappa(2)


class TestReferenceScale:
    def test_detuning_magnitude_from_timing_inversion(self):
        # Oracle: invert t = pi Delta / (2 N g^2) at t = 1e-8 s.
        n, g, t = 10_000, 1.0e6, 1.0e-8
        delta_expected = 2.0 * n * g**2 * t / np.pi
        params = presets.reference_params()
        assert abs(params.delta_sigma_1 - delta_expected) < 1e-3
        assert 1e7 < params.delta_sigma_1 < 1e8  # ~6e7 rad/s
        with pytest.warns(DispersiveRegimeWarning):
            couplings = derive_couplings(params)
        t_back = np.pi / (2.0 * n * abs(couplings.omega_cap_sigma))
        assert abs(t_back - t) < 1e-12 * t

    def test_sigma_channel_is_dispersive(self):
        ratios = presets.reference_params().dispersive_ratios()
        assert ratios["sigma_1"] < 0.1 and ratios["sigma_2"] < 0.1


class TestResonanceCondition:
    def test_symmetric_construction_has_zero_residual(self):
        # omega_1 = omega_2 and N1*(O1s + O1p) = N2*O2s: with the pi coupling
        # off and equal sigma channels the condition holds identically.
        params = make_params(g_pi_1=0.0, omega_2=0.0)
        couplings = derive_couplings(params)
        assert couplings.resonance_residual() == 0.0

    def test_exact_cancellation(self):
        # Engineer omega_2 - omega_1 = 1 against N2 O2s - N1 O1 = -1.
        params = make_params(g_pi_1=0.0, omega_2=1.0)
        couplings = derive_couplings(params)
        n1o1 = params.n_atoms_1 * couplings.omega_1_sigma
        n2o2 = params.n_atoms_2 * couplings.omega_2_sigma
        assert n2o2 - n1o1 == 0.0  # symmetric sigma channels
        shifted = dataclasses.replace(params, omega_1=params.omega_1 + 1.0, omega_2=params.omega_2)
        couplings = derive_couplings(shifted)
        # omega_2 - omega_1 = 0, sigma terms cancel, residual 0 by symmetry
        residual = couplings.resonance_residual()
        assert residual == 0.0

    def test_violation_reports_signed_residual(self):
        params = presets.blockade_tuned_params(1.0)
        bumped = dataclasses.replace(params, omega_2=params.omega_2 + 3.5)
        couplings = derive_couplings(bumped)
        assert abs(couplings.resonance_residual() - 3.5) < 1e-12

    def test_presets_satisfy_condition(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = random_resonant_params(rng)
            couplings = derive_couplings(params)
            scale = abs(couplings.s_coupling)
            assert abs(couplings.resonance_residual()) < 1e-10 * scale


class TestInterferenceCondition:
    def test_exact_cancellation(self):
        r1, r2 = check_interference_condition(
            make_params(delta_sigma_1=5e7, delta_pi_1=-5e7)
        )
        assert r1 == 0.0

    def test_arithmetic_residual(self):
        r1, _ = check_interference_condition(
            make_params(delta_sigma_1=5e7, delta_pi_1=-4e7)
        )
        assert r1 == 1e7

    def test_both_nodes_satisfied(self):
        residuals = check_interference_condition(presets.blockade_tuned_params(2.0))
        assert residuals == (0.0, 0.0)


class TestEffectiveHamiltonian:
    def test_hermitian(self):
        params = make_params(g_sigma_1=0.8 + 0.3j)
        couplings = derive_couplings(params)
        for n in (0, 1):
            h = effective_hamiltonian(couplings, n)
            scale = np.max(np.abs(h))
            assert np.max(np.abs(h - h.conj().T)) < 1e-12 * scale

    def test_decoupled_when_s_is_zero(self):
        couplings = derive_couplings(make_params(g_sigma_1=0.0))
        h = effective_hamiltonian(couplings, 0)
        assert h[0, 1] == 0.0 and h[1, 0] == 0.0

    def test_eigen_splitting_matches_kappa(self):
        # Oracle: numpy eigendecomposition of the generator.
        rng = np.random.default_rng(5)
        for _ in range(25):
            params = random_resonant_params(rng)
            couplings = derive_couplings(params)
            for n in (0, 1):
                h = effective_hamiltonian(couplings, n)
                h = h - np.eye(2) * np.trace(h) / 2.0
                lo, hi = np.linalg.eigvalsh(h)
                assert abs((hi - lo) / 2.0 - couplings.kappa(n)) < 1e-10 * max(
                    couplings.kappa(n), 1.0
                )

    def test_splitting_values_on_resonance(self):
        # n = 0 resonant: splitting 2|S|; n = 1 at sqrt(3): splitting 4|S|.
        couplings = derive_couplings(presets.blockade_tuned_params(presets.SQRT3))
        s = abs(couplings.s_coupling)
        h0 = effective_hamiltonian(couplings, 0)
        h0 -= np.eye(2) * np.trace(h0) / 2.0
        lo, hi = np.linalg.eigvalsh(h0)
        assert abs((hi - lo) - 2.0 * s) < 1e-10
        h1 = effective_hamiltonian(couplings, 1)
        h1 -= np.eye(2) * np.trace(h1) / 2.0
        lo, hi = np.linalg.eigvalsh(h1)
        assert abs((hi - lo) - 4.0 * s) < 1e-10

    def test_stable_split_matches_direct_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            couplings = derive_couplings(random_resonant_params(rng))
            for n in (0, 1):
                varpi_1, varpi_2 = sector_frequencies(couplings, n)
                direct = 0.5 * (varpi_1 - varpi_2)
                assert abs(couplings.varpi_split(n) - direct) < 1e-9
