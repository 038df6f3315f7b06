"""The presets: one retune rule builds them and ``rescaled_couplings``, and
``blockade_tuned_params`` names a bad argument before any arithmetic."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensembleqc import presets
from ensembleqc.physical import DerivedCouplings, DispersiveRegimeWarning, derive_couplings
from helpers import rescaled_params_reference


def assert_one_retune_rule(params, ratio):
    """``params``, built at blockade ratio ``ratio``, is a fixed point of the
    scalar retune oracle, and its derived couplings are element 0 of its
    couplings rescaled to ``[ratio]``, bit for bit."""
    assert rescaled_params_reference(params, ratio) == params
    derived = derive_couplings(params)
    stack = presets.rescaled_couplings(params, [ratio])
    for field in dataclasses.fields(DerivedCouplings):
        value = getattr(stack, field.name)
        assert np.array_equal(getattr(derived, field.name), value[0] if np.ndim(value) else value), \
            field.name


@pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
class TestOneRetuneRule:
    def test_reference_params(self):
        assert_one_retune_rule(presets.reference_params(), presets.SQRT3)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, presets.SQRT3, 10.0])
    def test_default_tuned_params(self, ratio):
        assert_one_retune_rule(presets.blockade_tuned_params(ratio), ratio)

    # The ranges of the benchmark's tuned presets, at any ratio up to 10.
    @given(ratio=st.floats(0.0, 10.0), s_coupling=st.floats(1e6, 1e9),
           n_atoms_1=st.integers(1, 10_000), n_atoms_2=st.integers(1, 10_000),
           omega_1=st.floats(-5e3, 5e3), dispersive_margin=st.floats(100.0, 400.0))
    @settings(max_examples=200, deadline=None)
    def test_tuned_params(self, ratio, **spec):
        assert_one_retune_rule(presets.blockade_tuned_params(ratio, **spec), ratio)

    def test_resonance_is_exact_at_the_reference_point(self):
        with pytest.warns(DispersiveRegimeWarning):
            couplings = derive_couplings(presets.reference_params())
        assert couplings.resonance_residual() == 0.0


def test_constructors_emit_no_warning():
    # The sigma-channel set a preset is retuned from is not the caller's:
    # at this small margin its |g/Delta| is about 0.32, past the threshold.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        presets.reference_params()
        presets.blockade_tuned_params(1.0, n_atoms_1=1, dispersive_margin=10.0)
    assert caught == []


@pytest.mark.parametrize("kwargs, name", [
    ({"n_atoms_1": 2.5}, "n_atoms_1"),  # not truncated to 2
    ({"n_atoms_1": 0}, "n_atoms_1"),
    ({"n_atoms_2": 2.5}, "n_atoms_2"),
    ({"n_atoms_2": 0}, "n_atoms_2"),
    ({"s_coupling": 0.0}, "s_coupling"),
    ({"s_coupling": math.nan}, "s_coupling"),
    ({"s_coupling": math.inf}, "s_coupling"),
    ({"dispersive_margin": -1.0}, "dispersive_margin"),
    ({"dispersive_margin": 0.0}, "dispersive_margin"),
    ({"dispersive_margin": math.nan}, "dispersive_margin"),
    ({"dispersive_margin": math.inf}, "dispersive_margin"),
])
def test_bad_argument_is_named_before_any_warning(kwargs, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{name} must be"):
            presets.blockade_tuned_params(presets.SQRT3, **kwargs)
    assert caught == []


def test_largest_atom_count_is_accepted():
    params = presets.blockade_tuned_params(1.0, n_atoms_1=2**53)
    assert params.n_atoms_1 == params.n_atoms_2 == 2**53
    assert_one_retune_rule(params, 1.0)
