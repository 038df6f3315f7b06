"""Closed-form error budget on scalars and on arrays of sweep values."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ensembleqc import presets
from ensembleqc.decoherence import DecoherenceParams, fault_tolerance_margin, iswap_fidelity
from helpers import fidelity_product_reference, fidelity_row_reference

REF = presets.reference_decoherence()


def test_scalar_calls_return_floats():
    for fn in (iswap_fidelity, fault_tolerance_margin):
        value = fn(REF, 1e-8)
        assert type(value) is float
        assert value == fidelity_row_reference(REF.gamma_atomic, REF.gamma_cavity, REF.delta,
                                               1e-8)[fn is fault_tolerance_margin]


def test_arrays_broadcast_and_equal_scalar_calls():
    gammas = np.array([0.0, 10.0, 1250.0])
    times = np.array([[0.0], [1e-8], [3e-7]])
    d = DecoherenceParams(gamma_atomic=gammas, gamma_cavity=REF.gamma_cavity, delta=REF.delta)
    for fn in (iswap_fidelity, fault_tolerance_margin):
        got = fn(d, times)
        assert got.shape == (3, 3)
        expected = [[fn(DecoherenceParams(g, REF.gamma_cavity, REF.delta), float(t)) for g in gammas]
                    for t in times[:, 0]]
        assert np.array_equal(got, expected)


def test_arrays_equal_scalar_reference_at_scale():
    # The square by array ** 2 differs from the scalar ** in ~0.06% of values.
    rng = np.random.default_rng(59)
    gamma_c = 10.0 ** rng.uniform(0.0, 9.0, 20_000)
    times = 10.0 ** rng.uniform(-10.0, -5.0, 20_000)
    d = DecoherenceParams(gamma_atomic=REF.gamma_atomic, gamma_cavity=gamma_c, delta=REF.delta)
    expected = np.array([fidelity_row_reference(REF.gamma_atomic, g, REF.delta, t)
                         for g, t in zip(gamma_c.tolist(), times.tolist())])
    assert np.array_equal(iswap_fidelity(d, times), expected[:, 0])
    assert np.array_equal(fault_tolerance_margin(d, times), expected[:, 1])


def test_no_loss_gives_unit_fidelity():
    d = DecoherenceParams(gamma_atomic=np.zeros(4), gamma_cavity=0.0, delta=1.0)
    assert np.array_equal(iswap_fidelity(d, np.linspace(0.0, 1.0, 4)), np.ones(4))


@pytest.mark.parametrize("fields, message", [
    ({"gamma_atomic": np.array([0.0, -1.0])}, "relaxation rates must be nonnegative"),
    ({"gamma_cavity": np.array([1.0, -0.5])}, "relaxation rates must be nonnegative"),
    ({"delta": np.array([1.0, 0.0])}, "delta must be positive"),
    ({"gamma_atomic": np.array([0.0, np.inf])}, "gamma_atomic must be finite"),
    ({"gamma_cavity": -1.0}, "relaxation rates must be nonnegative"),
])
def test_every_value_is_checked(fields, message):
    with pytest.raises(ValueError, match=message):
        DecoherenceParams(**{"gamma_atomic": 0.0, "gamma_cavity": 0.0, "delta": 1.0, **fields})


@pytest.mark.parametrize("fn", [iswap_fidelity, fault_tolerance_margin])
def test_negative_time_rejected(fn):
    for t in (np.array([1e-8, -1e-9]), -1e-9, -np.inf, np.array([np.nan, -np.inf])):
        with pytest.raises(ValueError, match="gate time must be nonnegative"):
            fn(REF, t)


@pytest.mark.parametrize("fn", [iswap_fidelity, fault_tolerance_margin])
@pytest.mark.parametrize("gamma_atomic", [REF.gamma_atomic, 0.0])
@pytest.mark.parametrize("t", [np.nan, np.inf, np.array([1e-8, np.nan]), np.array([[np.inf], [1e-8]])])
def test_time_that_is_not_finite_rejected(fn, gamma_atomic, t):
    # With gamma_atomic = 0, t = inf once gave 0 * inf = NaN as the fidelity.
    d = dataclasses.replace(REF, gamma_atomic=gamma_atomic)
    with pytest.raises(ValueError, match="gate time must be finite"):
        fn(d, t)


def test_overflow_is_silent_and_signed():
    with np.errstate(all="raise"):  # no floating-point warning escapes
        margin = fault_tolerance_margin(REF, np.array([1e-8, 1e308]))
        fidelity = iswap_fidelity(REF, np.array([1e-8, 1e308]))
    assert margin[1] == -np.inf and fidelity[1] == 0.0


def test_heavy_cavity_loss_tends_to_a_quarter_of_the_atomic_decay():
    # Past ~452 Delta the paper's cosh^2(x/2) overflows, and past ~474 Delta its
    # exp(-2 Gamma t - x) underflows to 0; the one form, exp(-2 Gamma t)
    # ((1 + e^-x) / 2)^2, stays finite, falls with gamma and meets exp(-2 Gamma t) / 4.
    gamma_c = np.concatenate([np.linspace(440.0, 480.0, 81) * REF.delta,
                              np.geomspace(481.0 * REF.delta, 1e300, 200)])
    d = DecoherenceParams(REF.gamma_atomic, gamma_c, REF.delta)
    with np.errstate(all="raise"):
        fidelity = iswap_fidelity(d, 1e-8)
    assert np.all(np.isfinite(fidelity))
    assert np.all((fidelity >= 0.0) & (fidelity <= 1.0))
    assert np.all(np.diff(fidelity[gamma_c >= 452.0 * REF.delta]) <= 0.0)
    decay = math.exp(-2.0 * REF.gamma_atomic * 1e-8)
    x = np.pi * gamma_c / (2.0 * REF.delta)
    assert np.allclose(fidelity, decay * ((1.0 + np.exp(-x)) / 2.0) ** 2, rtol=1e-12, atol=0.0)
    assert fidelity[-1] == decay / 4.0
    assert [iswap_fidelity(DecoherenceParams(REF.gamma_atomic, g, REF.delta), 1e-8)
            for g in gamma_c.tolist()] == fidelity.tolist()


@pytest.mark.parametrize("gamma_cavity", [0.0, 1.0, 60.0, 1e300])
def test_large_atomic_decay_keeps_its_digits(gamma_cavity):
    # 2 Gamma t = 700: exp(-700 - x) underflows for x = 30 pi while the fidelity,
    # ~1e-305, is a normal float.
    d = DecoherenceParams(gamma_atomic=350.0, gamma_cavity=gamma_cavity, delta=0.5)
    x = math.pi * gamma_cavity
    expected = math.exp(-700.0) * ((1.0 + math.exp(-x)) / 2.0) ** 2
    assert math.isclose(iswap_fidelity(d, 1.0), expected, rel_tol=1e-12)


@given(delta=st.floats(1e-3, 1e12), loss=st.floats(0.0, 460.0), spent=st.floats(0.0, 710.0),
       t=st.floats(1e-12, 1.0))
@settings(max_examples=500, deadline=None)
def test_equals_the_papers_product(delta, loss, spent, t):
    # gamma = loss Delta up to ~450 Delta, where cosh^2(x/2) overflows, and
    # 2 Gamma t = spent up to where exp(-2 Gamma t - x) underflows.
    gamma_atomic, gamma_cavity = spent / (2.0 * t), loss * delta
    expected = fidelity_product_reference(gamma_atomic, gamma_cavity, delta, t)
    assume(not math.isnan(expected))
    got = iswap_fidelity(DecoherenceParams(gamma_atomic, gamma_cavity, delta), t)
    assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=0.0)
