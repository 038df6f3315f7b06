"""Closed-form fidelity of the swap gate family under atomic phase
relaxation and cavity losses, plus the fault-tolerance margin.

No open-system simulation happens here: the module evaluates the analytic
expressions only.  The detuning entering the fidelity is identified with the
shared-cavity detuning and exposed as an explicit parameter so the
identification stays revisable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAULT_TOLERANCE_BUDGET = 1e-4


@dataclass(frozen=True)
class DecoherenceParams:
    """Relaxation constants, all angular rad/s.

    gamma_atomic : atomic phase relaxation rate.
    gamma_cavity : cavity loss rate.
    delta        : detuning entering the loss exponent (> 0).

    A field may hold a float array, one value per point of a sweep; each
    check then holds for every value, and the functions below return arrays
    of the broadcast shape of the fields and the gate time.
    """

    gamma_atomic: float | np.ndarray
    gamma_cavity: float | np.ndarray
    delta: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.less(self.gamma_atomic, 0.0)) or np.any(np.less(self.gamma_cavity, 0.0)):
            raise ValueError("relaxation rates must be nonnegative")
        if not np.all(np.greater(self.delta, 0.0)):
            raise ValueError("delta must be positive")
        for name in ("gamma_atomic", "gamma_cavity", "delta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


def _check_time(t) -> None:
    if np.any(np.less(t, 0.0)):
        raise ValueError("gate time must be nonnegative")


def _spent(d: DecoherenceParams, t) -> tuple:
    """The two parts of the spent error budget, ``2 Gamma t`` and
    ``pi gamma / (2 Delta)``.  Overflow gives inf without a warning, as it
    does in scalar float arithmetic."""
    with np.errstate(over="ignore"):
        return 2.0 * d.gamma_atomic * t, np.pi * d.gamma_cavity / (2.0 * d.delta)


def iswap_fidelity(d: DecoherenceParams, t: float | np.ndarray) -> float | np.ndarray:
    """Swap-gate fidelity
    ``exp(-2 Gamma t - pi gamma / (2 Delta)) * cosh^2(pi gamma / (4 Delta))``.

    Parameters
    ----------
    d : DecoherenceParams
        Relaxation constants, scalars or arrays.
    t : float or array
        Gate duration in seconds, >= 0.

    Returns
    -------
    float or array
        Fidelity in [0, 1]; exactly 1 with both rates zero.  A float when
        ``d`` and ``t`` are scalars, else an array of their broadcast shape,
        each element equal bit for bit to the scalar call.

    Where the exponential falls below the smallest normal float or the
    ``cosh^2`` overflows (``gamma`` above ~450 ``Delta``), the product would
    lose its digits or give inf or NaN; there the value is the same
    expression rewritten as ``exp(-2 Gamma t) ((1 + exp(-x)) / 2)^2`` with
    ``x = pi gamma / (2 Delta)``, which tends to ``exp(-2 Gamma t) / 4``.
    """
    _check_time(t)
    atomic, cavity = _spent(d, t)
    # Both forms are evaluated everywhere; the product's overflow, and its
    # 0 * inf where both ends fail, are the elements the rewrite replaces.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        half_loss = np.pi * d.gamma_cavity / (4.0 * d.delta)
        decay = np.exp(-atomic - cavity)
        # float_power squares by libm pow, as the scalar ** does.
        cosh_squared = np.float_power(np.cosh(half_loss), 2.0)
        product = decay * cosh_squared
        rewritten = np.exp(-atomic) * np.float_power((1.0 + np.exp(-cavity)) / 2.0, 2.0)
    lost = (decay < np.finfo(float).tiny) | np.isinf(cosh_squared)
    fidelity = np.where(lost, rewritten, product)
    return fidelity if np.ndim(fidelity) else float(fidelity)


def fault_tolerance_margin(d: DecoherenceParams, t: float | np.ndarray) -> float | np.ndarray:
    """Signed residual of the threshold
    ``2 Gamma t + pi gamma / (2 Delta) <= 1e-4``.

    Nonnegative means the criterion holds; the value is the remaining error
    budget.  Shapes as for :func:`iswap_fidelity`.
    """
    _check_time(t)
    atomic, cavity = _spent(d, t)
    margin = FAULT_TOLERANCE_BUDGET - (atomic + cavity)
    return margin if np.ndim(margin) else float(margin)
