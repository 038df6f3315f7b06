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
    """

    gamma_atomic: float
    gamma_cavity: float
    delta: float

    def __post_init__(self) -> None:
        if self.gamma_atomic < 0.0 or self.gamma_cavity < 0.0:
            raise ValueError("relaxation rates must be nonnegative")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        for name in ("gamma_atomic", "gamma_cavity", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def iswap_fidelity(d: DecoherenceParams, t: float) -> float:
    """Swap-gate fidelity
    ``exp(-2 Gamma t - pi gamma / (2 Delta)) * cosh^2(pi gamma / (4 Delta))``.

    Parameters
    ----------
    d : DecoherenceParams
        Relaxation constants.
    t : float
        Gate duration in seconds, >= 0.

    Returns
    -------
    float
        Fidelity in (0, 1]; exactly 1 with both rates zero.
    """
    if t < 0.0:
        raise ValueError("gate time must be nonnegative")
    exponent = -2.0 * d.gamma_atomic * t - np.pi * d.gamma_cavity / (2.0 * d.delta)
    return float(np.exp(exponent) * np.cosh(np.pi * d.gamma_cavity / (4.0 * d.delta)) ** 2)


def fault_tolerance_margin(d: DecoherenceParams, t: float) -> float:
    """Signed residual of the threshold
    ``2 Gamma t + pi gamma / (2 Delta) <= 1e-4``.

    Nonnegative means the criterion holds; the value is the remaining error
    budget.
    """
    if t < 0.0:
        raise ValueError("gate time must be nonnegative")
    spent = 2.0 * d.gamma_atomic * t + np.pi * d.gamma_cavity / (2.0 * d.delta)
    return float(FAULT_TOLERANCE_BUDGET - spent)
