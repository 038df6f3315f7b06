"""Ready-made parameter sets satisfying the operating conditions.

Every preset is a sigma-channel set retuned to its blockade ratio by
:func:`_retune`, the one retune rule, which :func:`rescaled_couplings` also
runs; the tests pin each preset as a fixed point of a scalar copy of it.
The sigma-channel set meets the interference condition ``Delta_m^(sigma) =
-Delta_m^(pi_m)`` (photon sectors stay decoupled) and has ``g_pi_2 = 0``.
The retune sets omega_2 to omega_1 less the resonance residual of the set
with omega_2 = omega_1, so every retuned set is resonant to rounding.
Node frequencies are relative to a common rotating reference.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .decoherence import DecoherenceParams
from .dynamics import SQRT3
from .physical import (DerivedCouplings, DispersiveRegimeWarning, PhysicalParams, _check_count,
                       _intra_node_shift, derive_couplings)

# Shared detuning of the reference operating point, rad/s.
_REFERENCE_DELTA = 2.0e8 / np.pi

# The checks one rescaled set goes through, in order: the ratio's own, then
# those of the PhysicalParams with the rescaled g_pi_1 and omega_2.
_RESCALE_ERRORS = (
    "ratio must be nonnegative",
    "swap coupling S is zero; blockade ratio undefined",
    "g_pi_1 must be finite",
    "omega_2 must be finite",
)


def _retune(params: PhysicalParams, ratios):
    """The one retune rule: ``(couplings, g_pi_1)``, the couplings of
    ``params`` (derived once: one dispersive-regime warning) stacked over the
    1-D ``ratios``.  Per ratio ``r``, ``g_pi_1`` gives ``|Omega_1^(pi)| / |S|
    = r``, and omega_2 is omega_1 less the ``resonance_residual`` at omega_2 =
    omega_1, in which omega_2's coefficient is 1.  A ratio that fails a check
    raises that check's error; with several, the first does.
    """
    ratios = np.asarray(ratios, dtype=float)
    couplings = derive_couplings(params)
    s = abs(couplings.s_coupling)
    # Overflow and invalid values are checked below, so the array arithmetic
    # stays as silent as the scalar float arithmetic it replaces.
    with np.errstate(all="ignore"):
        g_pi_1 = np.sqrt(ratios * s * abs(params.delta_pi_1))
        level = dataclasses.replace(couplings, omega_1_pi=_intra_node_shift(g_pi_1, params.delta_pi_1),
                                    omega_2=couplings.omega_1)
        retuned = dataclasses.replace(level, omega_2=level.omega_1 - level.resonance_residual())
    failed = np.array(np.broadcast_arrays(
        ratios < 0.0, s == 0.0, ~np.isfinite(g_pi_1), ~np.isfinite(retuned.omega_2)))
    bad = failed.any(axis=0)
    if bad.any():
        raise ValueError(_RESCALE_ERRORS[int(failed[:, bad.argmax()].argmax())])
    return retuned, g_pi_1


def rescaled_couplings(params: PhysicalParams, ratios) -> DerivedCouplings:
    """The couplings of ``params`` retuned by :func:`_retune` to each
    blockade ratio of the 1-D sequence ``ratios`` at once: ``omega_1_pi`` and
    ``omega_2`` become float arrays of shape ``(len(ratios),)``, each element
    equal bit for bit to ``derive_couplings`` of the retuned scalar set, so a
    preset built at ratio ``r`` gets its own couplings back at ``[r]``.
    """
    return _retune(params, ratios)[0]


def _tuned(n1, n2, g_sigma, delta, omega_1, ratio) -> PhysicalParams:
    """The sigma-channel set with shared detuning ``delta`` retuned to
    ``ratio``; only the finished set is the caller's to be warned about."""
    delta = float(delta)
    params = PhysicalParams(
        n_atoms_1=n1, n_atoms_2=n2, g_sigma_1=g_sigma, g_sigma_2=g_sigma, g_pi_1=0.0, g_pi_2=0.0,
        omega_1=omega_1, omega_2=omega_1, delta_sigma_1=delta, delta_sigma_2=delta,
        delta_pi_1=-delta, delta_pi_2=-delta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DispersiveRegimeWarning)
        couplings, g_pi_1 = _retune(params, [ratio])
    return dataclasses.replace(params, g_pi_1=float(g_pi_1[0]), omega_2=float(couplings.omega_2[0]))


def blockade_tuned_params(
    ratio: float,
    s_coupling: float = 1.0,
    n_atoms_1: int = 4,
    n_atoms_2: int | None = None,
    omega_1: float = 0.0,
    dispersive_margin: float = 200.0,
) -> PhysicalParams:
    """Parameter set with swap rate ``|S| = s_coupling`` (to rounding) and
    blockade ratio ``|Omega_1^(pi)| / |S| = ratio``.

    ``dispersive_margin`` sets the shared detuning as a multiple of the
    largest coupling scale so all |g/Delta| ratios stay well below 0.1.
    """
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    n1 = int(_check_count("n_atoms_1", n_atoms_1))
    n2 = n1 if n_atoms_2 is None else int(_check_count("n_atoms_2", n_atoms_2))
    if not 0.0 < s_coupling < math.inf:
        raise ValueError("s_coupling must be positive and finite")
    if not 0.0 < dispersive_margin < math.inf:
        raise ValueError("dispersive_margin must be positive and finite")
    delta = dispersive_margin * max(1.0, ratio) * s_coupling
    g_sigma = float(np.sqrt(s_coupling * delta / np.sqrt(float(n1 * n2))))
    return _tuned(n1, n2, g_sigma, delta, float(omega_1), ratio)


def reference_params() -> PhysicalParams:
    """Headline operating point: 10^4-atom nodes, MHz-scale shared-cavity
    coupling, and a ~10 ns full swap.

    ``g_sigma = 1e6 rad/s`` with a shared detuning of ``2e8/pi`` gives an
    exchange rate of about 1.571e4 rad/s, a collectively enhanced swap rate
    ``|S| = 1.571e8 rad/s``, and a gate time of 1e-8 s to rounding.  The
    retune to the sqrt(3) blockade ratio puts the pi-mode coupling outside
    the dispersive window (|g/Delta| ~ 2), which derive_couplings reports as
    a warning.
    """
    return _tuned(10_000, 10_000, 1.0e6, _REFERENCE_DELTA, 0.0, SQRT3)


def reference_decoherence() -> DecoherenceParams:
    """Relaxation rates spending half the fault-tolerance budget at the
    reference gate time of 1e-8 s."""
    delta = _REFERENCE_DELTA
    t = 1.0e-8
    gamma_atomic = 2.5e-5 / (2.0 * t)
    gamma_cavity = 2.5e-5 * 2.0 * delta / np.pi
    return DecoherenceParams(gamma_atomic=gamma_atomic, gamma_cavity=gamma_cavity, delta=delta)
