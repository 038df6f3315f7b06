"""Ready-made parameter sets satisfying the operating conditions.

Every preset satisfies, by construction:

* the interference condition ``Delta_m^(sigma) = -Delta_m^(pi_m)`` (photon
  sectors stay decoupled),
* the swap resonance condition, by solving for the second node frequency,
* ``g_pi_2 = 0``: the second microcavity never holds a photon and leaving it
  uncoupled removes its intra-node shift, which is what makes the resonance
  condition equivalent to exact sector degeneracy.

Each mode enters only through its detunings, and node frequencies are
relative to a common rotating reference, so omega_1 defaults to 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .decoherence import DecoherenceParams
from .dynamics import SQRT3
from .physical import DerivedCouplings, PhysicalParams, _intra_node_shift, derive_couplings

# Shared detuning of the reference operating point, rad/s.
_REFERENCE_DELTA = 2.0e8 / np.pi


def _resonant_omega_2(omega_1, n1, n2, omega_1_sigma, omega_1_pi, omega_2_sigma):
    """Second node frequency solving the swap resonance condition; an array
    ``omega_1_pi`` gives an array."""
    return omega_1 + n1 * (omega_1_sigma + omega_1_pi) - n2 * omega_2_sigma


def _resonant_params(n1, n2, g_sigma, g_pi_1, omega_1_pi, delta, omega_1) -> PhysicalParams:
    """Symmetric set with shared detuning ``delta``, interfering mode
    detunings, an uncoupled second microcavity and the resonant second node
    frequency; ``omega_1_pi`` is the intended node-1 microcavity shift."""
    omega_sigma = g_sigma**2 / delta
    return PhysicalParams(
        n_atoms_1=n1,
        n_atoms_2=n2,
        g_sigma_1=float(g_sigma),
        g_sigma_2=float(g_sigma),
        g_pi_1=float(g_pi_1),
        g_pi_2=0.0,
        omega_1=float(omega_1),
        omega_2=float(_resonant_omega_2(omega_1, n1, n2, omega_sigma, omega_1_pi, omega_sigma)),
        delta_sigma_1=float(delta),
        delta_sigma_2=float(delta),
        delta_pi_1=float(-delta),
        delta_pi_2=float(-delta),
    )


def blockade_tuned_params(
    ratio: float,
    s_coupling: float = 1.0,
    n_atoms_1: int = 4,
    n_atoms_2: int | None = None,
    omega_1: float = 0.0,
    dispersive_margin: float = 200.0,
) -> PhysicalParams:
    """Parameter set with swap rate ``|S| = s_coupling`` and blockade ratio
    ``|Omega_1^(pi)| / |S| = ratio``.

    ``dispersive_margin`` sets the shared detuning as a multiple of the
    largest coupling scale so all |g/Delta| ratios stay well below 0.1.
    """
    if ratio < 0.0:
        raise ValueError("ratio must be nonnegative")
    if s_coupling <= 0.0:
        raise ValueError("s_coupling must be positive")
    n1 = int(n_atoms_1)
    n2 = int(n_atoms_2) if n_atoms_2 is not None else n1
    delta = dispersive_margin * max(1.0, ratio) * s_coupling
    g_sigma = np.sqrt(s_coupling * delta / np.sqrt(n1 * n2))
    g_pi_1 = np.sqrt(ratio * s_coupling * delta)
    omega_1_pi = -ratio * s_coupling  # negative detuning flips the sign
    return _resonant_params(n1, n2, g_sigma, g_pi_1, omega_1_pi, delta, omega_1)


def reference_params() -> PhysicalParams:
    """Headline operating point: 10^4-atom nodes, MHz-scale shared-cavity
    coupling, and a ~10 ns full swap.

    ``g_sigma = 1e6 rad/s`` with a shared detuning of ``2e8/pi`` gives an
    exchange rate of about 1.571e4 rad/s, a collectively enhanced swap rate
    ``|S| = 1.571e8 rad/s``, and a gate time of exactly 1e-8 s.  The pi-mode
    coupling is set by the sqrt(3) blockade tuning; at this operating point
    it sits outside the dispersive window (|g/Delta| ~ 2), which
    derive_couplings reports as a warning.
    """
    n = 10_000
    g_sigma = 1.0e6
    delta = _REFERENCE_DELTA
    s_coupling = n * (g_sigma**2 / delta)
    g_pi_1 = np.sqrt(SQRT3 * s_coupling * delta)
    return _resonant_params(n, n, g_sigma, g_pi_1, -SQRT3 * s_coupling, delta, 0.0)


def reference_decoherence() -> DecoherenceParams:
    """Relaxation rates spending half the fault-tolerance budget at the
    reference gate time of 1e-8 s."""
    delta = _REFERENCE_DELTA
    t = 1.0e-8
    gamma_atomic = 2.5e-5 / (2.0 * t)
    gamma_cavity = 2.5e-5 * 2.0 * delta / np.pi
    return DecoherenceParams(gamma_atomic=gamma_atomic, gamma_cavity=gamma_cavity, delta=delta)


# The checks one rescaled set goes through, in order: the ratio's own, then
# those of the PhysicalParams with the rescaled g_pi_1 and omega_2.
_RESCALE_ERRORS = (
    "ratio must be nonnegative",
    "swap coupling S is zero; blockade ratio undefined",
    "g_pi_1 must be finite",
    "omega_2 must be finite",
)


def rescaled_couplings(params: PhysicalParams, ratios) -> DerivedCouplings:
    """The couplings of ``params`` retargeted to each blockade ratio of the
    1-D sequence ``ratios`` at once.

    For a ratio ``r``, ``g_pi_1`` is rescaled so ``|Omega_1^(pi)| / |S| = r``
    and the second node frequency is re-solved so the swap resonance keeps
    holding (the shift enters the resonance condition through the node-1
    collective term).  Returns a stack of coupling sets: ``omega_1_pi`` and
    ``omega_2`` are float arrays of shape ``(len(ratios),)``, each element
    equal bit for bit to ``derive_couplings`` of the rescaled scalar set; the
    other fields are those of ``params``, derived once.  A ratio that fails a
    check raises that check's error; with several, the first such ratio
    does.  Only ``params`` itself goes through the dispersive-regime warning.
    """
    ratios = np.asarray(ratios, dtype=float)
    couplings = derive_couplings(params)
    s = abs(couplings.s_coupling)
    # Overflow and invalid values are checked below, so the array arithmetic
    # stays as silent as the scalar float arithmetic it replaces.
    with np.errstate(all="ignore"):
        g_pi_1 = np.sqrt(ratios * s * abs(params.delta_pi_1))
        omega_1_pi = _intra_node_shift(g_pi_1, params.delta_pi_1)
        omega_2 = _resonant_omega_2(
            params.omega_1, params.n_atoms_1, params.n_atoms_2,
            couplings.omega_1_sigma, omega_1_pi, couplings.omega_2_sigma,
        )
    failed = np.array(np.broadcast_arrays(
        ratios < 0.0, s == 0.0, ~np.isfinite(g_pi_1), ~np.isfinite(omega_2)))
    bad = failed.any(axis=0)
    if bad.any():
        raise ValueError(_RESCALE_ERRORS[int(failed[:, bad.argmax()].argmax())])
    return dataclasses.replace(couplings, omega_1_pi=omega_1_pi, omega_2=omega_2)
