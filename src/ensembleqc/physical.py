"""Raw physical parameters of the two-node system and the derived effective
couplings of the dispersive model.

Units and conventions
---------------------
All frequencies, couplings and detunings are angular (rad/s) and hbar is
absorbed into the units, so every derived coupling is itself a rad/s
quantity.  Spatial phase factors are set to unity (nodes small compared with
the mode wavelength); couplings may still be complex.  Each node's atoms are
reduced to one effective two-level amplitude (symmetric single-excitation
collective state); individual atoms are never represented.

Each mode enters only through its detunings (atom minus mode frequency): in
the frame rotating at the atomic frequency no absolute frequency is needed.
The node frequencies ``omega_1`` and ``omega_2`` are effective values
relative to that frame, so zero or negative values are legitimate.
"""

from __future__ import annotations

import cmath
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np


# Largest |g/Delta| the perturbative model is trusted at.
DISPERSIVE_THRESHOLD = 0.1


class DispersiveRegimeWarning(UserWarning):
    """A coupling-to-detuning ratio is too large for the perturbative model."""


@dataclass(frozen=True)
class PhysicalParams:
    """Raw constants of the two-node system.

    ``n_atoms_*`` are the node atom counts; ``g_sigma_*`` couple each node to
    the shared cavity mode and ``g_pi_*`` to that node's microcavity mode
    (complex values allowed).  ``omega_1``/``omega_2`` are the effective node
    frequencies and ``delta_sigma_*``/``delta_pi_*`` each node's detunings
    from the two modes, the only form in which the model reads them.
    """

    n_atoms_1: int
    n_atoms_2: int
    g_sigma_1: complex
    g_sigma_2: complex
    g_pi_1: complex
    g_pi_2: complex
    omega_1: float
    omega_2: float
    delta_sigma_1: float
    delta_sigma_2: float
    delta_pi_1: float
    delta_pi_2: float

    def __post_init__(self) -> None:
        for name in ("n_atoms_1", "n_atoms_2"):
            value = getattr(self, name)
            # The model's arithmetic is float64, which holds counts up to 2**53 exactly.
            if not isinstance(value, (int, np.integer)) or not 1 <= value <= 2**53:
                raise ValueError(f"{name} must be an integer in 1..2**53, got {value!r}")
        for f in fields(self):
            if f.name.startswith("n_atoms"):
                continue
            if not cmath.isfinite(complex(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        for name in ("delta_sigma_1", "delta_sigma_2", "delta_pi_1", "delta_pi_2"):
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero (it divides a coupling)")

    def dispersive_ratios(self) -> dict[str, float]:
        """|g|/|Delta| for each of the four coupling channels."""
        return {
            "sigma_1": abs(self.g_sigma_1) / abs(self.delta_sigma_1),
            "sigma_2": abs(self.g_sigma_2) / abs(self.delta_sigma_2),
            "pi_1": abs(self.g_pi_1) / abs(self.delta_pi_1),
            "pi_2": abs(self.g_pi_2) / abs(self.delta_pi_2),
        }

    def to_json(self) -> str:
        """Flat JSON object keyed by the field names."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, complex):
                out[f.name] = value.real if value.imag == 0.0 else [value.real, value.imag]
            else:
                out[f.name] = value
        return json.dumps(out, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PhysicalParams":
        """Parse :meth:`to_json`'s layout.  Atom counts must be JSON integers
        and the other fields JSON numbers; a complex coupling may also be a
        ``[re, im]`` pair of JSON numbers.  A bool is not a number; other
        keys are ignored."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("physical parameters must be a JSON object")
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                raise ValueError(f"missing field {f.name!r}")
            value = raw[f.name]
            if f.type == "int":
                ok, expected = type(value) is int, "a JSON integer"
            elif f.type == "complex":
                expected = "a JSON number or a [re, im] pair of JSON numbers"
                pair = type(value) is list and len(value) == 2
                if pair and {type(x) for x in value} <= {int, float}:
                    value = complex(*value)
                ok = type(value) in (int, float, complex)
            else:
                ok, expected = type(value) in (int, float), "a JSON number"
            if not ok:
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
            kwargs[f.name] = value
        return cls(**kwargs)


def _check_sector(n: int) -> int:
    if n not in (0, 1):
        raise ValueError(f"photon sector must be 0 or 1, got {n!r}")
    return n


@dataclass(frozen=True)
class DerivedCouplings:
    """Effective quantities of the two-node exchange model.

    ``omega_cap_sigma`` is the cavity-mediated inter-node exchange rate,
    ``omega_m_x`` the intra-node shifts |g|^2/Delta, and ``s_coupling`` the
    collectively enhanced swap rate ``sqrt(N1 N2) * omega_cap_sigma``.  The
    sector frequencies (functions of the microcavity photon number
    ``n in {0, 1}``) are exposed as methods.

    A stack of coupling sets holds float arrays of one shape in
    ``omega_1_pi`` and ``omega_2`` (see :func:`presets.rescaled_couplings`);
    every method then returns an array of that shape, each element equal bit
    for bit to the method of that set alone.
    """

    omega_cap_sigma: complex
    omega_1_sigma: float
    omega_1_pi: float
    omega_2_sigma: float
    omega_2_pi: float
    s_coupling: complex
    n_atoms_1: int
    n_atoms_2: int
    omega_1: float
    omega_2: float

    def varpi_1(self, n: int) -> float:
        """Frequency of the node-1-excited component in sector ``n``."""
        n = _check_sector(n)
        return (
            (self.n_atoms_1 / 2 - 1) * (self.omega_1 + 2 * n * self.omega_1_pi)
            + (self.n_atoms_2 / 2) * self.omega_2
            - self.n_atoms_1 * (self.omega_1_sigma + self.omega_1_pi)
        )

    def varpi_2(self, n: int) -> float:
        """Frequency of the node-2-excited component in sector ``n``."""
        n = _check_sector(n)
        return (
            (self.n_atoms_1 / 2) * (self.omega_1 + 2 * n * self.omega_1_pi)
            + (self.n_atoms_2 / 2 - 1) * self.omega_2
            - self.n_atoms_2 * (self.omega_2_sigma + self.omega_2_pi)
        )

    def varpi_mean(self, n: int) -> float:
        return 0.5 * (self.varpi_1(n) + self.varpi_2(n))

    def resonance_residual(self) -> float:
        """Signed residual of the swap resonance condition
        ``omega_2 - omega_1 + N2*Omega_2^(sigma) - N1*(Omega_1^(sigma) +
        Omega_1^(pi))``; zero makes the photon-free sectors degenerate."""
        return (
            self.omega_2
            - self.omega_1
            + self.n_atoms_2 * self.omega_2_sigma
            - self.n_atoms_1 * (self.omega_1_sigma + self.omega_1_pi)
        )

    def varpi_split(self, n: int) -> float:
        """Half the sector frequency difference, (varpi_1 - varpi_2)/2.

        Computed from the resonance residual rather than by subtracting the
        two sector frequencies: the collective terms in those are larger by a
        factor ~N and would cancel catastrophically in floating point.
        """
        n = _check_sector(n)
        return (
            0.5 * (self.resonance_residual() + self.n_atoms_2 * self.omega_2_pi)
            - n * self.omega_1_pi
        )

    def kappa(self, n: int) -> float:
        """Generalized swap rate ``sqrt(n^2 Omega_1^(pi)^2 + |S|^2)``."""
        n = _check_sector(n)
        k = np.hypot(n * self.omega_1_pi, abs(self.s_coupling))
        return k if np.ndim(k) else float(k)


def _intra_node_shift(g, delta):
    """Intra-node shift ``|g|^2 / Delta`` of a coupling or an array of them.

    The modulus is ``np.hypot`` of the parts, which equals Python's complex
    ``abs`` (array ``np.abs`` does not), and the square is ``np.float_power``,
    libm ``pow`` like the scalar ``**`` (array ``**`` multiplies instead), so
    each element of an array result equals the scalar result bit for bit.
    """
    return np.float_power(np.hypot(np.real(g), np.imag(g)), 2.0) / delta


def derive_couplings(params: PhysicalParams) -> DerivedCouplings:
    """Compute all effective couplings from the raw parameters.

    A violation of the dispersive-regime check
    |g| < DISPERSIVE_THRESHOLD * |Delta| is
    reported as a :class:`DispersiveRegimeWarning`, not an error: the model
    formulas still evaluate, they just lose perturbative accuracy.  A NaN
    exchange rate (0 * inf or inf - inf) raises ``ValueError``.
    """
    ratios = params.dispersive_ratios()
    bad = {k: v for k, v in ratios.items() if v >= DISPERSIVE_THRESHOLD}
    if bad:
        listing = ", ".join(f"{k}={v:.3g}" for k, v in sorted(bad.items()))
        warnings.warn(
            f"dispersive regime violated (|g/Delta| >= {DISPERSIVE_THRESHOLD:g}): {listing}",
            DispersiveRegimeWarning,
            stacklevel=2,
        )
    # An overflowing coupling or shift is inf, as in float arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        omega_cap_sigma = (
            params.g_sigma_1
            * np.conj(params.g_sigma_2)
            / 2.0
            * (1.0 / params.delta_sigma_1 + 1.0 / params.delta_sigma_2)
        )
        s_coupling = np.sqrt(float(params.n_atoms_1 * params.n_atoms_2)) * omega_cap_sigma
        omega_1_sigma = float(_intra_node_shift(params.g_sigma_1, params.delta_sigma_1))
        omega_1_pi = float(_intra_node_shift(params.g_pi_1, params.delta_pi_1))
        omega_2_sigma = float(_intra_node_shift(params.g_sigma_2, params.delta_sigma_2))
        omega_2_pi = float(_intra_node_shift(params.g_pi_2, params.delta_pi_2))
    if np.isnan(omega_cap_sigma):
        raise ValueError("exchange rate Omega_sigma is undefined: 0 * inf or inf - inf")
    return DerivedCouplings(
        omega_cap_sigma=complex(omega_cap_sigma),
        omega_1_sigma=omega_1_sigma,
        omega_1_pi=omega_1_pi,
        omega_2_sigma=omega_2_sigma,
        omega_2_pi=omega_2_pi,
        s_coupling=complex(s_coupling),
        n_atoms_1=int(params.n_atoms_1),
        n_atoms_2=int(params.n_atoms_2),
        omega_1=float(params.omega_1),
        omega_2=float(params.omega_2),
    )


def check_interference_condition(params: PhysicalParams) -> tuple[float, float]:
    """Per-node residuals ``Delta_m^(sigma) + Delta_m^(pi_m)``.

    Zero residuals certify that the inter-mode coupling cancels by
    destructive interference, which is what confines the dynamics to fixed
    photon sectors.
    """
    return (
        params.delta_sigma_1 + params.delta_pi_1,
        params.delta_sigma_2 + params.delta_pi_2,
    )


def effective_hamiltonian(couplings: DerivedCouplings, n: int) -> np.ndarray:
    """Hermitian 2x2 generator M(n) of the sector dynamics dc/dt = i M(n) c.

    Built as mean +/- split on the diagonal with the swap coupling -S off
    the diagonal; the split uses the numerically stable form.
    """
    m = couplings.varpi_mean(n)
    d = couplings.varpi_split(n)
    s = couplings.s_coupling
    return np.array([[m + d, -s], [-np.conj(s), m - d]], dtype=complex)
