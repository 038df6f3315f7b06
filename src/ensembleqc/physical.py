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

This module is also the package's one JSON reader, for parameters, native
programs and CLI configs: :func:`_json_loads` parses, :func:`_json_typed`
is the one JSON type rule of every value read, and :func:`_json_object` the
one key rule of every object read.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import warnings
from dataclasses import dataclass, fields

import numpy as np


# Largest |g/Delta| the perturbative model is trusted at.
DISPERSIVE_THRESHOLD = 0.1

_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "object": (dict,)}
# Stands in for a long list while json lays out the rest of a document; the
# list's texts are written where it lands.
_LIST_SLOT = "\ufdd0list\ufdd0"
# Deepest nesting of arrays and objects a JSON document may have.  json's
# parser spends one level of Python's recursion limit (1000 by default) per
# level, on top of its caller's frames: half the limit leaves the other half
# as headroom, so the verdict is the document's alone, whoever reads it.
MAX_JSON_DEPTH = 500
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
# A bracket as one step of the nesting depth: +1 opening, -1 (0xff) closing.
_JSON_STEPS = str.maketrans("[{]}", "\x01\x01\xff\xff")


def _json_loads(text: str):
    """``json.loads(text)``, the one JSON parse.  A document nested deeper
    than ``MAX_JSON_DEPTH`` is a ``ValueError`` like any other malformed one,
    whatever the caller's stack depth."""
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH:
        steps = re.sub(r"[^][{}]", "", _JSON_STRING.sub("", text)).translate(_JSON_STEPS)
        if np.frombuffer(steps.encode("latin-1"), np.int8).cumsum().max(initial=0) > MAX_JSON_DEPTH:
            raise ValueError(f"JSON nesting is too deep (more than {MAX_JSON_DEPTH} levels)")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


def _json_typed(value, json_type: str, name: str):
    """``value`` if its Python type is one that ``json`` reads for
    ``json_type``; ``True`` is not an integer here.  The one JSON type
    check; the message shows ``value`` shortened."""
    if type(value) not in _JSON_TYPES[json_type]:
        raise ValueError(f"{name} must be a JSON {json_type}, got {reprlib.repr(value)}")
    return value


def _json_object(value, keys, name: str) -> dict:
    """``value`` if it is a JSON object (:func:`_json_typed`) whose every key
    is one of ``keys``, those its reader reads.  An unknown key, such as a
    misspelled one, is an error naming it, never ignored."""
    if _json_typed(value, "object", name).keys() - keys:
        key = next(key for key in value if key not in keys)
        raise ValueError(f"{name} has unknown key {reprlib.repr(key)}; expected one of {sorted(keys)}")
    return value


def _json_pair(value, name: str) -> complex:
    """The complex number of a ``[re, im]`` pair of JSON numbers."""
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{name} must be a [re, im] pair of JSON numbers, got {reprlib.repr(value)}")
    return complex(*(_json_typed(x, "number", name) for x in value))


def _slot(text: str) -> tuple[str, str]:
    """The texts before and after the last ``json.dumps(_LIST_SLOT)`` in
    ``text``; each caller lays the slot out last."""
    return text.rpartition(json.dumps(_LIST_SLOT))[::2]


def _check_count(name: str, value):
    """``value`` if it is an integer in 1..2**53, the counts float64 holds
    exactly; ``True`` is not a count, as in :func:`_json_typed`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 1 <= value <= 2**53:
        raise ValueError(f"{name} must be an integer in 1..2**53, got {value!r}")
    return value


class DispersiveRegimeWarning(UserWarning):
    """A coupling-to-detuning ratio is too large for the perturbative model."""


@dataclass(frozen=True)
class PhysicalParams:
    """Raw constants of the two-node system.

    ``n_atoms_*`` are the node atom counts; ``g_sigma_*`` couple each node to
    the shared cavity mode and ``g_pi_*`` to that node's microcavity mode
    (complex values allowed, each of finite modulus).  ``omega_1``/``omega_2``
    are the effective node frequencies and ``delta_sigma_*``/``delta_pi_*``
    each node's detunings from the two modes, the only form in which the
    model reads them.
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
            _check_count(name, getattr(self, name))
        for f in fields(self):
            if f.name.startswith("n_atoms"):
                continue
            value = complex(getattr(self, f.name))
            # Not finite for a non-finite part, and for finite parts whose
            # modulus overflows (complex abs() raises on those).
            if not math.isfinite(math.hypot(value.real, value.imag)):
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

    def to_dict(self) -> dict:
        """Flat dict keyed by the field names, the object :meth:`to_json`
        writes: a complex value as its real part if its imaginary part is
        zero, else as ``[re, im]``, and a numpy scalar as its Python value."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                value = value.item()
            if isinstance(value, complex):
                out[f.name] = value.real if value.imag == 0.0 else [value.real, value.imag]
            else:
                out[f.name] = value
        return out

    def to_json(self) -> str:
        """Flat JSON object keyed by the field names (:meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw) -> "PhysicalParams":
        """The parameters of :meth:`to_dict`'s object, and no other key
        (:func:`_json_object`): JSON integer atom counts and JSON number
        fields, a coupling also as a ``[re, im]`` pair (:func:`_json_typed`)."""
        _json_object(raw, [f.name for f in fields(cls)], "physical parameters")
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                raise ValueError(f"missing field {f.name!r}")
            value = raw[f.name]
            if f.type == "complex" and type(value) is list:
                kwargs[f.name] = _json_pair(value, f.name)
            else:
                kwargs[f.name] = _json_typed(value, "integer" if f.type == "int" else "number", f.name)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "PhysicalParams":
        """Parse :meth:`to_json`'s layout (:meth:`from_dict`)."""
        return cls.from_dict(_json_loads(text))


def _check_sector(n: int) -> int:
    if n not in (0, 1):
        raise ValueError(f"photon sector must be 0 or 1, got {n!r}")
    return n


@dataclass(frozen=True)
class DerivedCouplings:
    """Effective quantities of the two-node exchange model.

    ``omega_cap_sigma`` is the cavity-mediated inter-node exchange rate,
    ``omega_m_x`` the intra-node shifts |g|^2/Delta, and ``s_coupling`` the
    collectively enhanced swap rate ``sqrt(N1 N2) * omega_cap_sigma``.  A
    photon sector ``n in {0, 1}`` (the microcavity photon number) enters only
    through :meth:`varpi_split`, the diagonal of the sector's rotating-frame
    generator; :meth:`kappa`, the sector's rate, is read from it.

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

    def resonance_residual(self) -> float:
        """Signed residual of the swap resonance condition
        ``omega_2 - omega_1 + N2*Omega_2^(sigma) - N1*(Omega_1^(sigma) +
        Omega_1^(pi)) + N2*Omega_2^(pi)``, twice the photon-free sector's
        :meth:`varpi_split`: each node is shifted by both modes it couples
        to, and zero makes the photon-free sector degenerate."""
        return (
            self.omega_2
            - self.omega_1
            + self.n_atoms_2 * self.omega_2_sigma
            - self.n_atoms_1 * (self.omega_1_sigma + self.omega_1_pi)
            + self.n_atoms_2 * self.omega_2_pi
        )

    def varpi_split(self, n: int) -> float:
        """Half the frequency difference ``d`` of the node-1-excited and
        node-2-excited components in sector ``n``, the diagonal of the
        sector's rotating-frame generator ``[[d, -S], [-S*, -d]]``.

        Computed from the resonance residual rather than as a difference of
        the two components' frequencies: the collective terms in those are
        larger by a factor ~N and would cancel catastrophically.
        """
        n = _check_sector(n)
        return 0.5 * self.resonance_residual() - n * self.omega_1_pi

    def kappa(self, n: int) -> float:
        """Rotation rate ``hypot(varpi_split(n), |S|)`` of sector ``n``; on
        resonance the paper's ``sqrt(n^2 Omega_1^(pi)^2 + |S|^2)``."""
        k = np.hypot(self.varpi_split(n), abs(self.s_coupling))
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
    exchange rate (0 * inf or inf - inf) raises ``ValueError``, and so does
    a swap coupling S with a NaN part or with finite parts whose modulus
    overflows, so every later ``abs(S)`` is a float or inf.
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
    s = complex(s_coupling)
    if np.isnan(s) or (np.isfinite(s) and math.isinf(math.hypot(s.real, s.imag))):
        raise ValueError(f"swap coupling S = {s!r} has a NaN part or an overflowing modulus")
    return DerivedCouplings(
        omega_cap_sigma=complex(omega_cap_sigma),
        omega_1_sigma=omega_1_sigma,
        omega_1_pi=omega_1_pi,
        omega_2_sigma=omega_2_sigma,
        omega_2_pi=omega_2_pi,
        s_coupling=s,
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

