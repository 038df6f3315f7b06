"""Desk-scale simulator and compiler for a quantum computer that stores each
logical qubit on a pair of atomic-ensemble nodes in a shared cavity and
computes with photon-controlled swap operations.

The package covers the chain from raw physical parameters to verified logic:

* :mod:`ensembleqc.physical` - parameters and derived effective couplings;
* :mod:`ensembleqc.dynamics` - per-sector swap dynamics, blockade, and gate
  extraction;
* :mod:`ensembleqc.gates` - exact standard gates and rotations on the
  dual-rail code space, where each native op is a 2x2 block;
* :mod:`ensembleqc.compiler` - Euler-exact and fixed-set lowering to the
  native operations;
* :mod:`ensembleqc.simulator` - state-vector execution in the 2^k logical
  code space, which no native op leaves;
* :mod:`ensembleqc.decoherence` - closed-form fidelity and error budget;
* :mod:`ensembleqc.presets` - parameter sets satisfying the operating
  conditions;
* :mod:`ensembleqc.cli` - batch front end.
"""

from .compiler import (
    EulerAngles,
    FixedSetResult,
    NativeOp,
    NativeProgram,
    approximate_fixed_set,
    euler_decompose,
    lower_circuit,
    lower_single_qubit,
    parse_circuit,
)
from .decoherence import (
    DecoherenceParams,
    fault_tolerance_margin,
    iswap_fidelity,
)
from .dynamics import (
    EvolutionResult,
    NodePairState,
    blockade_error,
    evolve_closed_form,
    evolve_numerical,
    extract_controlled_iswap,
    sector_propagator,
    swap_time,
)
from .gates import (
    Unitary,
    rx,
    rz,
    standard_gate,
)
from .physical import (
    DerivedCouplings,
    PhysicalParams,
    check_interference_condition,
    derive_couplings,
)
from .simulator import (
    LogicalState,
    RunStats,
    decode,
    encode_basis,
    measure_logical,
    run_program,
)

__version__ = "0.1.0"

__all__ = [
    "DecoherenceParams",
    "DerivedCouplings",
    "EulerAngles",
    "EvolutionResult",
    "FixedSetResult",
    "LogicalState",
    "NativeOp",
    "NativeProgram",
    "NodePairState",
    "PhysicalParams",
    "RunStats",
    "Unitary",
    "approximate_fixed_set",
    "blockade_error",
    "check_interference_condition",
    "decode",
    "derive_couplings",
    "encode_basis",
    "euler_decompose",
    "evolve_closed_form",
    "evolve_numerical",
    "extract_controlled_iswap",
    "fault_tolerance_margin",
    "iswap_fidelity",
    "lower_circuit",
    "lower_single_qubit",
    "measure_logical",
    "parse_circuit",
    "run_program",
    "rx",
    "rz",
    "sector_propagator",
    "standard_gate",
    "swap_time",
]
