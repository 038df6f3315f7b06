"""Command-line front end for reproducible batch runs.

Subcommands: ``truth-table``, ``blockade-sweep``, ``compile``, ``simulate``,
``fidelity``.  Global flags: ``--config <path.json>``, ``--json``,
``--seed <u64>``, ``--out <dir>``.  Exit codes: 0 all embedded verifications
pass, 1 a verification failed, 2 usage or parse error.  :func:`main` is the
one place that maps errors to exit codes: :class:`VerificationError` gives 1,
and ``ValueError`` (which includes :class:`UsageError` and every parse error)
or ``OSError`` gives 2, each with a single ``error: ...`` line on stderr.
An input needing one array over ``MAX_ARRAY_BYTES``, or a sweep over
``MAX_SWEEP_STEPS`` points, exits 2 before anything is allocated.

Every command is deterministic given the config and seed; reports embed a
hash of the resolved configuration.  Numeric output uses 12 significant
digits so verification tolerances stay visible in logs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import compiler, decoherence, dynamics, gates, presets, simulator
from .physical import PhysicalParams, check_interference_condition, derive_couplings

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_FMT = "{:.12g}"
# Largest array a command may allocate, in bytes (16 per complex amplitude):
# 2^k amplitudes to simulate k logical qubits, 4^k for the compile check's
# unitaries and for a written state.json.
MAX_ARRAY_BYTES = 2**28
# Largest grid a sweep's "steps" may ask for.
MAX_SWEEP_STEPS = 10**6


class UsageError(ValueError):
    """Config or command-line input that the command cannot use (exit 2)."""


class VerificationError(Exception):
    """An embedded verification failed before a report was produced (exit 1)."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep, either an explicit value list or a linear grid."""

    parameter: str
    values: tuple[float, ...]

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        if not isinstance(raw, dict):
            raise UsageError("sweep must be a JSON object")
        parameter = raw.get("parameter")
        if not isinstance(parameter, str) or not parameter:
            raise UsageError("sweep needs a 'parameter' name")
        if "values" in raw:
            values = tuple(float(v) for v in raw["values"])
            if not values:
                raise UsageError("sweep 'values' must be nonempty")
        else:
            try:
                lo, hi, steps = float(raw["min"]), float(raw["max"]), int(raw["steps"])
            except KeyError as missing:
                raise UsageError(f"sweep is missing {missing}") from None
            if not 1 <= steps <= MAX_SWEEP_STEPS:
                raise UsageError(f"sweep steps must be between 1 and {MAX_SWEEP_STEPS}, got {steps}")
            values = tuple(np.linspace(lo, hi, steps).tolist())
        if not all(np.isfinite(values)):
            raise UsageError("sweep values must be finite")
        return cls(parameter=parameter, values=values)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    physical_params: PhysicalParams
    decoherence_params: decoherence.DecoherenceParams
    sweep: SweepSpec | None
    output_dir: str | None
    seed: int

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "physical_params": json.loads(self.physical_params.to_json()),
            "decoherence_params": asdict(self.decoherence_params),
            "sweep": (
                {"parameter": self.sweep.parameter, "values": list(self.sweep.values)}
                if self.sweep
                else None
            ),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }

    def hash(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_SWEEPABLE = {"pi_to_s_ratio", "gamma_atomic", "gamma_cavity", "time"}


def default_config(seed: int = 0) -> ScenarioConfig:
    """Built-in reference scenario with the canonical blockade-ratio grid."""
    return ScenarioConfig(
        scenario="reference",
        physical_params=presets.reference_params(),
        decoherence_params=presets.reference_decoherence(),
        sweep=SweepSpec(
            parameter="pi_to_s_ratio",
            values=(0.0, presets.SQRT3, 10.0, 100.0),
        ),
        output_dir=None,
        seed=seed,
    )


def load_config(path: str | None, seed_override: int | None, out_override: str | None) -> ScenarioConfig:
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config {path!r} must be a JSON object")
    try:
        return _overlay_config(raw, seed_override, out_override)
    except KeyError as missing:  # a required key of a nested object
        raise UsageError(f"config is missing {missing}") from None
    except (TypeError, OverflowError) as exc:
        raise UsageError(f"malformed config: {exc}") from None


def _overlay_config(raw: dict, seed_override: int | None, out_override: str | None) -> ScenarioConfig:
    base = default_config()
    params = base.physical_params
    if "physical_params" in raw:
        params = PhysicalParams.from_json(json.dumps(raw["physical_params"]))
    deco = base.decoherence_params
    if "decoherence_params" in raw:
        d = raw["decoherence_params"]
        deco = decoherence.DecoherenceParams(
            gamma_atomic=float(d["gamma_atomic"]),
            gamma_cavity=float(d["gamma_cavity"]),
            delta=float(d["delta"]),
        )
    sweep = base.sweep
    if "sweep" in raw:
        sweep = SweepSpec.from_dict(raw["sweep"]) if raw["sweep"] is not None else None
    if sweep is not None and sweep.parameter not in _SWEEPABLE:
        raise UsageError(
            f"unknown sweep parameter {sweep.parameter!r}; expected one of "
            f"{sorted(_SWEEPABLE)}"
        )
    seed = seed_override if seed_override is not None else int(raw.get("seed", base.seed))
    out = out_override if out_override is not None else raw.get("output_dir", base.output_dir)
    if out is not None and not isinstance(out, str):
        raise UsageError("output_dir must be a string")
    return ScenarioConfig(
        scenario=str(raw.get("scenario", base.scenario)),
        physical_params=params,
        decoherence_params=deco,
        sweep=sweep,
        output_dir=out,
        seed=seed,
    )


def _check_budget(qubit_count: int, base: int, purpose: str) -> None:
    """Reject ``base ** qubit_count`` amplitudes over the budget before allocating."""
    if 16 * base ** min(qubit_count, 64) > MAX_ARRAY_BYTES:  # k may be huge
        raise UsageError(
            f"{purpose} needs 16*{base}^{qubit_count} bytes for {qubit_count} logical "
            f"qubits, over the {MAX_ARRAY_BYTES}-byte limit"
        )


def _entry_polar(z: complex) -> str:
    return f"{abs(z):.12g}\u2220{np.degrees(np.angle(z)):.6f}\u00b0"


def _latex_matrix(m: np.ndarray) -> str:
    rows = []
    for row in m:
        cells = []
        for z in row:
            if abs(z) < 1e-14:
                cells.append("0")
            elif abs(z.imag) < 1e-14:
                cells.append(f"{z.real:.6g}")
            elif abs(z.real) < 1e-14:
                cells.append(f"{z.imag:.6g}i")
            else:
                cells.append(f"{z.real:.6g}{z.imag:+.6g}i")
        rows.append(" & ".join(cells))
    body = " \\\\\n".join(rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


# Stands in for the rows table while json lays out the rest of a report.
_ROWS_SLOT = "\ufdd0rows\ufdd0"


def _to_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``, byte for byte.

    ``indent`` makes json use its pure-Python encoder, which is slow on a long
    ``rows`` table.  So a ``rows`` table of nonempty lists of ints and floats
    is laid out here by ``str.join`` over json's compact text of it, from the
    C encoder (``NaN`` and ``Infinity`` included, as json writes them), and
    json lays out only the rest of the report.
    """
    rows = report.get("rows")
    if not (
        type(rows) is list and rows and set(map(type, rows)) == {list} and all(rows)
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}
    ):
        return json.dumps(report, indent=2)
    # No number's text holds "," or "]", so the separators are the layout's.
    cells = json.dumps(rows, separators=(",", ":"))[2:-2]
    cells = cells.replace(",", ",\n      ").replace("],\n      [", "\n    ],\n    [\n      ")
    head, _, tail = json.dumps({**report, "rows": _ROWS_SLOT}, indent=2).partition(
        json.dumps(_ROWS_SLOT))
    return "".join((head, "[\n    [\n      ", cells, "\n    ]\n  ]", tail))


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(_to_json(report))
    else:
        for line in lines:
            print(line)


def _out_dir(config: ScenarioConfig) -> Path | None:
    if config.output_dir is None:
        return None
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(config: ScenarioConfig, name: str, header: str, rows, show: bool) -> None:
    """Write the CSV text of ``rows`` to ``name`` in the output directory, if
    any, then print it if ``show``; the text is built only when used."""
    out = _out_dir(config)
    if out is None and not show:
        return
    lines = [header] + [",".join(_FMT.format(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / name).write_text(text)
        print(f"wrote {out / name}")
    if show:
        print(text, end="")


def cmd_truth_table(args, config: ScenarioConfig) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        couplings = derive_couplings(config.physical_params)
    diag_warnings = [str(w.message) for w in caught]
    interference = check_interference_condition(config.physical_params)
    resonance = couplings.resonance_residual()
    deviation_from_tuning = dynamics.blockade_condition_deviation(couplings)
    if deviation_from_tuning > 1e-9 and not args.force:
        raise VerificationError(
            "blockade tuning |Omega_1^(pi)| = sqrt(3)|S| violated "
            f"(relative deviation {deviation_from_tuning:.3e}); rerun with --force"
        )
    gate = dynamics.extract_controlled_iswap(couplings, enforce_condition=False)
    m = gate.matrix

    tol = args.tol
    deviations = {
        "n0_diag": max(abs(m[0, 0]), abs(m[1, 1])),
        "n0_offdiag_vs_minus_i": max(abs(m[0, 1] + 1j), abs(m[1, 0] + 1j)),
        "n1_offdiag": max(abs(m[2, 3]), abs(m[3, 2])),
        "n1_diag_modulus": max(abs(abs(m[2, 2]) - 1.0), abs(abs(m[3, 3]) - 1.0)),
        "cross_sector": float(np.max(np.abs(m[:2, 2:])) + np.max(np.abs(m[2:, :2]))),
    }
    max_deviation = max(deviations.values())
    passed = max_deviation < tol

    report = {
        "command": "truth-table",
        "config_hash": config.hash(),
        "seed": config.seed,
        "matrix": gates.matrix_to_json(gate),
        "deviations": deviations,
        "max_deviation": max_deviation,
        "tolerance": tol,
        "pass": bool(passed),
        "resonance_residual": resonance,
        "interference_residuals": list(interference),
        "warnings": diag_warnings,
    }
    lines = [f"controlled-swap gate, config {config.hash()}"]
    for w in diag_warnings:
        lines.append(f"warning: {w}")
    basis = ["psi1 n=0", "psi2 n=0", "psi1 n=1", "psi2 n=1"]
    for i, label in enumerate(basis):
        row = "  ".join(_entry_polar(m[i, j]) for j in range(4))
        lines.append(f"{label:>10}: {row}")
    lines.append(f"resonance residual: {_FMT.format(resonance)} rad/s")
    lines.append(
        "interference residuals: "
        + ", ".join(_FMT.format(r) for r in interference)
        + " rad/s"
    )
    for name, value in deviations.items():
        lines.append(f"deviation {name}: {value:.3e}")
    lines.append(f"{'PASS' if passed else 'FAIL'} max deviation {max_deviation:.3e} (tol {tol:g})")
    if args.latex:
        lines.append(_latex_matrix(m))
    _emit(report, args.json, lines)
    out = _out_dir(config)
    if out is not None:
        (out / "truth_table.json").write_text(_to_json(report))
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_blockade_sweep(args, config: ScenarioConfig) -> int:
    if config.sweep is None or config.sweep.parameter != "pi_to_s_ratio":
        raise UsageError("blockade-sweep needs a sweep over 'pi_to_s_ratio'")
    ratios = config.sweep.values
    base = config.physical_params
    # At most one contiguous chunk of ratios per worker, each one array call;
    # --jobs below 2 runs serially.  Every row is computed on its own, so the
    # output does not depend on the split.
    size = -(-len(ratios) // max(args.jobs, 1))
    chunks = [ratios[i:i + size] for i in range(0, len(ratios), size)]

    def chunk_rows(chunk) -> np.ndarray:
        couplings = presets.rescaled_couplings(base, chunk)
        t_swap = np.pi / (2.0 * abs(couplings.s_coupling))
        c2 = dynamics.sector_propagator(couplings, 1, t_swap)[:, 1, 0]
        # |c2| as np.hypot, which equals the scalar abs (array np.abs does not).
        return np.column_stack(
            [chunk, dynamics.blockade_error(couplings), np.hypot(c2.real, c2.imag)])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                parts = list(pool.map(chunk_rows, chunks))
        else:
            parts = [chunk_rows(chunk) for chunk in chunks]
    rows = np.concatenate(parts).tolist()
    _write_csv(config, "blockade_sweep.csv", "ratio,blockade_error,c2_at_swap_time", rows,
               show=not args.json)
    if args.json:
        print(_to_json({"command": "blockade-sweep", "config_hash": config.hash(), "rows": rows}))
    return EXIT_OK


def cmd_compile(args, config: ScenarioConfig) -> int:
    circuit = compiler.parse_circuit(Path(args.circuit).read_text())
    if not args.fixed_set:
        program = compiler.lower_circuit(circuit)
        k = program.qubit_count
        _check_budget(k, 4, "the compile check")
        deviation = simulator.program_matrix(program) - simulator.circuit_matrix(circuit, k)
        error = float(np.max(np.abs(deviation)))
        passed = error < 1e-9
        report = {
            "command": "compile",
            "config_hash": config.hash(),
            "mode": "exact",
            "op_count": len(program.ops),
            "equivalence_error": error,
            "pass": bool(passed),
        }
        lines = [
            f"compiled {len(circuit)} gate(s) to {len(program.ops)} native op(s)",
            program.disassemble().rstrip("\n"),
            f"logical equivalence error: {error:.3e}",
        ]
    else:
        # Checked here too, so a circuit without a single-qubit gate, which
        # never reaches the search, cannot pass with a bad option.
        compiler._check_fixed_set_options(args.epsilon, args.max_depth)
        names = [name for name, _ in circuit if name != "CNOT"]
        details: list[dict] = []
        searched: dict[str, compiler.FixedSetResult] = {}  # one search per gate name

        def lower_fixed(u, target: int) -> compiler.NativeProgram:
            name = names[len(details)]
            if name not in searched:
                searched[name] = compiler.approximate_fixed_set(
                    u, epsilon=args.epsilon, max_depth=args.max_depth
                )
            result = searched[name]
            if not result.found:
                raise VerificationError(
                    f"no fixed-set word within epsilon {args.epsilon:g} at "
                    f"max depth {args.max_depth} for gate {name}; best distance "
                    f"{result.distance:.3e}"
                )
            details.append({"gate": name, "depth": result.depth,
                            "distance": result.distance, "word": list(result.word)})
            return compiler.NativeProgram(
                qubit_count=target + 1,
                ops=[compiler.NativeOp(op.kind, (target,), op.angles)
                     for op in result.program.ops],
                global_phase=result.program.global_phase,
            )

        program = compiler.lower_circuit(circuit, lower_1q=lower_fixed)
        worst = max((d["distance"] for d in details), default=0.0)
        passed = worst <= args.epsilon
        report = {
            "command": "compile",
            "config_hash": config.hash(),
            "mode": "fixed-set",
            "epsilon": args.epsilon,
            "max_depth": args.max_depth,
            "op_count": len(program.ops),
            "max_gate_distance": worst,
            "gates": details,
            "pass": bool(passed),
        }
        lines = [
            f"compiled {len(details)} single-qubit gate(s) via the fixed set",
            program.disassemble().rstrip("\n"),
            f"max per-gate distance: {worst:.3e} (epsilon {args.epsilon:g})",
        ]
    lines.append("PASS" if passed else "FAIL")
    _emit(report, args.json, lines)
    out = _out_dir(config)
    if out is not None:
        (out / "program.json").write_text(program.to_json())
        (out / "program.txt").write_text(program.disassemble())
        (out / "compile_report.json").write_text(_to_json(report))
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_simulate(args, config: ScenarioConfig) -> int:
    if (args.program is None) == (args.circuit is None):
        raise UsageError("pass exactly one of --program or --circuit")
    if args.program is not None:
        program = compiler.NativeProgram.from_json(Path(args.program).read_text())
    else:
        program = compiler.lower_circuit(compiler.parse_circuit(Path(args.circuit).read_text()))
    _check_budget(program.qubit_count, 2 if config.output_dir is None else 4, "simulate")
    initial = args.initial if args.initial is not None else "0" * program.qubit_count
    state, stats = simulator.run_program(program, initial)
    max_leak = stats.max_leakage
    norm_defect = abs(state.norm() - 1.0)
    passed = max_leak < 1e-10 and norm_defect < 1e-10
    trace_lines = [
        f"op {i:3d} {op.format():<28} leakage {leak:.3e}"
        for i, (op, leak) in enumerate(zip(program.ops, stats.op_leakages))
    ] if args.trace else []

    out = _out_dir(config)
    state_ref = None
    if out is not None:
        state_ref = str(out / "state.json")
        (out / "state.json").write_text(json.dumps(simulator.state_to_json(state)))
    report = {
        "command": "simulate",
        "config_hash": config.hash(),
        "seed": config.seed,
        "stats": {
            "op_count": len(program.ops),
            "max_leakage": max_leak,
            "norm_defect": norm_defect,
            "global_phase": [program.global_phase.real, program.global_phase.imag],
        },
        "final_state_ref": state_ref,
        "pass": bool(passed),
    }
    lines = trace_lines + [
        f"ran {len(program.ops)} op(s) on |{initial}>",
        f"max leakage: {max_leak:.3e}",
        f"norm defect: {norm_defect:.3e}",
        f"{'PASS' if passed else 'FAIL'}",
    ]
    if state_ref:
        lines.append(f"state written to {state_ref}")
    _emit(report, args.json, lines)
    if out is not None:
        (out / "run_report.json").write_text(_to_json(report))
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_fidelity(args, config: ScenarioConfig) -> int:
    deco = config.decoherence_params
    couplings = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        couplings = derive_couplings(config.physical_params)
    omega_sigma = abs(couplings.omega_cap_sigma)
    t_gate = dynamics.iswap_schedule(couplings, np.pi / 2.0)

    sweep = config.sweep
    if sweep is None or sweep.parameter == "pi_to_s_ratio":
        boundary_gamma = decoherence.FAULT_TOLERANCE_BUDGET / (2.0 * t_gate)
        sweep = SweepSpec(
            parameter="gamma_atomic",
            values=tuple(np.linspace(0.0, 2.0 * boundary_gamma, 21).tolist()),
        )

    gamma_a, gamma_c, t = deco.gamma_atomic, deco.gamma_cavity, t_gate
    values = np.array(sweep.values)
    if sweep.parameter == "gamma_atomic":
        gamma_a = values
    elif sweep.parameter == "gamma_cavity":
        gamma_c = values
    elif sweep.parameter == "time":
        t = values
    else:
        raise UsageError(f"fidelity cannot sweep {sweep.parameter!r}")
    # One parameter set for the whole sweep, checked once.
    d = decoherence.DecoherenceParams(gamma_atomic=gamma_a, gamma_cavity=gamma_c, delta=deco.delta)
    fidelity = decoherence.iswap_fidelity(d, t)
    margin = decoherence.fault_tolerance_margin(d, t)
    rows = np.column_stack(np.broadcast_arrays(
        d.gamma_atomic, d.gamma_cavity, d.delta, t, fidelity, margin)).tolist()
    holds = margin >= 0.0
    frontier = (np.flatnonzero(holds[1:] != holds[:-1]) + 1).tolist()
    header = "gamma_atomic,gamma_cavity,delta,t,fidelity,margin"
    _write_csv(config, "fidelity_sweep.csv", header, rows, show=not args.json)
    if args.json:
        print(
            _to_json(
                {
                    "command": "fidelity",
                    "config_hash": config.hash(),
                    "gate_time": t_gate,
                    "omega_sigma": omega_sigma,
                    "rows": rows,
                    "frontier_rows": frontier,
                }
            )
        )
    else:
        print(f"# gate time {_FMT.format(t_gate)} s with exchange rate {_FMT.format(omega_sigma)} rad/s")
        for i in frontier:
            print(f"# error-budget frontier between rows {i - 1} and {i}")
    return EXIT_OK


# Built once per process: each parse_args call fills a fresh namespace, so no
# parsed state carries over from one main call to the next.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensembleqc",
        description="Simulator and compiler for the two-ensemble-per-qubit swap architecture.",
    )
    parser.add_argument("--config", help="scenario config JSON")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=None, help="random seed (recorded in reports)")
    parser.add_argument("--out", default=None, help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truth-table", help="extract and verify the controlled-swap gate")
    p.add_argument("--force", action="store_true", help="extract even if the blockade tuning is off")
    p.add_argument("--tol", type=float, default=1e-10, help="structure tolerance")
    p.add_argument("--latex", action="store_true", help="also render the matrix as LaTeX")
    p.set_defaults(func=cmd_truth_table)

    p = sub.add_parser("blockade-sweep", help="blockade error vs pi-coupling ratio")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads, one contiguous chunk of ratios each; rows are computed as "
             "arrays and the output does not depend on --jobs",
    )
    p.set_defaults(func=cmd_blockade_sweep)

    p = sub.add_parser("compile", help="lower a circuit file to native operations")
    p.add_argument("circuit", help="circuit file: one 'NAME target [target2]' per line")
    p.add_argument("--fixed-set", action="store_true", help="approximate with the fixed-angle gates")
    p.add_argument("--epsilon", type=float, default=1e-9, help="fixed-set target distance")
    p.add_argument("--max-depth", type=int, default=8, help="fixed-set search depth limit")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run a native program or circuit file")
    p.add_argument("--program", help="native program JSON")
    p.add_argument("--circuit", help="circuit file to lower and run")
    p.add_argument("--initial", help="initial logical bitstring (default all zeros)")
    p.add_argument("--trace", action="store_true", help="stream per-op leakage")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fidelity", help="fidelity and error-budget sweep")
    p.set_defaults(func=cmd_fidelity)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config, args.seed, args.out))
    except (VerificationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED if isinstance(exc, VerificationError) else EXIT_USAGE


def entry_point() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())
