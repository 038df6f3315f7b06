"""Command-line front end for reproducible batch runs.

Subcommands: ``truth-table``, ``blockade-sweep``, ``compile``, ``simulate``,
``fidelity``.  Global flags: ``--config <path.json>``, ``--json``,
``--seed <u64>``, ``--out <dir>``.  Exit codes: 0 all embedded verifications
pass, 1 a verification failed, 2 usage or parse error.  :func:`main` is the
one place that maps errors to exit codes: :class:`VerificationError` gives 1,
and ``ValueError`` (which includes :class:`UsageError` and every parse error)
or ``OSError`` gives 2, each with a single ``error: ...`` line on stderr.
An input needing one array over ``MAX_ARRAY_BYTES``, or a sweep over
``MAX_SWEEP_STEPS`` points, exits 2 before anything is allocated.  A reader
that closes stdout early (``| head``) is not an error: output stops, no
``error:`` line is printed, and the exit code is the command's own verdict.

Every command is deterministic given the config and seed; reports embed a
hash of the resolved configuration.  Text and CSV output give numbers to 12
significant digits, so verification tolerances stay visible in logs; a JSON
report writes each float's shortest round-trip text, as ``json`` does.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import compiler, decoherence, dynamics, gates, physical, presets, simulator
from .physical import PhysicalParams, check_interference_condition, derive_couplings

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_FMT = "{:.12g}"
# Largest array a command may allocate, in bytes (16 per complex amplitude):
# 2^k amplitudes to simulate k logical qubits, and to write them as
# state.json, 4^k for the compile check's unitaries.
MAX_ARRAY_BYTES = 2**28
# Largest grid a sweep's "steps" may ask for.
MAX_SWEEP_STEPS = 10**6
# json's text of a finite float; NaN and the infinities are in _NONFINITE.
_float_text = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Stands in for a long list of numbers while json lays out the rest of a
# document; the list's texts are spliced in where it lands.
_LIST_SLOT = "\ufdd0list\ufdd0"


class UsageError(ValueError):
    """Config or command-line input that the command cannot use (exit 2)."""


class VerificationError(Exception):
    """An embedded verification failed before a report was produced (exit 1)."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep, either an explicit value list or a linear grid."""

    parameter: str
    values: tuple[float, ...]

    @functools.cached_property
    def texts(self) -> list[str]:
        """json's text of each value, made once for the config hash and the
        report column that holds the values."""
        return _json_texts(self.values)

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        if not isinstance(raw, dict):
            raise UsageError("sweep must be a JSON object")
        parameter = raw.get("parameter")
        if not isinstance(parameter, str) or not parameter:
            raise UsageError("sweep needs a 'parameter' name")
        if "values" in raw:
            values = raw["values"]
            if type(values) is not list or not values or not set(map(type, values)) <= {int, float}:
                raise UsageError("sweep 'values' must be a nonempty JSON array of numbers")
            values = tuple(map(float, values))
        else:
            try:
                lo, hi, steps = raw["min"], raw["max"], raw["steps"]
            except KeyError as missing:
                raise UsageError(f"sweep is missing {missing}") from None
            lo, hi = _json_number(lo, "sweep 'min'"), _json_number(hi, "sweep 'max'")
            if type(steps) is not int:
                raise UsageError(f"sweep 'steps' must be a JSON integer, got {steps!r}")
            if not 1 <= steps <= MAX_SWEEP_STEPS:
                raise UsageError(f"sweep steps must be between 1 and {MAX_SWEEP_STEPS}, got {steps}")
            values = tuple(np.linspace(lo, hi, steps).tolist())
        if not np.isfinite(values).all():
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
        """The first 16 hex digits of the sha256 of
        ``json.dumps(self.as_dict(), sort_keys=True)``."""
        raw = self.as_dict()
        if self.sweep is None:
            canonical = json.dumps(raw, sort_keys=True)
        else:
            # "sweep" sorts last and "values" last in it, so the slot is the
            # last match, whatever the strings before it hold.
            raw["sweep"]["values"] = _LIST_SLOT
            head, _, tail = json.dumps(raw, sort_keys=True).rpartition(json.dumps(_LIST_SLOT))
            canonical = "".join((head, "[", ", ".join(self.sweep.texts), "]", tail))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_SWEEPABLE = {"pi_to_s_ratio", "gamma_atomic", "gamma_cavity", "time"}


def default_config() -> ScenarioConfig:
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
        seed=0,
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


def _json_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (not a bool or a string)."""
    if type(value) not in (int, float):
        raise UsageError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _overlay_config(raw: dict, seed_override: int | None, out_override: str | None) -> ScenarioConfig:
    base = default_config()
    params = base.physical_params
    if "physical_params" in raw:
        params = PhysicalParams.from_json(json.dumps(raw["physical_params"]))
    deco = base.decoherence_params
    if "decoherence_params" in raw:
        d = raw["decoherence_params"]
        deco = decoherence.DecoherenceParams(
            **{name: _json_number(d[name], name) for name in ("gamma_atomic", "gamma_cavity", "delta")}
        )
    sweep = base.sweep
    if "sweep" in raw:
        sweep = SweepSpec.from_dict(raw["sweep"]) if raw["sweep"] is not None else None
    if sweep is not None and sweep.parameter not in _SWEEPABLE:
        raise UsageError(
            f"unknown sweep parameter {sweep.parameter!r}; expected one of "
            f"{sorted(_SWEEPABLE)}"
        )
    seed = seed_override if seed_override is not None else raw.get("seed", base.seed)
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise UsageError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    out = out_override if out_override is not None else raw.get("output_dir", base.output_dir)
    if out is not None and not isinstance(out, str):
        raise UsageError("output_dir must be a string")
    scenario = raw.get("scenario", base.scenario)
    if not isinstance(scenario, str):
        raise UsageError("scenario must be a string")
    return ScenarioConfig(
        scenario=scenario,
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


def _json_texts(values) -> list[str]:
    """json's text of each float in the sequence ``values``."""
    texts = list(map(_float_text, values))
    if not math.isfinite(sum(values)):  # a sum of finite values may overflow too
        texts = [_NONFINITE.get(text, text) for text in texts]
    return texts


def _column_texts(column: np.ndarray, texts_of) -> list[str]:
    """``texts_of`` a 1-d array's values as a list; a broadcast (stride-0)
    column is formatted once and repeated."""
    if column.strides == (0,):
        return texts_of(column[:1].tolist()) * len(column)
    return texts_of(column.tolist())


def _to_json(report: dict, columns: list | None = None) -> str:
    """``json.dumps(report, indent=2)``, where given ``columns`` stand for the
    report's ``"rows"`` table: ``[list(row) for row in zip(*columns)]``.

    ``indent`` makes json use its pure-Python encoder, which is slow on a long
    table, so json lays out only the rest of the report.  Each column is a
    1-d float array or a list of json's texts of its floats; each float is
    formatted once, the table is one join and the report one more, since
    each ``+`` on the table's text would copy it again.
    """
    if columns is None:
        return json.dumps(report, indent=2)
    texts = [c if type(c) is list else _column_texts(c, _json_texts) for c in columns]
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*texts)))
    head, _, tail = json.dumps({**report, "rows": _LIST_SLOT}, indent=2).partition(
        json.dumps(_LIST_SLOT))
    if not rows:
        return head + "[]" + tail
    return "".join((head, "[\n    [\n      ", rows, "\n    ]\n  ]", tail))


def _print(text: str, end: str = "\n") -> None:
    """Write ``text`` to stdout and flush it.  If the reader has closed the
    pipe, stdout is pointed at the null device instead, so the command still
    runs to its own verdict and neither a later write nor the interpreter's
    final flush fails."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    _print(_to_json(report) if as_json else "\n".join(lines))


def _out_dir(config: ScenarioConfig) -> Path | None:
    if config.output_dir is None:
        return None
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(config: ScenarioConfig, name: str, header: str, columns: list, show: bool) -> None:
    """Write the CSV text of the table with the 1-d array ``columns`` to
    ``name`` in the output directory, if any, then print it if ``show``; the
    text is built only when used, one column at a time."""
    out = _out_dir(config)
    if out is None and not show:
        return
    fmt = _FMT.format
    texts = [_column_texts(c, lambda values: list(map(fmt, values))) for c in columns]
    text = "\n".join([header, *map(",".join, zip(*texts))]) + "\n"
    if out is not None:
        (out / name).write_text(text)
        _print(f"wrote {out / name}")
    if show:
        _print(text, end="")


def cmd_truth_table(args, config: ScenarioConfig) -> int:
    tol = args.tol
    # A tolerance that no deviation can pass is a usage error, not a failure.
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tol must be positive and finite, got {tol!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        couplings = derive_couplings(config.physical_params)
    diag_warnings = [str(w.message) for w in caught]
    interference = check_interference_condition(config.physical_params)
    resonance = couplings.resonance_residual()
    deviation_from_tuning = dynamics.blockade_condition_deviation(couplings)
    if deviation_from_tuning > dynamics.BLOCKADE_CONDITION_TOL and not args.force:
        raise VerificationError(
            "blockade tuning |Omega_1^(pi)| = sqrt(3)|S| violated "
            f"(relative deviation {deviation_from_tuning:.3e}); rerun with --force"
        )
    gate = dynamics.extract_controlled_iswap(couplings, enforce_condition=False)
    m = gate.matrix
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
    # the workers are capped at the CPU count, and --jobs below 2 runs
    # serially.  Every row is computed on its own, so the output does not
    # depend on the split.
    size = -(-len(ratios) // max(min(args.jobs, os.cpu_count() or 1), 1))
    chunks = [ratios[i:i + size] for i in range(0, len(ratios), size)]

    def chunk_columns(chunk) -> np.ndarray:
        couplings = presets.rescaled_couplings(base, chunk)
        c2 = dynamics.sector_propagator(couplings, 1, dynamics.swap_time(couplings))[:, 1, 0]
        # |c2| as np.hypot, which equals the scalar abs (array np.abs does not).
        return np.stack([dynamics.blockade_error(couplings), np.hypot(c2.real, c2.imag)])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", physical.DispersiveRegimeWarning)
        if len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                parts = list(pool.map(chunk_columns, chunks))
        else:
            parts = [chunk_columns(chunk) for chunk in chunks]
    error, c2 = np.concatenate(parts, axis=1)
    _write_csv(config, "blockade_sweep.csv", "ratio,blockade_error,c2_at_swap_time",
               [np.array(ratios), error, c2], show=not args.json)
    if args.json:
        report = {"command": "blockade-sweep", "config_hash": config.hash(),
                  "rows": None}  # laid out from the columns
        _print(_to_json(report, [config.sweep.texts, error, c2]))
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
        found: dict[str, dict] = {}  # each gate name's report entry

        def lower_fixed(name: str) -> compiler.NativeProgram:
            result = compiler.approximate_fixed_set(
                gates.standard_gate(name), epsilon=args.epsilon, max_depth=args.max_depth
            )
            if not result.found:
                raise VerificationError(
                    f"no fixed-set word within epsilon {args.epsilon:g} at "
                    f"max depth {args.max_depth} for gate {name}; best distance "
                    f"{result.distance:.3e}"
                )
            found[name] = {"gate": name, "depth": result.depth,
                           "distance": result.distance, "word": list(result.word)}
            return result.program

        program = compiler.lower_circuit(circuit, lower_1q=lower_fixed)
        details = [found[name] for name, _ in circuit if name != "CNOT"]
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
    _check_budget(program.qubit_count, 2, "simulate")
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", physical.DispersiveRegimeWarning)
        couplings = derive_couplings(config.physical_params)
    omega_sigma = abs(couplings.omega_cap_sigma)
    t_gate = dynamics.swap_time(couplings)

    sweep = config.sweep
    if sweep is None or sweep.parameter == "pi_to_s_ratio":
        boundary_gamma = decoherence.FAULT_TOLERANCE_BUDGET / (2.0 * t_gate)
        sweep = SweepSpec(
            parameter="gamma_atomic",
            values=tuple(np.linspace(0.0, 2.0 * boundary_gamma, 21).tolist()),
        )

    # Columns: gamma_atomic, gamma_cavity, delta, t, fidelity, margin.
    swept = {"gamma_atomic": 0, "gamma_cavity": 1, "time": 3}.get(sweep.parameter)
    if swept is None:
        raise UsageError(f"fidelity cannot sweep {sweep.parameter!r}")
    inputs = [deco.gamma_atomic, deco.gamma_cavity, deco.delta, t_gate]
    inputs[swept] = np.array(sweep.values)
    gamma_a, gamma_c, delta, t = inputs
    # One parameter set for the whole sweep, checked once.
    d = decoherence.DecoherenceParams(gamma_atomic=gamma_a, gamma_cavity=gamma_c, delta=delta)
    fidelity = decoherence.iswap_fidelity(d, t)
    margin = decoherence.fault_tolerance_margin(d, t)
    columns = list(np.broadcast_arrays(*inputs, fidelity, margin))
    holds = margin >= 0.0
    frontier = (np.flatnonzero(holds[1:] != holds[:-1]) + 1).tolist()
    header = "gamma_atomic,gamma_cavity,delta,t,fidelity,margin"
    _write_csv(config, "fidelity_sweep.csv", header, columns, show=not args.json)
    if args.json:
        report = {
            "command": "fidelity",
            "config_hash": config.hash(),
            "gate_time": t_gate,
            "omega_sigma": omega_sigma,
            "rows": None,  # laid out from the columns
            "frontier_rows": frontier,
        }
        columns[swept] = sweep.texts
        _print(_to_json(report, columns))
    else:
        _print(f"# gate time {_FMT.format(t_gate)} s with exchange rate {_FMT.format(omega_sigma)} rad/s")
        for i in frontier:
            _print(f"# error-budget frontier between rows {i - 1} and {i}")
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
        help="worker threads, at most the CPU count, one contiguous chunk of ratios each; "
             "rows are computed as arrays and the output does not depend on --jobs",
    )
    p.set_defaults(func=cmd_blockade_sweep)

    p = sub.add_parser("compile", help="lower a circuit file to native operations")
    p.add_argument("circuit", help="circuit file: one 'NAME target [target2]' per line")
    p.add_argument("--fixed-set", action="store_true", help="approximate with the fixed-angle gates")
    p.add_argument("--epsilon", type=float, default=1e-9, help="fixed-set target distance")
    p.add_argument("--max-depth", type=int, default=8, help="fixed-set search depth limit")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "simulate", help="run a native program or circuit file",
        epilog="With --out, state.json holds the final state's 2^k logical amplitudes as "
               "[re, im] pairs; logical qubit j is bit j of the index.",
    )
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
