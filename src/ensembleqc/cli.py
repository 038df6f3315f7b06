"""Command-line front end for reproducible batch runs.

Subcommands: ``truth-table``, ``blockade-sweep``, ``compile``, ``simulate``,
``fidelity``.  Global flags: ``--config <path.json>``, ``--json``,
``--seed <u64>``, ``--out <dir>``.  Exit codes: 0 all embedded verifications
pass, 1 a verification failed, 2 usage or parse error.  :func:`main` is the
one place that maps errors to exit codes: :class:`VerificationError` gives 1,
and ``ValueError`` (which includes :class:`UsageError` and every parse error)
or ``OSError`` gives 2, each with a single ``error: ...`` line on stderr.
A JSON input is read by the one JSON reader of :mod:`ensembleqc.physical`;
one nested too deeply to parse is malformed input (exit 2) too.
A ``simulate`` input needing a state over ``MAX_ARRAY_BYTES``, or a sweep
over ``MAX_SWEEP_STEPS`` points, exits 2 before anything is allocated.  A
reader that closes stdout early (``| head``) is not an error: output stops,
no ``error:`` line is printed, and the exit code is the command's own
verdict.

``compile`` checks its exact lowering run by run, at any register size,
and reports the check's ``equivalence_error`` (see :mod:`ensembleqc.compiler`);
the check passes below 1e-9.

Every command is deterministic given the config and seed; reports embed a
hash of the resolved configuration.  A report, and so its hash, is built
only for ``--json``, which prints it, and ``--out``, which writes it;
``truth-table`` also prints the hash in its text.  Text and CSV output give
numbers to 12 significant digits, so verification tolerances stay visible in
logs; a JSON report writes each float's shortest round-trip text, as
``json`` does.  Tables of floats are written ``_BLOCK_ROWS`` rows at a time.
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
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/tracer.py patches it
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compiler, decoherence, dynamics, gates, physical, presets, simulator
from .physical import (_JSON_TYPES, _LIST_SLOT, PhysicalParams, _json_loads, _json_typed, _slot,
                       check_interference_condition, derive_couplings)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_FMT = "{:.12g}"
# Largest state a command may allocate, in bytes (16 per complex amplitude):
# 2^k amplitudes to simulate k logical qubits and to write them as state.json.
MAX_ARRAY_BYTES = 2**28
# Most points a sweep may have, as a grid's "steps" or as explicit "values".
MAX_SWEEP_STEPS = 10**6
# json's text of a finite float; NaN and the infinities are in _NONFINITE.
_float_text = float.__repr__
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Rows of a table formatted and written at a time.
_BLOCK_ROWS = 4096
_SWEEPABLE = {"pi_to_s_ratio", "gamma_atomic", "gamma_cavity", "time"}


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
        _json_typed(raw, "object", "sweep")
        parameter = _json_typed(raw.get("parameter"), "string", "sweep 'parameter'")
        if parameter not in _SWEEPABLE:
            raise UsageError(
                f"unknown sweep parameter {parameter!r}; expected one of {sorted(_SWEEPABLE)}")
        if "values" in raw:
            values, numbers = raw["values"], set(_JSON_TYPES["number"])
            if type(values) is not list or not values or not set(map(type, values)) <= numbers:
                raise UsageError("sweep 'values' must be a nonempty JSON array of numbers")
            if len(values) > MAX_SWEEP_STEPS:
                raise UsageError(f"sweep has {len(values)} values, more than {MAX_SWEEP_STEPS}")
            values = tuple(map(float, values))
        else:
            try:
                lo, hi, steps = raw["min"], raw["max"], raw["steps"]
            except KeyError as missing:
                raise UsageError(f"sweep is missing {missing}") from None
            lo = float(_json_typed(lo, "number", "sweep 'min'"))
            hi = float(_json_typed(hi, "number", "sweep 'max'"))
            _json_typed(steps, "integer", "sweep 'steps'")
            if not 1 <= steps <= MAX_SWEEP_STEPS:
                raise UsageError(f"sweep steps must be between 1 and {MAX_SWEEP_STEPS}, got {steps}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise UsageError("sweep 'min' and 'max' must be finite")
            # A span past the float range is spanned at half scale, so its
            # points stay finite; a point that still overflows is reported by
            # the finite check below, and numpy's warnings would only repeat it.
            with np.errstate(over="ignore", invalid="ignore"):
                if math.isfinite(hi - lo):
                    grid = np.linspace(lo, hi, steps)
                else:
                    grid = 2 * np.linspace(lo / 2, hi / 2, steps)
                values = tuple(grid.tolist())
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
            "physical_params": self.physical_params.to_dict(),
            "decoherence_params": {name: getattr(self.decoherence_params, name)
                                   for name in ("gamma_atomic", "gamma_cavity", "delta")},
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
            # "sweep" sorts last and "values" last in it.
            raw["sweep"]["values"] = _LIST_SLOT
            canonical = f"[{', '.join(self.sweep.texts)}]".join(_slot(json.dumps(raw, sort_keys=True)))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@functools.cache
def default_config() -> ScenarioConfig:
    """Built-in reference scenario with the canonical blockade-ratio grid.
    Built once per process and shared by every caller: every part of it is
    a frozen dataclass, so it cannot change."""
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
            raw = _json_loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        _json_typed(raw, "object", f"config {path!r}")
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
        params = PhysicalParams.from_dict(raw["physical_params"])
    deco = base.decoherence_params
    if "decoherence_params" in raw:
        d = _json_typed(raw["decoherence_params"], "object", "decoherence_params")
        deco = decoherence.DecoherenceParams(**{
            name: float(_json_typed(d[name], "number", name))
            for name in ("gamma_atomic", "gamma_cavity", "delta")})
    sweep = base.sweep
    if "sweep" in raw:
        sweep = SweepSpec.from_dict(raw["sweep"]) if raw["sweep"] is not None else None
    seed = seed_override if seed_override is not None else raw.get("seed", base.seed)
    if not 0 <= _json_typed(seed, "integer", "seed") < 2**64:
        raise UsageError(f"seed must be in [0, 2^64), got {seed!r}")
    out = out_override if out_override is not None else raw.get("output_dir", base.output_dir)
    return ScenarioConfig(
        scenario=_json_typed(raw.get("scenario", base.scenario), "string", "scenario"),
        physical_params=params,
        decoherence_params=deco,
        sweep=sweep,
        output_dir=out if out is None else _json_typed(out, "string", "output_dir"),
        seed=seed,
    )


def _check_budget(qubit_count: int) -> None:
    """Reject a state of ``2 ** qubit_count`` amplitudes over the budget
    before allocating it."""
    if 16 * 2 ** min(qubit_count, 64) > MAX_ARRAY_BYTES:  # k may be huge
        raise UsageError(
            f"simulate needs 16*2^{qubit_count} bytes for {qubit_count} logical "
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


def _table(columns: list, texts_of, cell: str, row: str, head: str, tail: str):
    """Yield ``head``, then the table with ``columns``, cells joined by
    ``cell`` and rows by ``row``, in blocks of ``_BLOCK_ROWS`` rows, then
    ``tail``.  A column is a list of its cells' texts, or a 1-d float array
    or sequence, which ``texts_of`` formats a block at a time; a broadcast
    (stride-0) column is formatted once per block and repeated."""
    yield head
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        texts = []
        for column in columns:
            block = column[start:start + _BLOCK_ROWS]
            if type(block) is not list:
                block = np.asarray(block)
                block = (texts_of(block[:1].tolist()) * len(block) if block.strides == (0,)
                         else texts_of(block.tolist()))
            texts.append(block)
        yield (row if start else "") + row.join(map(cell.join, zip(*texts)))
    yield tail


def _to_json(report: dict, columns: list | None = None):
    """The texts of ``json.dumps(report, indent=2)``, where given ``columns``
    (see :func:`_table`) stand for the report's ``"rows"`` table,
    ``[list(row) for row in zip(*columns)]``.  ``indent`` makes json use its
    pure-Python encoder, which is slow on a long table, so json lays out only
    the rest of the report; no string follows its ``"rows"``."""
    if columns is None:
        return (json.dumps(report, indent=2),)
    head, tail = _slot(json.dumps({**report, "rows": _LIST_SLOT}, indent=2))
    opening, closing = ("[\n    [\n      ", "\n    ]\n  ]") if len(columns[0]) else ("[]", "")
    return _table(columns, _json_texts, ",\n      ", "\n    ],\n    [\n      ",
                  head + opening, closing + tail)


def _print(texts, end: str = "\n") -> None:
    """Write ``texts``, one string or an iterable of them, then ``end``, to
    stdout, and flush.  If the reader has closed the pipe, stdout is pointed
    at the null device instead, so the command still runs to its own verdict
    and neither a later write nor the interpreter's final flush fails."""
    try:
        sys.stdout.writelines((texts,) if isinstance(texts, str) else texts)
        print(end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, out: Path | None, name: str, lines: list[str], report) -> None:
    """Print ``lines``, or under ``--json`` the report, then write the report
    to ``name`` in the output directory ``out``, if any.  ``report`` builds
    the report dict; it is called only for these two, and once."""
    text = "".join(_to_json(report())) if args.json or out is not None else None
    _print(text if args.json else "\n".join(lines))
    if out is not None:
        (out / name).write_text(text)


def _out_dir(config: ScenarioConfig) -> Path | None:
    if config.output_dir is None:
        return None
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(config: ScenarioConfig, name: str, header: str, columns: list, show: bool) -> None:
    """Write the CSV table with the 1-d float ``columns`` (see :func:`_table`)
    to ``name`` in the output directory, if any, then print it if ``show``,
    from the written file if there is one, so no row is formatted twice."""
    out = _out_dir(config)
    table = _table(columns, lambda values: list(map(_FMT.format, values)), ",", "\n", header + "\n", "\n")
    if out is not None:
        with open(out / name, "w") as file:
            file.writelines(table)
        _print(f"wrote {out / name}")
        if show:
            with open(out / name) as file:
                _print(iter(functools.partial(file.read, 1 << 20), ""), end="")
    elif show:
        _print(table, end="")


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
    try:
        gate = dynamics.extract_controlled_iswap(couplings, enforce_condition=not args.force)
    except dynamics.BlockadeConditionError as exc:
        raise VerificationError(f"{exc}; rerun with --force") from None
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

    config_hash = config.hash()
    lines = [f"controlled-swap gate, config {config_hash}"]
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
    _emit(args, _out_dir(config), "truth_table.json", lines, lambda: {
        "command": "truth-table",
        "config_hash": config_hash,
        "seed": config.seed,
        "matrix": gates.matrix_to_json(gate),
        "deviations": deviations,
        "max_deviation": max_deviation,
        "tolerance": tol,
        "pass": bool(passed),
        "resonance_residual": resonance,
        "interference_residuals": list(interference),
        "warnings": diag_warnings,
    })
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_blockade_sweep(args, config: ScenarioConfig) -> int:
    if config.sweep is None or config.sweep.parameter != "pi_to_s_ratio":
        raise UsageError("blockade-sweep needs a sweep over 'pi_to_s_ratio'")
    ratios = config.sweep.values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", physical.DispersiveRegimeWarning)
        couplings = presets.rescaled_couplings(config.physical_params, ratios)
        c2 = dynamics.sector_propagator(couplings, 1, dynamics.swap_time(couplings))[:, 1, 0]
        # |c2| as np.hypot, which equals the scalar abs (array np.abs does
        # not), taken at once so that no view keeps the propagator stack alive.
        c2 = np.hypot(c2.real, c2.imag)
        error = dynamics.blockade_error(couplings)
    _write_csv(config, "blockade_sweep.csv", "ratio,blockade_error,c2_at_swap_time",
               [ratios, error, c2], show=not args.json)
    if args.json:
        report = {"command": "blockade-sweep", "config_hash": config.hash()}
        _print(_to_json(report, [config.sweep.texts, error, c2]))
    return EXIT_OK


def cmd_compile(args, config: ScenarioConfig) -> int:
    circuit = compiler.parse_circuit(Path(args.circuit).read_text())
    if not args.fixed_set:
        program, runs = compiler._lower_exact(circuit)
        error = compiler._equivalence_error(runs, program)
        passed = error < 1e-9
        summary = {"mode": "exact", "op_count": len(program.ops), "equivalence_error": error}
        head = f"compiled {len(circuit)} gate(s) to {len(program.ops)} native op(s)"
        tail = f"logical equivalence error: {error:.3e}"
    else:
        program, results = compiler._lower_fixed_set(circuit, args.epsilon, args.max_depth)
        if program is None:
            name, result = next(reversed(results.items()))
            raise VerificationError(
                f"no fixed-set word within epsilon {args.epsilon:g} at max depth "
                f"{args.max_depth} for gate {name}; best distance {result.distance:.3e}")
        found = {name: {"gate": name, "depth": r.depth, "distance": r.distance,
                        "word": list(r.word)} for name, r in results.items()}
        details = [found[name] for name, _ in circuit if name != "CNOT"]
        worst = max((d["distance"] for d in details), default=0.0)
        passed = worst <= args.epsilon
        summary = {
            "mode": "fixed-set",
            "epsilon": args.epsilon,
            "max_depth": args.max_depth,
            "op_count": len(program.ops),
            "max_gate_distance": worst,
            "gates": details,
        }
        head = f"compiled {len(details)} single-qubit gate(s) via the fixed set"
        tail = f"max per-gate distance: {worst:.3e} (epsilon {args.epsilon:g})"
    out = _out_dir(config)
    # The listing is printed in text mode and written under --out; --json alone shows neither.
    listing = program.disassemble() if out is not None or not args.json else ""
    if out is not None:
        (out / "program.json").write_text(program.to_json())
        (out / "program.txt").write_text(listing)
    lines = [head, listing.rstrip("\n"), tail, "PASS" if passed else "FAIL"]
    _emit(args, out, "compile_report.json", lines, lambda: {
        "command": "compile", "config_hash": config.hash(), **summary, "pass": bool(passed)})
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_simulate(args, config: ScenarioConfig) -> int:
    if (args.program is None) == (args.circuit is None):
        raise UsageError("pass exactly one of --program or --circuit")
    if args.program is not None:
        program = compiler.NativeProgram.from_json(Path(args.program).read_text())
    else:
        program = compiler.lower_circuit(compiler.parse_circuit(Path(args.circuit).read_text()))
    _check_budget(program.qubit_count)
    initial = args.initial if args.initial is not None else "0" * program.qubit_count
    state, stats = simulator.run_program(program, initial)
    passed = stats.norm_defect < 1e-10
    trace_lines = [f"op {i:3d} {op.format()}"
                   for i, op in enumerate(program.ops)] if args.trace else []

    out = _out_dir(config)
    state_ref = None
    if out is not None:
        state_ref = str(out / "state.json")
        with open(state_ref, "w") as file:  # json.dumps of the [re, im] pairs
            file.writelines(_table([state.amplitudes.real, state.amplitudes.imag], _json_texts,
                                   ", ", "], [", "[[", "]]"))
    lines = trace_lines + [
        f"ran {len(program.ops)} op(s) on |{initial}>",
        f"norm defect: {stats.norm_defect:.3e}",
        f"{'PASS' if passed else 'FAIL'}",
    ]
    if state_ref:
        lines.append(f"state written to {state_ref}")
    _emit(args, out, "run_report.json", lines, lambda: {
        "command": "simulate",
        "config_hash": config.hash(),
        "seed": config.seed,
        "stats": {
            "op_count": len(program.ops),
            "norm_defect": stats.norm_defect,
            "global_phase": [program.global_phase.real, program.global_phase.imag],
        },
        "final_state_ref": state_ref,
        "pass": bool(passed),
    })
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
        help="ignored: every ratio is computed in one array call",
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
    p.add_argument("--trace", action="store_true", help="list each op before the summary")
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
