"""The four benchmark workloads: seeded inputs, one timed pass, and the
output checks.

``make_inputs`` writes every circuit, config and target to the given
directory and returns what the pass needs; ``run`` performs one pass and
returns one :class:`Outcome` per operation; ``check`` judges the outcomes
against :mod:`oracle` outside the timed region.  An operation is one CLI
call or one checked library call.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from ensembleqc import cli, compiler, dynamics, physical, presets, simulator

SQRT3 = float(np.sqrt(3.0))
SINGLE_QUBIT_GATES = ("X", "H", "S", "T")


@dataclass
class Outcome:
    label: str
    value: object = None
    error: str | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_failure(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.strip()[-300:]}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    return None


def run_ops(tracer, ops) -> list[Outcome]:
    """Run ``(label, thunk)`` pairs in order, each in its own span.  A thunk
    receives the values of the earlier operations; one that raises, or
    depends on one that raised, becomes a failed outcome."""
    outcomes, values = [], {}
    for label, thunk in ops:
        with tracer.span(f"bench.{label}"):
            try:
                values[label] = thunk(values)
                outcomes.append(Outcome(label, values[label]))
            except Exception:  # a traceback is a failed operation, not a crash
                outcomes.append(Outcome(label, error=traceback.format_exc(limit=8)))
    return outcomes


def random_circuit(rng: np.random.Generator, k: int, n_gates: int) -> list[tuple[str, tuple[int, ...]]]:
    """``n_gates`` gates on ``k`` qubits: 30% CNOT and the rest split evenly
    over X, H, S and T, in seeded order on seeded qubits.  The gate mix is
    fixed so the lowered op count, and with it the work, is the same for
    every seed."""
    n_cnot = round(0.3 * n_gates)
    n_single = n_gates - n_cnot
    names = ["CNOT"] * n_cnot + [SINGLE_QUBIT_GATES[i % 4] for i in range(n_single)]
    circuit = []
    for name in rng.permutation(names):
        if name == "CNOT":
            c, t = rng.choice(k, size=2, replace=False)
            circuit.append(("CNOT", (int(c), int(t))))
        else:
            circuit.append((str(name), (int(rng.integers(k)),)))
    return circuit


def write_circuit(path: Path, circuit) -> str:
    path.write_text("".join(f"{name} {' '.join(map(str, t))}\n" for name, t in circuit))
    return str(path)


def max_deviation(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# --- sim_large ---------------------------------------------------------------


class SimLarge:
    name = "sim_large"
    why = ("k=10 logical qubits, 4^10 amplitudes, two 100-gate circuits (30 CNOT) via CLI simulate "
           "and run_program+decode+measure_logical: apply_op and leakage on one large state dominate")
    K = 10
    GATES = 100
    # Memory-bound: its time does not follow the interpreter speed probe, and
    # scaling by it widened the ten-seed spread of wall_s from 0.06 to 0.17.
    interpreter_bound = False

    def make_inputs(self, rng, tmp: Path):
        circ_cli = random_circuit(rng, self.K, self.GATES)
        circ_run = random_circuit(rng, self.K, self.GATES)
        return {
            "cli_file": write_circuit(tmp / "simulate.txt", circ_cli),
            "run_file": write_circuit(tmp / "run.txt", circ_run),
            "run_circuit": circ_run,
            "bits": "".join(rng.choice(["0", "1"], size=self.K)),
            "measure_seed": int(rng.integers(2**63)),
        }

    def run(self, inp, tracer, batch=0):
        def run_program(values):
            circuit = compiler.parse_circuit(Path(inp["run_file"]).read_text())
            final, _ = simulator.run_program(compiler.lower_circuit(circuit), inp["bits"])
            return final, simulator.decode(final)

        def measure(values):
            state = values["run_program"][0]
            gen = np.random.default_rng(inp["measure_seed"])
            outcomes = []
            for q in range(self.K):
                outcome, state = simulator.measure_logical(state, q, gen)
                outcomes.append(outcome)
            return outcomes, state

        return run_ops(tracer, [
            ("simulate", lambda v: call_cli(["simulate", "--circuit", inp["cli_file"]])),
            ("run_program", run_program),
            ("measure", measure),
        ])

    def check(self, inp, outcome: Outcome) -> str | None:
        if outcome.label == "simulate":
            res = outcome.value
            fail = cli_failure(res)
            if fail is None and res.stdout.strip().splitlines()[-1:] != ["PASS"]:
                fail = "simulate did not report PASS"
            return fail
        expected = oracle.apply_circuit(inp["run_circuit"], oracle.basis_vector(inp["bits"]))
        if outcome.label == "run_program":
            dev = max_deviation(outcome.value[1], expected)
            return None if dev <= 1e-9 else f"decoded state deviates from the oracle by {dev:.3e}"
        outcomes, state = outcome.value
        vec = expected
        for q, o in enumerate(outcomes):
            p, vec = oracle.collapse(vec, q, o)
            if p < 1e-12:
                return f"qubit {q} gave outcome {o}, which has probability {p:.3e}"
        dev = max_deviation(simulator.decode(state), vec)
        return None if dev <= 1e-9 else f"collapsed state deviates from the oracle by {dev:.3e}"


# --- compile_check -----------------------------------------------------------


class CompileCheck:
    name = "compile_check"
    why = ("CLI compile of 10k-gate circuits at k=4,5,6; its built-in check runs 2^k programs on 4^k "
           "amplitudes, so Unitary construction and per-op overhead on small states dominate")
    KS = (4, 5, 6)
    interpreter_bound = True

    def make_inputs(self, rng, tmp: Path):
        circuits = {k: random_circuit(rng, k, 10 * k) for k in self.KS}
        return {
            "circuits": circuits,
            "files": {k: write_circuit(tmp / f"compile_k{k}.txt", c) for k, c in circuits.items()},
        }

    def run(self, inp, tracer, batch=0):
        return run_ops(tracer, [
            (f"compile_k{k}", lambda v, f=inp["files"][k]: call_cli(["compile", f]))
            for k in self.KS
        ])

    def check(self, inp, outcome: Outcome) -> str | None:
        res = outcome.value
        fail = cli_failure(res)
        if fail is not None:
            return fail
        lines = res.stdout.strip().splitlines()
        if lines[-1:] != ["PASS"]:
            return "compile did not report PASS"
        k = int(outcome.label.removeprefix("compile_k"))
        circuit = inp["circuits"][k]
        program = compiler.lower_circuit(circuit, qubit_count=k)
        if f"to {len(program.ops)} native op(s)" not in lines[0]:
            return f"op count line {lines[0]!r} disagrees with {len(program.ops)} lowered ops"
        eye = np.eye(2**k, dtype=complex)
        dev = max_deviation(oracle.apply_native(program, eye), oracle.apply_circuit(circuit, eye))
        return None if dev <= 1e-9 else f"lowered program deviates from the oracle by {dev:.3e}"


# --- physics_sweep -----------------------------------------------------------


class PhysicsSweep:
    name = "physics_sweep"
    why = ("truth-table, a 5000-ratio blockade sweep with sqrt(3) at jobs 1 and 2, a 5000-point fidelity "
           "sweep, 16 tuned presets through extraction and both integrators: no simulator")
    RATIOS = 5000
    GAMMAS = 5000
    PRESETS = 16
    SAMPLES = 1000
    PERIODS = 10
    interpreter_bound = True

    def _tuned_spec(self, rng) -> dict:
        return {
            "ratio": SQRT3,
            "s_coupling": float(10 ** rng.uniform(6.0, 9.0)),
            "n_atoms_1": int(rng.integers(1, 10_001)),
            "n_atoms_2": int(rng.integers(1, 10_001)),
            "omega_1": float(rng.normal(0.0, 1e3)),
            "dispersive_margin": float(rng.uniform(100.0, 400.0)),
        }

    def make_inputs(self, rng, tmp: Path):
        def config(name, extra):
            params = presets.blockade_tuned_params(**self._tuned_spec(rng))
            raw = {"physical_params": json.loads(params.to_json()), **extra}
            path = tmp / name
            path.write_text(json.dumps(raw))
            return str(path)

        ratios = np.sort(np.append(rng.uniform(0.0, 10.0, self.RATIOS - 1), SQRT3)).tolist()
        deco = {"gamma_atomic": 0.0, "gamma_cavity": float(10 ** rng.uniform(2.0, 5.0)),
                "delta": float(10 ** rng.uniform(7.0, 9.0))}
        specs = [self._tuned_spec(rng) for _ in range(self.PRESETS)]
        (tmp / "presets.json").write_text(json.dumps(specs))
        return {
            "truth_table": config("truth_table.json", {}),
            "sweep": config("blockade_sweep.json", {
                "sweep": {"parameter": "pi_to_s_ratio", "values": ratios}}),
            "ratios": ratios,
            "fidelity": config("fidelity.json", {
                "decoherence_params": deco,
                "sweep": {"parameter": "gamma_atomic", "min": 0.0,
                          "max": float(10 ** rng.uniform(2.0, 6.0)), "steps": self.GAMMAS}}),
            "specs": json.loads((tmp / "presets.json").read_text()),
        }

    def _evolve(self, spec):
        couplings = physical.derive_couplings(presets.blockade_tuned_params(**spec))
        gate = dynamics.extract_controlled_iswap(couplings)
        t = self.PERIODS * np.pi / abs(couplings.s_coupling)
        start = dynamics.NodePairState.excited_node_one()
        pairs = [
            (dynamics.evolve_numerical(couplings, n, t, start, samples=self.SAMPLES).trajectory,
             dynamics.evolve_closed_form(couplings, n, t, start, samples=self.SAMPLES).trajectory)
            for n in (0, 1)
        ]
        return gate.matrix, pairs

    def run(self, inp, tracer, batch=0):
        ops = [
            ("truth_table", lambda v: call_cli(["--config", inp["truth_table"], "--json", "truth-table"])),
            ("sweep_jobs1", lambda v: call_cli(["--config", inp["sweep"], "--json", "blockade-sweep", "--jobs", "1"])),
            ("sweep_jobs2", lambda v: call_cli(["--config", inp["sweep"], "--json", "blockade-sweep", "--jobs", "2"])),
            ("fidelity", lambda v: call_cli(["--config", inp["fidelity"], "--json", "fidelity"])),
        ]
        ops += [(f"dynamics_{i}", lambda v, s=spec: self._evolve(s)) for i, spec in enumerate(inp["specs"])]
        return run_ops(tracer, ops)

    def check(self, inp, outcome: Outcome) -> str | None:
        if outcome.label.startswith("dynamics_"):
            return self._check_dynamics(*outcome.value)
        res = outcome.value
        fail = cli_failure(res)
        if fail is not None:
            return fail
        report = json.loads(res.stdout)
        if outcome.label == "truth_table":
            return None if report["pass"] is True else "truth-table reported FAIL"
        rows = np.array(report["rows"], dtype=float)
        if outcome.label.startswith("sweep_"):
            return self._check_sweep(rows, inp["ratios"])
        return self._check_fidelity(rows)

    @staticmethod
    def _check_sweep(rows, ratios) -> str | None:
        if rows.shape != (len(ratios), 3) or rows[:, 0].tolist() != ratios:
            return f"sweep rows {rows.shape} do not match the {len(ratios)} requested ratios"
        ratio, err, c2 = rows.T
        bad = np.nonzero((c2 < 0.0) | (c2 > err + 1e-12) | (err > 1.0 + 1e-12))[0]
        if bad.size:
            return f"{bad.size} rows break c2 <= blockade error <= 1, first at ratio {ratio[bad[0]]!r}"
        at_sqrt3 = c2[ratio == SQRT3]
        if at_sqrt3.size != 1 or at_sqrt3[0] >= 1e-9:
            return f"c2 at ratio sqrt(3) is {at_sqrt3.tolist()}, expected one value below 1e-9"
        return None

    @staticmethod
    def _check_fidelity(rows) -> str | None:
        gamma, fidelity = rows[:, 0], rows[:, 4]
        if np.any(np.diff(gamma) <= 0.0):
            return "fidelity rows are not in increasing gamma_atomic order"
        if np.any((fidelity < 0.0) | (fidelity > 1.0)):
            return "a fidelity lies outside [0, 1]"
        if np.any(np.diff(fidelity) > 0.0):
            return "fidelity increases as gamma_atomic grows"
        return None

    @staticmethod
    def _check_dynamics(m, pairs) -> str | None:
        defect = max_deviation(m @ m.conj().T, np.eye(4))
        if defect > 1e-9:
            return f"extracted gate is not unitary: defect {defect:.3e}"
        if max(abs(m[2, 3]), abs(m[3, 2]), np.max(np.abs(m[:2, 2:])), np.max(np.abs(m[2:, :2]))) > 1e-9:
            return "one-photon sector swaps or sectors mix at the gate time"
        if max(abs(abs(m[0, 1]) - 1.0), abs(abs(m[1, 0]) - 1.0)) > 1e-9:
            return "photon-free sector does not swap completely"
        for n, (numerical, closed) in enumerate(pairs):
            dev = max_deviation(numerical, closed)
            if dev > 1e-9:
                return f"sector {n}: integrators disagree by {dev:.3e}"
        return None


# --- fixed_set_search --------------------------------------------------------


class FixedSetSearch:
    name = "fixed_set_search"
    why = ("approximate_fixed_set at max_depth 12 on 8 targets near short words (eps 0.1) and 4 Haar "
           "targets (eps 0.05) that exhaust the depth, plus one CLI compile --fixed-set")
    NEAR, NEAR_EPS, NEAR_WORD = 8, 0.1, 6
    HAAR, HAAR_EPS = 4, 0.05
    MAX_DEPTH = 12
    BATCHES = 16
    CLI_QUBITS = 3
    interpreter_bound = True

    def make_inputs(self, rng, tmp: Path):
        letters = list(oracle.FIXED_LETTERS)
        batches = []
        for _ in range(self.BATCHES):
            targets = []
            for _ in range(self.NEAR):
                # Within eps/2 of a seeded 6-letter word, so a word is found
                # at depth <= 6: Haar targets at eps 0.1 are found only about
                # half the time at depth 12, which makes pass time bimodal.
                word = rng.choice(letters, size=self.NEAR_WORD)
                u = oracle.small_rotation(rng, self.NEAR_EPS) @ oracle.word_product(word)
                targets.append((u * np.exp(2j * np.pi * rng.random()), self.NEAR_EPS))
            targets += [(oracle.haar_unitary(rng), self.HAAR_EPS) for _ in range(self.HAAR)]
            batches.append(targets)
        path = tmp / "targets.json"
        path.write_text(json.dumps([
            [{"epsilon": eps, "matrix": [[[z.real, z.imag] for z in row] for row in u]}
             for u, eps in batch] for batch in batches
        ]))
        loaded = [
            [(np.array([[complex(re, im) for re, im in row] for row in t["matrix"]]), t["epsilon"])
             for t in batch] for batch in json.loads(path.read_text())
        ]
        circuit = random_circuit(rng, self.CLI_QUBITS, 10 * self.CLI_QUBITS)
        return {"batches": loaded, "cli_file": write_circuit(tmp / "fixed_set.txt", circuit)}

    def run(self, inp, tracer, batch=0):
        targets = inp["batches"][batch % self.BATCHES]
        ops = [
            (f"search_{i}", lambda v, u=u, eps=eps: (
                u, eps, compiler.approximate_fixed_set(u, epsilon=eps, max_depth=self.MAX_DEPTH)))
            for i, (u, eps) in enumerate(targets)
        ]
        ops.append(("compile_fixed_set",
                    lambda v: call_cli(["--json", "compile", "--fixed-set", inp["cli_file"]])))
        return run_ops(tracer, ops)

    def check(self, inp, outcome: Outcome) -> str | None:
        if outcome.label == "compile_fixed_set":
            res = outcome.value
            fail = cli_failure(res)
            if fail is not None:
                return fail
            report = json.loads(res.stdout)
            if report["pass"] is not True:
                return "compile --fixed-set reported FAIL"
            for g in report["gates"]:
                gap = oracle.phase_invariant_gap(oracle.STANDARD[g["gate"]], oracle.word_product(g["word"]))
                if gap > 1e-8:
                    return f"word for {g['gate']} misses the gate by {gap:.3e}"
            return None
        u, eps, result = outcome.value
        if not result.found:
            if result.distance <= eps or result.depth != self.MAX_DEPTH:
                return f"search gave up at depth {result.depth} with best distance {result.distance:.3e}"
            return None
        if len(result.word) != result.depth or result.depth > self.MAX_DEPTH:
            return f"word of length {len(result.word)} reported at depth {result.depth}"
        if len(result.program.ops) != len(result.word):
            return "program and word lengths differ"
        gap = max_deviation(u, result.program.global_phase * oracle.word_product(result.word))
        return None if gap <= eps * (1 + 1e-12) else f"re-multiplied word misses by {gap:.3e} > {eps}"


WORKLOADS = {w.name: w for w in (SimLarge(), CompileCheck(), PhysicsSweep(), FixedSetSearch())}
