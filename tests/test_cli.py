"""Exit-code contract of the CLI: 0 pass, 1 a verification failed, 2 a usage
or config error, with one ``error: ...`` line on stderr and never a
traceback, whatever the input."""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ensembleqc
from ensembleqc import cli, dynamics, presets
from ensembleqc.physical import PhysicalParams, derive_couplings

REFERENCE = json.loads(presets.reference_params().to_json())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(path, content) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


ZERO_SIGMA = {"physical_params": dict(REFERENCE, g_sigma_1=0.0)}
PROGRAM = {"qubit_count": 1, "ops": [{"kind": "ISWAP", "targets": [0], "angles": [1.0]}]}

# (files written to the working directory, argv, expected exit code)
ERROR_CASES = {
    "decoherence_without_delta": (
        {"c.json": {"decoherence_params": {"gamma_atomic": 0.0, "gamma_cavity": 0.0}}},
        ["--config", "c.json", "fidelity"], 2),
    "config_is_a_list": ({"c.json": [1, 2]}, ["--config", "c.json", "truth-table"], 2),
    "sweep_is_a_number": ({"c.json": {"sweep": 5}}, ["--config", "c.json", "truth-table"], 2),
    "physical_params_is_a_number": (
        {"c.json": {"physical_params": 3}}, ["--config", "c.json", "truth-table"], 2),
    "fractional_atom_count": (
        {"c.json": {"physical_params": dict(REFERENCE, n_atoms_1=2.7)}},
        ["--config", "c.json", "truth-table"], 2),
    "zero_sigma_truth_table_force": (
        {"c.json": ZERO_SIGMA}, ["--config", "c.json", "truth-table", "--force"], 2),
    "zero_sigma_blockade_sweep": ({"c.json": ZERO_SIGMA}, ["--config", "c.json", "blockade-sweep"], 2),
    "zero_sigma_fidelity": ({"c.json": ZERO_SIGMA}, ["--config", "c.json", "fidelity"], 2),
    "nan_sweep_ratio": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [math.nan]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "negative_sweep_ratio_in_worker": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, -1.0]}}},
        ["--config", "c.json", "blockade-sweep", "--jobs", "2"], 2),
    "fixed_set_epsilon_zero": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "0", "c.txt"], 2),
    "fixed_set_epsilon_inf": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "inf", "c.txt"], 2),
    "fixed_set_epsilon_nan": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "nan", "c.txt"], 2),
    "fixed_set_max_depth_50": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--max-depth", "50", "c.txt"], 2),
    "non_utf8_circuit_compile": ({"c.txt": b"\xffH 0\n"}, ["compile", "c.txt"], 2),
    "non_utf8_circuit_simulate": ({"c.txt": b"\xffH 0\n"}, ["simulate", "--circuit", "c.txt"], 2),
    "program_is_a_list": ({"p.json": [PROGRAM]}, ["simulate", "--program", "p.json"], 2),
    "program_null_angles": (
        {"p.json": {"qubit_count": 1,
                    "ops": [{"kind": "ISWAP", "targets": [0], "angles": None}]}},
        ["simulate", "--program", "p.json"], 2),
    "compile_register_over_budget": ({"c.txt": "H 20\n"}, ["compile", "c.txt"], 2),
    "simulate_register_over_budget": ({"c.txt": "H 40\n"}, ["simulate", "--circuit", "c.txt"], 2),
    "simulate_state_json_over_budget": (
        {"c.txt": "H 14\n"}, ["--out", "out", "simulate", "--circuit", "c.txt"], 2),
    "simulate_program_register_huge": (
        {"p.json": {"qubit_count": 10**18, "ops": []}}, ["simulate", "--program", "p.json"], 2),
    "sweep_steps_over_cap": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "max": 1,
                              "steps": 10**15}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "fixed_set_word_not_found": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--max-depth", "1", "c.txt"], 1),
    "blockade_tuning_violated": (
        {"c.json": {"physical_params": dict(REFERENCE, g_pi_1=0.0)}},
        ["--config", "c.json", "truth-table"], 1),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_exit_code_and_single_line(case, tmp_path, monkeypatch):
    files, argv, expected = ERROR_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        write(tmp_path / name, content)
    code, stdout, stderr = run_cli(argv)
    assert code == expected
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


def test_fixed_set_keeps_cnots_and_reports_each_gate(tmp_path):
    # The fixed-set path lowers through lower_circuit: CNOTs stay single
    # controlled swaps and every single-qubit gate reports its own word.
    circuit = write(tmp_path / "c.txt", "T 1\nCNOT 1 0\nH 0\n")
    code, stdout, _ = run_cli(["--json", "compile", "--fixed-set", circuit])
    report = json.loads(stdout)
    assert code == 0 and report["pass"] is True
    assert [g["gate"] for g in report["gates"]] == ["T", "H"]
    assert report["op_count"] == 1 + sum(g["depth"] for g in report["gates"])


RATIOS = [0.0, 0.25, 1.0, presets.SQRT3, 2.5, 10.0, 100.0]


@pytest.mark.parametrize("command, sweep", [
    ("blockade-sweep", {"parameter": "pi_to_s_ratio", "values": RATIOS}),
    ("fidelity", {"parameter": "gamma_atomic", "values": [0.0, 1e3, 1e5]}),
])
def test_sweep_csv_text_is_built_only_when_used(command, sweep, tmp_path, monkeypatch):
    # Under --json without --out the CSV text would be thrown away, so its
    # rows are never formatted.
    class NoFormat:
        def format(self, value):
            raise AssertionError("CSV text built")

    path = write(tmp_path / "c.json", {"sweep": sweep})
    monkeypatch.setattr(cli, "_FMT", NoFormat())
    code, stdout, _ = run_cli(["--config", path, "--json", command])
    assert code == 0 and len(json.loads(stdout)["rows"]) == len(sweep["values"])


def test_blockade_sweep_output_does_not_depend_on_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "c.json", {"sweep": {"parameter": "pi_to_s_ratio", "values": RATIOS}})
    pools = []

    class CountingPool(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            pools.append([max_workers, 0])

        def submit(self, fn, /, *args, **kwargs):
            pools[-1][1] += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
    outputs = {}
    for jobs in (1, 2, 3, len(RATIOS) + 5, 0, -2):
        code, stdout, _ = run_cli(["--config", "c.json", "--out", "out", "blockade-sweep",
                                   "--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = (stdout, (tmp_path / "out" / "blockade_sweep.csv").read_text())
    assert all(out == outputs[1] for out in outputs.values())
    assert len(outputs[1][1].splitlines()) == 1 + len(RATIOS)
    # One pool task per worker, each a contiguous chunk; --jobs below 2 runs serially.
    assert pools == [[2, 2], [3, 3], [len(RATIOS), len(RATIOS)]]


@pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
def test_fidelity_gate_time_with_unequal_atom_counts(tmp_path):
    params = dict(REFERENCE, n_atoms_1=100, n_atoms_2=400)
    path = write(tmp_path / "c.json", {"physical_params": params})
    code, stdout, _ = run_cli(["--config", path, "--json", "fidelity"])
    report = json.loads(stdout)
    assert code == 0
    couplings = derive_couplings(PhysicalParams.from_json(json.dumps(params)))
    # pi/(2|S|) with |S| = sqrt(N1 N2)|Omega_sigma|, the time of the extracted gate ...
    t_gate = dynamics.iswap_schedule(couplings, math.pi / 2)
    assert report["gate_time"] == t_gate
    assert math.isclose(t_gate, math.pi / (2 * 200 * report["omega_sigma"]), rel_tol=1e-12)
    # ... not pi/(2 N1 |Omega_sigma|), twice as long here.
    assert math.isclose(t_gate * 2, math.pi / (2 * 100 * report["omega_sigma"]), rel_tol=1e-12)
    assert all(row[3] == t_gate for row in report["rows"])


# --- fuzzing -----------------------------------------------------------------

_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_SWEEP = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"parameter": st.sampled_from(["pi_to_s_ratio", "gamma_atomic", "gamma_cavity", "time", "x"])},
        optional={
            "values": st.lists(st.floats(-2.0, 20.0) | _LEAF, max_size=4),
            "min": _LEAF, "max": _LEAF,
            "steps": _LEAF | st.integers(min_value=cli.MAX_SWEEP_STEPS + 1),
        },
    ),
)
# Physical parameters cost no time however large, so their integers are unbounded.
_PHYSICAL = st.one_of(
    st.dictionaries(st.sampled_from(sorted(REFERENCE)), _JSON | st.integers() | st.floats(), max_size=3)
    .map(lambda changes: {**REFERENCE, **changes}),
    _JSON,
)
_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "physical_params": _PHYSICAL,
        "decoherence_params": st.fixed_dictionaries(
            {}, optional={k: _LEAF for k in ("gamma_atomic", "gamma_cavity", "delta")}) | _JSON,
        "sweep": _SWEEP,
        "seed": _LEAF,
        "scenario": _LEAF,
        "output_dir": st.integers(0, 3) | st.lists(_LEAF, max_size=2),
    },
) | _JSON

# Valid targets stay below 3 for run time; target 40 asks for a register
# over the byte budget.
_VALID_LINE = st.sampled_from(
    [f"{name} {q}" for name in "HSTX" for q in range(3)]
    + [f"CNOT {c} {t}" for c in range(3) for t in range(3) if c != t]
)
_NOISY_LINE = st.builds(
    lambda name, targets, tail: " ".join([name, *targets]) + tail,
    st.sampled_from(["H", "S", "T", "X", "CNOT", "Y", "cnot", ""]),
    st.lists(st.sampled_from(["0", "1", "2", "01", "40", "-1", "a", "1.5"]), max_size=3),
    st.sampled_from(["", " ", "\t", " # note", "#"]),
)
_LINE = st.one_of(_VALID_LINE, _VALID_LINE, _VALID_LINE, _NOISY_LINE)
_CIRCUIT = st.builds(
    lambda prefix, lines: prefix + "\n".join(lines).encode(),
    st.sampled_from([b""] * 6 + [b"\xff", b"\xef\xbb\xbf"]),
    st.lists(_LINE, max_size=6),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIG, command=st.sampled_from(
    [["truth-table"], ["truth-table", "--force"], ["blockade-sweep"], ["fidelity"]]))
def test_fuzzed_config_keeps_exit_contract(config, command, tmp_path):
    path = write(tmp_path / "fuzz.json", json.dumps(config))
    code, _, stderr = run_cli(["--config", path, *command])
    assert code in (0, 1, 2)
    assert code != 2 or stderr.startswith("error: ")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(circuit=_CIRCUIT, command=st.sampled_from(
    [["compile"], ["compile", "--fixed-set"], ["simulate", "--circuit"]]))
def test_fuzzed_circuit_keeps_exit_contract(circuit, command, tmp_path):
    path = write(tmp_path / "fuzz.txt", circuit)
    code, _, stderr = run_cli([*command, path])
    assert code in (0, 1, 2)
    assert code != 2 or stderr.startswith("error: ")


# --- exports -----------------------------------------------------------------


def test_every_export_resolves():
    for name in ensembleqc.__all__:
        assert getattr(ensembleqc, name) is not None, name


@pytest.mark.parametrize("module, name", [
    ("gates", "_controlled_swap_16"),
    ("gates", "LogicalEncoding"),
    ("gates", "DUAL_RAIL"),
    ("simulator", "_ciswap_matrix"),
    ("simulator", "_SWAP_2Q"),
    ("simulator", "PhysicalState"),
    ("simulator", "encode_state"),
    ("simulator", "leakage"),
    ("simulator", "LeakedStateError"),
    ("simulator", "_apply_unitary"),
    ("simulator", "_pair_digits"),
    ("simulator", "state_from_json"),
    ("cli", "_compile_fixed_set"),
    ("compiler", "_dedup_key"),
    ("cli", "_logical_circuit_matrix"),
    ("cli", "_logical_equivalence_error"),
    ("physical", "check_resonance_condition"),
    ("decoherence", "gate_time"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(getattr(ensembleqc, module), name)
    assert name not in ensembleqc.__all__


def test_detuning_split_is_gone():
    assert not hasattr(ensembleqc.DerivedCouplings, "detuning_split")
