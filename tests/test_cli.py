"""Exit-code contract of the CLI: 0 pass, 1 a verification failed, 2 a usage
or config error, with one ``error: ...`` line on stderr and never a
traceback, whatever the input."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ensembleqc
from ensembleqc import cli, compiler, decoherence, dynamics, gates, presets, simulator
from ensembleqc.physical import MAX_JSON_DEPTH, PhysicalParams, derive_couplings
from helpers import (
    blockade_row_reference,
    config_as_dict_reference,
    config_hash_reference,
    fidelity_row_reference,
    int_error,
    logical_circuit_matrix,
    random_resonant_params,
    run_ops_reference,
)

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
TUNED = json.loads(presets.blockade_tuned_params(presets.SQRT3).to_json())


def tuned(**changes) -> dict:
    """A config holding the sqrt(3)-tuned parameters with ``changes``."""
    return {"physical_params": dict(TUNED, **changes)}


# Couplings so large that the swap rate |S| overflows to inf.
OVERFLOWING = tuned(g_sigma_1=1e200, g_sigma_2=1e200)
# A swap coupling S with finite parts whose modulus is past the float range.
S_MODULUS_OVERFLOWS = {"physical_params": dict(
    REFERENCE, n_atoms_1=1, n_atoms_2=1, g_sigma_1=1.2e308, g_sigma_2=[1.0, 1.0],
    delta_sigma_1=0.909, delta_sigma_2=0.909)}
PROGRAM = {"qubit_count": 1, "ops": [{"kind": "ISWAP", "targets": [0], "angles": [1.0]}]}
# A JSON array nested past the parser's recursion limit.
DEEP = "[" * 10**5 + "]" * 10**5

# (files written to the working directory, argv, expected exit code)
ERROR_CASES = {
    "decoherence_without_delta": (
        {"c.json": {"decoherence_params": {"gamma_atomic": 0.0, "gamma_cavity": 0.0}}},
        ["--config", "c.json", "fidelity"], 2),
    "decoherence_params_is_a_list": (
        {"c.json": {"decoherence_params": [1]}}, ["--config", "c.json", "fidelity"], 2),
    "config_is_a_list": ({"c.json": [1, 2]}, ["--config", "c.json", "truth-table"], 2),
    "sweep_is_a_number": ({"c.json": {"sweep": 5}}, ["--config", "c.json", "truth-table"], 2),
    "physical_params_is_a_number": (
        {"c.json": {"physical_params": 3}}, ["--config", "c.json", "truth-table"], 2),
    "fractional_atom_count": (
        {"c.json": {"physical_params": dict(REFERENCE, n_atoms_1=2.7)}},
        ["--config", "c.json", "truth-table"], 2),
    "physical_bool_number": (
        {"c.json": {"physical_params": dict(REFERENCE, g_pi_2=False)}},
        ["--config", "c.json", "truth-table"], 2),
    "physical_bool_atom_count": (
        {"c.json": {"physical_params": dict(REFERENCE, n_atoms_1=True)}},
        ["--config", "c.json", "truth-table"], 2),
    "physical_bool_pair": (
        {"c.json": {"physical_params": dict(REFERENCE, g_sigma_1=[True, False])}},
        ["--config", "c.json", "truth-table"], 2),
    "zero_sigma_truth_table_force": (
        {"c.json": ZERO_SIGMA}, ["--config", "c.json", "truth-table", "--force"], 2),
    "zero_sigma_blockade_sweep": ({"c.json": ZERO_SIGMA}, ["--config", "c.json", "blockade-sweep"], 2),
    "zero_sigma_fidelity": ({"c.json": ZERO_SIGMA}, ["--config", "c.json", "fidelity"], 2),
    "overflowing_coupling_fidelity": ({"c.json": OVERFLOWING}, ["--config", "c.json", "fidelity"], 2),
    "overflowing_coupling_truth_table": (
        {"c.json": OVERFLOWING}, ["--config", "c.json", "truth-table"], 2),
    # Finite but extreme values: the swap time or a rotation angle at it is
    # not finite.
    "subnormal_coupling_swap_time_fidelity": (
        {"c.json": tuned(g_sigma_2=1e-310)}, ["--config", "c.json", "--json", "fidelity"], 2),
    "extreme_node_frequencies_truth_table": (
        {"c.json": tuned(omega_1=1e308, omega_2=-1e308)}, ["--config", "c.json", "truth-table"], 2),
    "subnormal_pi_detuning_truth_table": (
        {"c.json": tuned(delta_pi_2=1e-310, g_pi_2=1.0)}, ["--config", "c.json", "truth-table"], 2),
    "huge_sigma_coupling_truth_table_force": (
        {"c.json": tuned(g_sigma_1=1e200)}, ["--config", "c.json", "truth-table", "--force"], 2),
    "finite_split_overflowing_angle_truth_table_force": (
        {"c.json": tuned(omega_1=1e308, delta_pi_1=1e308, g_sigma_1=-1.0)},
        ["--config", "c.json", "truth-table", "--force"], 2),
    # Finite parts whose modulus overflows: complex abs() would raise.
    "coupling_modulus_overflows_truth_table": (
        {"c.json": tuned(g_sigma_1=[1.3e308, 1.3e308])}, ["--config", "c.json", "truth-table"], 2),
    "s_modulus_overflows_truth_table_force": (
        {"c.json": S_MODULUS_OVERFLOWS}, ["--config", "c.json", "truth-table", "--force"], 2),
    "s_modulus_overflows_blockade_sweep": (
        {"c.json": S_MODULUS_OVERFLOWS}, ["--config", "c.json", "blockade-sweep"], 2),
    "s_modulus_overflows_fidelity": (
        {"c.json": S_MODULUS_OVERFLOWS}, ["--config", "c.json", "fidelity"], 2),
    # The exchange rate is 0 * inf or inf - inf.
    "nan_exchange_rate_truth_table": (
        {"c.json": tuned(g_sigma_1=0.0, delta_sigma_2=1e-310)},
        ["--config", "c.json", "truth-table"], 2),
    "nan_exchange_rate_blockade_sweep": (
        {"c.json": tuned(delta_sigma_1=1e-310, delta_sigma_2=-1e-310)},
        ["--config", "c.json", "--json", "blockade-sweep"], 2),
    "nan_sweep_ratio": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [math.nan]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "negative_sweep_ratio_in_worker": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, -1.0]}}},
        ["--config", "c.json", "blockade-sweep", "--jobs", "2"], 2),
    # A target that passes the syntax check but not int()'s digit limit.
    "oversized_target_compile": ({"c.txt": "H " + "9" * 5000 + "\n"}, ["compile", "c.txt"], 2),
    "oversized_target_simulate": (
        {"c.txt": "H " + "9" * 5000 + "\n"}, ["simulate", "--circuit", "c.txt"], 2),
    "fixed_set_epsilon_zero": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "0", "c.txt"], 2),
    "fixed_set_epsilon_inf": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "inf", "c.txt"], 2),
    "fixed_set_epsilon_nan": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--epsilon", "nan", "c.txt"], 2),
    "fixed_set_max_depth_50": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--max-depth", "50", "c.txt"], 2),
    # Without a single-qubit gate the search never runs; the options are checked anyway.
    "fixed_set_cnot_only_epsilon_inf": (
        {"c.txt": "CNOT 0 1\n"}, ["compile", "--fixed-set", "--epsilon", "inf", "c.txt"], 2),
    "fixed_set_cnot_only_max_depth_99": (
        {"c.txt": "CNOT 0 1\n"}, ["compile", "--fixed-set", "--max-depth", "99", "c.txt"], 2),
    "fixed_set_cnot_only_max_depth_negative": (
        {"c.txt": "CNOT 0 1\n"}, ["compile", "--fixed-set", "--max-depth", "-1", "c.txt"], 2),
    "huge_sweep_ratio": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, 1e300]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "non_utf8_circuit_compile": ({"c.txt": b"\xffH 0\n"}, ["compile", "c.txt"], 2),
    # A target is ASCII digits with an optional minus sign, not what int() reads.
    "circuit_target_underscore": ({"c.txt": "H 1_0\n"}, ["compile", "c.txt"], 2),
    "circuit_target_non_ascii_digit": (
        {"c.txt": "H \u0663\n".encode()}, ["compile", "c.txt"], 2),
    "circuit_target_plus_sign": ({"c.txt": "H +1\n"}, ["simulate", "--circuit", "c.txt"], 2),
    "non_utf8_circuit_simulate": ({"c.txt": b"\xffH 0\n"}, ["simulate", "--circuit", "c.txt"], 2),
    # Nesting too deep to parse is malformed input, not a RecursionError.
    "deep_config_truth_table": ({"c.json": DEEP}, ["--config", "c.json", "truth-table"], 2),
    "deep_config_fidelity": ({"c.json": DEEP}, ["--config", "c.json", "fidelity"], 2),
    "deep_config_blockade_sweep": (
        {"c.json": '{"sweep": ' + DEEP + "}"}, ["--config", "c.json", "blockade-sweep"], 2),
    "deep_program": ({"p.json": DEEP}, ["simulate", "--program", "p.json"], 2),
    "program_is_a_list": ({"p.json": [PROGRAM]}, ["simulate", "--program", "p.json"], 2),
    "program_null_angles": (
        {"p.json": {"qubit_count": 1,
                    "ops": [{"kind": "ISWAP", "targets": [0], "angles": None}]}},
        ["simulate", "--program", "p.json"], 2),
    # Program values are JSON-typed too.
    "program_qubit_count_fraction": (
        {"p.json": dict(PROGRAM, qubit_count=1.5)}, ["simulate", "--program", "p.json"], 2),
    "program_qubit_count_bool": (
        {"p.json": dict(PROGRAM, qubit_count=True)}, ["simulate", "--program", "p.json"], 2),
    "program_qubit_count_string": (
        {"p.json": dict(PROGRAM, qubit_count="2")}, ["simulate", "--program", "p.json"], 2),
    "program_target_fraction": (
        {"p.json": dict(PROGRAM, ops=[dict(PROGRAM["ops"][0], targets=[0.9])])},
        ["simulate", "--program", "p.json"], 2),
    "program_target_bool": (
        {"p.json": dict(PROGRAM, ops=[dict(PROGRAM["ops"][0], targets=[False])])},
        ["simulate", "--program", "p.json"], 2),
    "program_angle_string": (
        {"p.json": dict(PROGRAM, ops=[dict(PROGRAM["ops"][0], angles=["0.5"])])},
        ["simulate", "--program", "p.json"], 2),
    "program_angle_bool": (
        {"p.json": dict(PROGRAM, ops=[dict(PROGRAM["ops"][0], angles=[True])])},
        ["simulate", "--program", "p.json"], 2),
    "program_kind_number": (
        {"p.json": dict(PROGRAM, ops=[dict(PROGRAM["ops"][0], kind=5)])},
        ["simulate", "--program", "p.json"], 2),
    "program_phase_three_entries": (
        {"p.json": dict(PROGRAM, global_phase=[1.0, 0.0, 0.0])},
        ["simulate", "--program", "p.json"], 2),
    "program_phase_one_entry": (
        {"p.json": dict(PROGRAM, global_phase=[1.0])}, ["simulate", "--program", "p.json"], 2),
    "program_phase_bools": (
        {"p.json": dict(PROGRAM, global_phase=[True, False])},
        ["simulate", "--program", "p.json"], 2),
    "program_phase_number": (
        {"p.json": dict(PROGRAM, global_phase=1.0)}, ["simulate", "--program", "p.json"], 2),
    # A global phase is a unit complex number.
    "program_phase_overflowing_modulus": (
        {"p.json": dict(PROGRAM, global_phase=[1e308, 1e308])},
        ["simulate", "--program", "p.json"], 2),
    "program_phase_modulus_off_by_1e_7": (
        {"p.json": dict(PROGRAM, global_phase=[0.6, 0.8000001])},
        ["simulate", "--program", "p.json"], 2),
    # A tolerance no deviation can pass is a usage error, not a failed check.
    "truth_table_tol_negative": ({}, ["truth-table", "--tol", "-1"], 2),
    "truth_table_tol_zero": ({}, ["truth-table", "--tol", "0"], 2),
    "truth_table_tol_nan": ({}, ["truth-table", "--tol", "nan"], 2),
    "truth_table_tol_inf": ({}, ["truth-table", "--tol", "inf"], 2),
    "simulate_register_over_budget": ({"c.txt": "H 40\n"}, ["simulate", "--circuit", "c.txt"], 2),
    "simulate_state_json_over_budget": (
        {"c.txt": "H 40\n"}, ["--out", "out", "simulate", "--circuit", "c.txt"], 2),
    "simulate_program_register_huge": (
        {"p.json": {"qubit_count": 10**18, "ops": []}}, ["simulate", "--program", "p.json"], 2),
    "sweep_steps_over_cap": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "max": 1,
                              "steps": 10**15}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_over_cap": (
        {"c.json": {"sweep": {"parameter": "gamma_atomic",
                              "values": [0] * (cli.MAX_SWEEP_STEPS + 1)}}},
        ["--config", "c.json", "fidelity"], 2),
    # Config values are JSON-typed: no string, bool or object stands in for a
    # number, and no fraction for an integer.
    "sweep_values_string": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": "123"}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_bools": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [True, False]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_one_bool": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, True]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_numeric_string": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, "2"]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_object": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": {"1": 2, "3": 4}}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_empty": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": []}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_values_null": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "values": None}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    # A non-finite endpoint, or a span past the float range, is reported once,
    # with no numpy warning before it.
    "sweep_max_not_finite": (
        {"c.json": '{"sweep": {"parameter": "gamma_atomic", "min": 0, "max": 1e400, "steps": 3}}'},
        ["--config", "c.json", "fidelity"], 2),
    "sweep_span_overflows": (
        {"c.json": {"sweep": {"parameter": "gamma_atomic", "min": -1e308, "max": 1e308,
                              "steps": 3}}},
        ["--config", "c.json", "fidelity"], 2),
    "sweep_steps_fraction": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "max": 1, "steps": 2.9}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_steps_string": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "max": 1, "steps": "3"}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_steps_bool": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "max": 1, "steps": True}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_min_string": (
        {"c.json": {"sweep": {"parameter": "gamma_atomic", "min": "0", "max": 1, "steps": 3}}},
        ["--config", "c.json", "fidelity"], 2),
    "sweep_max_bool": (
        {"c.json": {"sweep": {"parameter": "gamma_atomic", "min": 0, "max": True, "steps": 3}}},
        ["--config", "c.json", "fidelity"], 2),
    "decoherence_numeric_string": (
        {"c.json": {"decoherence_params": {"gamma_atomic": "1e3", "gamma_cavity": 0.0,
                                           "delta": 1e9}}},
        ["--config", "c.json", "fidelity"], 2),
    "decoherence_bool": (
        {"c.json": {"decoherence_params": {"gamma_atomic": 0.0, "gamma_cavity": 0.0,
                                           "delta": True}}},
        ["--config", "c.json", "fidelity"], 2),
    "seed_fraction": ({"c.json": {"seed": 1.5}}, ["--config", "c.json", "truth-table"], 2),
    "seed_negative": ({"c.json": {"seed": -3}}, ["--config", "c.json", "truth-table"], 2),
    "seed_two_to_the_64": ({"c.json": {"seed": 2**64}}, ["--config", "c.json", "truth-table"], 2),
    "seed_string": ({"c.json": {"seed": "7"}}, ["--config", "c.json", "truth-table"], 2),
    "seed_bool": ({"c.json": {"seed": True}}, ["--config", "c.json", "truth-table"], 2),
    "seed_option_negative": ({}, ["--seed", "-1", "truth-table"], 2),
    "scenario_list": ({"c.json": {"scenario": [1, 2]}}, ["--config", "c.json", "truth-table"], 2),
    "scenario_number": ({"c.json": {"scenario": 5}}, ["--config", "c.json", "truth-table"], 2),
    "fixed_set_word_not_found": (
        {"c.txt": "H 0\n"}, ["compile", "--fixed-set", "--max-depth", "1", "c.txt"], 1),
    "blockade_tuning_violated": (
        {"c.json": {"physical_params": dict(REFERENCE, g_pi_1=0.0)}},
        ["--config", "c.json", "truth-table"], 1),
    # Off the tuning and with a relative phase angle of -inf: the gate is
    # undefined before the tuning is checked, as extract_controlled_iswap
    # checks them.
    "off_tuning_infinite_phase_angle_truth_table": (
        {"c.json": {"physical_params": dict(
            n_atoms_1=10**9, n_atoms_2=1, g_sigma_1=1.0, g_sigma_2=1.0, g_pi_1=1e154, g_pi_2=0.0,
            omega_1=0.0, omega_2=0.0, delta_sigma_1=1.0, delta_sigma_2=1.0, delta_pi_1=-1.0,
            delta_pi_2=-1.0)}},
        ["--config", "c.json", "truth-table"], 2),
    "sweep_parameter_unknown": (
        {"c.json": {"sweep": {"parameter": "nope", "values": [1.0]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "sweep_grid_without_max": (
        {"c.json": {"sweep": {"parameter": "pi_to_s_ratio", "min": 0, "steps": 3}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "blockade_sweep_over_gamma_atomic": (
        {"c.json": {"sweep": {"parameter": "gamma_atomic", "values": [1.0]}}},
        ["--config", "c.json", "blockade-sweep"], 2),
    "simulate_without_input": ({}, ["simulate"], 2),
    "simulate_program_and_circuit": (
        {"p.json": PROGRAM, "c.txt": "H 0\n"},
        ["simulate", "--program", "p.json", "--circuit", "c.txt"], 2),
    "program_qubit_count_zero": (
        {"p.json": {"qubit_count": 0, "ops": []}}, ["simulate", "--program", "p.json"], 2),
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
    # Each config value is named by its own check, not by the catch-all for
    # a TypeError in Python's own wording.
    assert not stderr.startswith("error: malformed config"), stderr


def test_off_tuning_truth_table_error_is_the_extractors(tmp_path):
    # The one blockade check is extract_controlled_iswap's: its error, with
    # the relative deviation and |c2|, then the hint to rerun with --force.
    params = presets.blockade_tuned_params(1.0)
    path = write(tmp_path / "c.json", {"physical_params": json.loads(params.to_json())})
    code, stdout, stderr = run_cli(["--config", path, "truth-table"])
    with pytest.raises(dynamics.BlockadeConditionError) as err:
        dynamics.extract_controlled_iswap(derive_couplings(params))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {err.value}; rerun with --force\n"
    assert "relative deviation 4.226e-01" in stderr and "|c2| = " in stderr
    code, stdout, stderr = run_cli(["--config", path, "truth-table", "--force"])
    assert (code, stderr) == (1, "") and "FAIL max deviation" in stdout


# The longest error line that a rejected program value may print.
MAX_ERROR_LINE = 100


def test_rejected_targets_are_shown_shortened(tmp_path, monkeypatch):
    # Targets nested as deep as a program may be: one error line, the value
    # shortened.
    monkeypatch.chdir(tmp_path)
    depth = MAX_JSON_DEPTH - 3  # inside the program, its ops and one op
    write(tmp_path / "p.json", '{"qubit_count": 1, "ops": [{"kind": "ISWAP", "targets": '
          + "[" * depth + "0" + "]" * depth + ', "angles": [1.0]}]}')
    code, stdout, stderr = run_cli(["simulate", "--program", "p.json"])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: targets must be integers, got [[[[")
    assert stderr.count("\n") == 1 and len(stderr) <= MAX_ERROR_LINE, stderr[:200]


def at_depth(frames: int, function, *args):
    """``function(*args)``, called ``frames`` Python frames deeper."""
    return function(*args) if frames == 0 else at_depth(frames - 1, function, *args)


@pytest.mark.parametrize("frames", [0, 50, 100, 200])
def test_json_nesting_verdict_does_not_depend_on_the_caller(frames, tmp_path, monkeypatch):
    # An unused config key: json's parser alone decides, not the CLI's checks.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "deep.json", '{"unused": ' + "[" * 900 + "]" * 900 + "}")
    depth = MAX_JSON_DEPTH - 1
    write(tmp_path / "limit.json", '{"unused": ' + "[" * depth + "]" * depth + "}")
    code, stdout, stderr = at_depth(frames, run_cli, ["--config", "deep.json", "truth-table"])
    assert (code, stdout, stderr) == (2, "", "error: cannot read config 'deep.json': JSON nesting "
                                      f"is too deep (more than {MAX_JSON_DEPTH} levels)\n")
    code, _, stderr = at_depth(frames, run_cli, ["--config", "limit.json", "truth-table"])
    assert code == cli.EXIT_OK, stderr


@pytest.mark.parametrize("target, message", [
    ("1_0", "targets must be integers, got ['1_0']"),
    ("\u0663", "targets must be integers, got ['\u0663']"),
    ("+1", "targets must be integers, got ['+1']"),
    ("-1", "targets must be nonnegative"),
    pytest.param("9" * 5000, int_error("9" * 5000), id="oversized"),
])
def test_compile_names_the_line_of_a_bad_target(target, message, tmp_path):
    path = write(tmp_path / "c.txt", f"X 0\nH {target}\n".encode())
    assert run_cli(["compile", path]) == (2, "", f"error: line 2: {message}\n")


@pytest.mark.parametrize("argv", [["compile"], ["compile", "--fixed-set"],
                                  ["simulate", "--circuit"]])
def test_each_gate_is_checked_once(argv, tmp_path, monkeypatch):
    # parse_circuit checks each gate by the one gate rule, and the lowering
    # takes its checked circuit without a second pass.
    checked = []
    rule = compiler._checked_gate

    def rule_spy(name, targets):
        checked.append(name)
        return rule(name, targets)

    monkeypatch.setattr(compiler, "_checked_gate", rule_spy)
    text = random_circuit_text(np.random.default_rng(5), 4, 40)
    code, _, stderr = run_cli([*argv, write(tmp_path / "c.txt", text)])
    assert (code, stderr) == (0, "")
    assert checked == [line.split()[0] for line in text.splitlines()]


def test_fixed_set_keeps_cnots_and_reports_each_gate(tmp_path, monkeypatch):
    # The fixed-set path is one compiler call: CNOTs stay single controlled
    # swaps and every single-qubit gate reports its own word, while each gate
    # name's table matrix is searched once, in first-occurrence order.
    searched = []
    search = compiler.approximate_fixed_set

    def search_spy(u, **options):
        searched.append(u)
        return search(u, **options)

    monkeypatch.setattr(compiler, "approximate_fixed_set", search_spy)
    circuit = write(tmp_path / "c.txt", "T 1\nCNOT 1 0\nH 0\nT 0\nH 1\n")
    code, stdout, _ = run_cli(["--json", "compile", "--fixed-set", circuit])
    report = json.loads(stdout)
    assert code == 0 and report["pass"] is True
    assert [g["gate"] for g in report["gates"]] == ["T", "H", "T", "H"]
    assert report["gates"][2:] == report["gates"][:2]
    assert report["op_count"] == 1 + sum(g["depth"] for g in report["gates"])
    assert len(searched) == 2
    assert searched[0] is gates._STANDARD["T"] and searched[1] is gates._STANDARD["H"]


def test_fixed_set_failure_names_the_first_gate_without_a_word(tmp_path):
    # S has a word at depth 1 and H has none, so the search stops at H.
    circuit = write(tmp_path / "c.txt", "S 0\nH 1\nT 0\n")
    code, stdout, stderr = run_cli(["compile", "--fixed-set", "--max-depth", "1", circuit])
    assert (code, stdout, stderr.count("\n")) == (1, "", 1)
    assert stderr.startswith("error: no fixed-set word within epsilon 1e-09 at max depth 1 for gate H;")


# --- success output ------------------------------------------------------------


def random_circuit_text(rng: np.random.Generator, k: int, gate_count: int) -> str:
    lines = []
    for _ in range(gate_count):
        name = ["X", "H", "S", "T", "CNOT"][rng.integers(5)]
        if name == "CNOT":
            control, target = rng.choice(k, size=2, replace=False)
            lines.append(f"CNOT {control} {target}")
        else:
            lines.append(f"{name} {rng.integers(k)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [3, 6, 8])
def test_simulate_and_compile_report_success(k, tmp_path):
    text = random_circuit_text(np.random.default_rng(70 + k), k, 12 * k)
    path = write(tmp_path / "c.txt", text)
    op_count = len(compiler.lower_circuit(compiler.parse_circuit(text)).ops)
    code, stdout, stderr = run_cli(["--json", "simulate", "--circuit", path])
    report = json.loads(stdout)
    assert (code, stderr, report["pass"]) == (0, "", True)
    assert report["stats"]["op_count"] == op_count
    assert report["stats"]["norm_defect"] < 1e-12
    code, stdout, stderr = run_cli(["--json", "compile", path])
    report = json.loads(stdout)
    assert (code, stderr, report["pass"]) == (0, "", True)
    assert report["op_count"] == op_count
    assert report["equivalence_error"] < 1e-12


def test_compile_check_needs_no_register_sized_array(tmp_path):
    # The run-by-run check costs O(gates): a k=20 register, whose 4^20
    # unitaries the check once built, compiles and passes.
    path = write(tmp_path / "c.txt", "H 20\n")
    code, stdout, stderr = run_cli(["--json", "compile", path])
    report = json.loads(stdout)
    assert (code, stderr, report["pass"], report["op_count"]) == (0, "", True, 3)
    assert report["equivalence_error"] < 1e-15


MUTATION_CIRCUIT = "H 0\nT 0\nH 1\nCNOT 0 1\nH 0\nS 1\nCNOT 1 0\nT 0\nH 1\n"


def _nudge_angle(ops):
    index = next(i for i, op in enumerate(ops) if op.kind == compiler.ISWAP_KIND)
    op = ops[index]
    ops[index] = compiler.NativeOp(op.kind, op.targets, (op.angles[0] + 1e-6,))


def _swap_run_ops(ops):
    assert ops[0].targets == ops[1].targets and ops[0].kind != ops[1].kind
    ops[0], ops[1] = ops[1], ops[0]


def _reverse_ciswap(ops):
    index = next(i for i, op in enumerate(ops) if op.kind == compiler.CISWAP_KIND)
    ops[index] = compiler.NativeOp(compiler.CISWAP_KIND, ops[index].targets[::-1])


def _move_across_cnot(ops):
    # The last op before the first CISWAP ends the run of H 1 on its target,
    # which flushes last; move it past the CISWAP.
    index = next(i for i, op in enumerate(ops) if op.kind == compiler.CISWAP_KIND)
    assert ops[index - 1].targets == (ops[index].targets[1],)
    ops[index - 1], ops[index] = ops[index], ops[index - 1]


@pytest.mark.parametrize("corrupt", [
    _nudge_angle, _swap_run_ops, _reverse_ciswap, _move_across_cnot, "negate_phase",
])
def test_compile_check_fails_a_corrupted_program(corrupt, tmp_path, monkeypatch):
    path = write(tmp_path / "c.txt", MUTATION_CIRCUIT)
    lower = compiler._lower_exact

    def corrupted(circuit):
        program, runs = lower(circuit)
        if corrupt == "negate_phase":
            program.global_phase = -program.global_phase
        else:
            corrupt(program.ops)
        return program, runs

    monkeypatch.setattr(compiler, "_lower_exact", corrupted)
    code, stdout, stderr = run_cli(["--json", "compile", path])
    report = json.loads(stdout)
    assert (code, stderr, report["pass"]) == (1, "", False)
    assert report["equivalence_error"] > 1e-9


@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       corruption=st.sampled_from(["none", "nudge", "negate_phase"]))
@settings(max_examples=40, deadline=None)
def test_compile_check_agrees_with_the_full_matrix_oracle(k, seed, corruption):
    # The run-by-run verdict equals the 2^k x 2^k verdict, on lowered
    # programs and on programs with one angle moved by 1e-6 or the global
    # phase negated.
    rng = np.random.default_rng(seed)
    names = ["X", "H", "S", "T"] + ["CNOT"] * (k > 1)
    circuit = []
    for name in (names[i] for i in rng.integers(len(names), size=int(rng.integers(0, 25)))):
        size = 2 if name == "CNOT" else 1
        circuit.append((name, tuple(int(q) for q in rng.choice(k, size=size, replace=False))))
    program, runs = compiler._lower_exact(circuit, qubit_count=k)
    assert program == compiler.lower_circuit(circuit, qubit_count=k)
    singles = [i for i, op in enumerate(program.ops) if op.kind != compiler.CISWAP_KIND]
    if corruption == "nudge" and singles:
        i = singles[rng.integers(len(singles))]
        op = program.ops[i]
        program.ops[i] = compiler.NativeOp(op.kind, op.targets,
                                           (op.angles[0] + 1e-6,) + op.angles[1:])
    elif corruption == "negate_phase":
        program.global_phase = -program.global_phase
    matrix = run_ops_reference(program, np.eye(2**k, dtype=complex)) * program.global_phase
    oracle_error = float(np.max(np.abs(matrix - logical_circuit_matrix(circuit, k))))
    error = compiler._equivalence_error(runs, program)
    assert (error < 1e-9) == (oracle_error < 1e-9)
    assert (error < 1e-12) == (corruption == "none" or not singles and corruption == "nudge")


def test_compile_fuses_the_circuit_once(tmp_path, monkeypatch):
    # The lowering fuses the circuit and the check reuses its runs, so one
    # exact compile fuses twice: the circuit once and the program once.
    path = write(tmp_path / "c.txt", MUTATION_CIRCUIT)
    calls = []
    fuse = compiler.fused_runs

    def spy(steps):
        calls.append(1)
        return fuse(steps)

    monkeypatch.setattr(compiler, "fused_runs", spy)
    code, stdout, stderr = run_cli(["--json", "compile", path])
    assert (code, stderr, json.loads(stdout)["pass"]) == (0, "", True)
    assert len(calls) == 2


def test_default_config_is_built_once_and_never_changes(tmp_path):
    base = cli.default_config()
    before = base.as_dict()
    raw = {
        "scenario": "other",
        "physical_params": TUNED,
        "decoherence_params": {"gamma_atomic": 1.0, "gamma_cavity": 2.0, "delta": 3e9},
        "sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, 2.0]},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    config = cli.load_config(write(tmp_path / "all.json", raw), None, None)
    assert all(getattr(config, f.name) != getattr(base, f.name)
               for f in dataclasses.fields(config))
    code, _, stderr = run_cli(["--config", str(tmp_path / "all.json"), "--json",
                               "blockade-sweep"])
    assert (code, stderr) == (0, "")
    assert cli.default_config() is base
    assert base.as_dict() == before


def test_state_json_holds_the_logical_amplitudes(tmp_path, monkeypatch):
    # k = 15: 2^15 amplitudes fit the array budget; the 4^15 register would not.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "c.txt", "H 14\n")
    code, _, stderr = run_cli(["--out", "out", "simulate", "--circuit", "c.txt"])
    assert (code, stderr) == (0, "")
    state = np.array([complex(re, im) for re, im in
                      json.loads((tmp_path / "out" / "state.json").read_text())])
    expected = np.zeros(2**15, dtype=complex)
    expected[[0, 2**14]] = 2**-0.5
    assert state.shape == (32768,) and np.max(np.abs(state - expected)) < 1e-15


@pytest.mark.parametrize("seed", range(3))
def test_truth_table_report_at_sqrt3(seed, tmp_path):
    rng = np.random.default_rng(90 + seed)
    params = presets.blockade_tuned_params(
        presets.SQRT3,
        s_coupling=float(rng.uniform(0.5, 2.0)),
        n_atoms_1=int(rng.integers(1, 7)),
        n_atoms_2=int(rng.integers(1, 7)),
        omega_1=float(rng.uniform(-2.0, 2.0)),
        dispersive_margin=float(rng.uniform(150.0, 400.0)),
    )
    path = write(tmp_path / "c.json", {"physical_params": json.loads(params.to_json()), "seed": seed})
    code, stdout, stderr = run_cli(["--config", path, "--json", "truth-table"])
    report = json.loads(stdout)
    assert (code, stderr, report["pass"]) == (0, "", True)
    assert report["max_deviation"] < report["tolerance"]
    config = cli.load_config(path, None, None)
    expected = dynamics.extract_controlled_iswap(derive_couplings(config.physical_params)).matrix
    pairs = np.array(report["matrix"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], expected)
    assert report["config_hash"] == config_hash_reference(config)


@pytest.mark.parametrize("argv, verdict", [
    (["--json", "fidelity"], 0),
    (["fidelity"], 0),
    (["truth-table"], 0),
    (["--json", "compile", "c.txt"], 0),
    (["--config", "c.json", "truth-table", "--force"], 1),
])
def test_closed_stdout_is_not_an_error(argv, verdict, tmp_path):
    # The reader has left before the child writes: no error line, and the
    # exit code is the command's own verdict, not a usage error.
    write(tmp_path / "c.txt", "H 0\nCNOT 0 1\nT 1\n")
    write(tmp_path / "c.json", {"physical_params": json.loads(presets.blockade_tuned_params(1.0).to_json())})
    src = str(Path(ensembleqc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ensembleqc", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (verdict, b"")


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path, monkeypatch):
    # One parser serves every main call in a process; each call parses into
    # a fresh namespace, so flags and subcommands never carry over.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "c.txt", "H 0\nCNOT 0 1\n")
    assert cli.build_parser() is cli.build_parser()
    code, traced, _ = run_cli(["simulate", "--circuit", "c.txt", "--trace", "--initial", "10"])
    assert code == 0 and traced.startswith("op   0 ")
    code, plain, _ = run_cli(["simulate", "--circuit", "c.txt"])
    assert code == 0 and "ran 4 op(s) on |00>" in plain
    assert not any(line.startswith("op ") for line in plain.splitlines())
    code, stdout, _ = run_cli(["--json", "--seed", "5", "--out", "out", "truth-table"])
    assert code == 0 and json.loads(stdout)["seed"] == 5 and (tmp_path / "out").is_dir()
    code, stdout, _ = run_cli(["--json", "truth-table"])
    assert code == 0 and json.loads(stdout)["seed"] == 0
    code, stdout, _ = run_cli(["compile", "c.txt"])
    assert code == 0 and stdout.startswith("compiled 2 gate(s)")
    code, stdout, _ = run_cli(["--json", "compile", "--fixed-set", "--max-depth", "6", "c.txt"])
    assert code == 0 and json.loads(stdout)["max_depth"] == 6
    code, stdout, _ = run_cli(["--json", "compile", "--fixed-set", "c.txt"])
    assert code == 0 and json.loads(stdout)["max_depth"] == 8
    code, _, stderr = run_cli(["simulate", "--circuit", "c.txt", "--initial", "1"])
    assert code == 2 and stderr.startswith("error: ")
    code, stdout, _ = run_cli(["simulate", "--circuit", "c.txt"])
    assert stdout == plain


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

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("thread pool built")

    # --jobs is accepted and ignored: every ratio is one array call.
    monkeypatch.setattr(cli, "ThreadPoolExecutor", NoPool)
    outputs = {}
    for jobs in (1, 2, 3, len(RATIOS) + 5, 0, -2):
        code, stdout, _ = run_cli(["--config", "c.json", "--out", "out", "blockade-sweep",
                                   "--jobs", str(jobs)])
        assert code == 0
        outputs[jobs] = (stdout, (tmp_path / "out" / "blockade_sweep.csv").read_text())
    assert all(out == outputs[1] for out in outputs.values())
    assert len(outputs[1][1].splitlines()) == 1 + len(RATIOS)


def test_tables_are_written_alike_at_every_block_size(tmp_path, monkeypatch):
    # Tables are formatted and written _BLOCK_ROWS rows at a time; a block
    # boundary after any row changes no byte of any output, and the JSON
    # ones are json's own layouts.
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "c.json", {"sweep": {"parameter": "pi_to_s_ratio", "values": RATIOS}})
    write(tmp_path / "c.txt", "H 0\nT 1\nCNOT 0 2\nH 2\nS 1\n")
    runs = [["--config", "c.json", "blockade-sweep"],
            ["--config", "c.json", "--out", "out", "blockade-sweep"],
            ["--config", "c.json", "--json", "blockade-sweep"],
            ["--json", "fidelity"],
            ["--out", "out", "simulate", "--circuit", "c.txt"]]

    def outputs() -> list[str]:
        texts = []
        for argv in runs:
            code, stdout, _ = run_cli(argv)
            assert code == 0
            texts.append(stdout)
        return texts + [(tmp_path / "out" / name).read_text()
                        for name in ("blockade_sweep.csv", "state.json")]

    expected = outputs()
    for rows in (1, 2, 3):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        assert outputs() == expected
    for report in expected[2:4]:
        assert report == json.dumps(json.loads(report), indent=2) + "\n"
    assert expected[1] == f"wrote {Path('out', 'blockade_sweep.csv')}\n" + expected[0]
    assert expected[0] == expected[5] and len(expected[0].splitlines()) == 1 + len(RATIOS)
    program = compiler.lower_circuit(compiler.parse_circuit((tmp_path / "c.txt").read_text()))
    state, _ = simulator.run_program(program, "000")
    assert len(state.amplitudes) == 8  # more rows than any block above
    assert expected[6] == json.dumps([[a.real, a.imag] for a in state.amplitudes.tolist()])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_are_accepted(seed, tmp_path):
    path = write(tmp_path / "c.json", {"seed": seed})
    code, stdout, _ = run_cli(["--config", path, "--json", "truth-table"])
    assert code == 0 and json.loads(stdout)["seed"] == seed
    code, stdout, _ = run_cli(["--seed", str(seed), "--json", "truth-table"])
    assert code == 0 and json.loads(stdout)["seed"] == seed


@pytest.mark.parametrize("seed", range(3))
def test_blockade_sweep_report_equals_reference(seed, tmp_path):
    # The whole --json report, byte for byte, from the scalar row reference
    # and json's own layout.
    rng = np.random.default_rng(90 + seed)
    params = random_resonant_params(rng, ratio_max=10.0)
    ratios = [presets.SQRT3] + (rng.uniform(0.0, 10.0, 40) * 10.0 ** rng.uniform(-3.0, 3.0, 40)).tolist()
    path = write(tmp_path / "c.json", {
        "physical_params": json.loads(params.to_json()),
        "sweep": {"parameter": "pi_to_s_ratio", "values": ratios},
        "seed": int(rng.integers(2**63)),
    })
    code, stdout, stderr = run_cli(["--config", path, "--json", "blockade-sweep"])
    report = {
        "command": "blockade-sweep",
        "config_hash": config_hash_reference(cli.load_config(path, None, None)),
        "rows": [list(blockade_row_reference(params, r)) for r in ratios],
    }
    assert (code, stderr) == (0, "")
    assert stdout == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("parameter", ["gamma_atomic", "gamma_cavity", "time"])
@pytest.mark.parametrize("seed", range(2))
def test_fidelity_report_equals_reference(parameter, seed, tmp_path):
    rng = np.random.default_rng(95 + seed)
    params = random_resonant_params(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        couplings = derive_couplings(params)
    t_gate = dynamics.swap_time(couplings)
    delta = float(10 ** rng.uniform(7.0, 9.0))
    # Where each term alone spends the 1e-4 error budget; the constant terms
    # spend at most a tenth of it each.
    edge = {0: 1e-4 / (2.0 * t_gate), 1: 1e-4 * 2.0 * delta / math.pi}
    inputs = [edge[0] * 10 ** rng.uniform(-3.0, -1.0), edge[1] * 10 ** rng.uniform(-3.0, -1.0),
              delta, t_gate]
    edge[3] = 1e-4 / (2.0 * inputs[0])
    column = {"gamma_atomic": 0, "gamma_cavity": 1, "time": 3}[parameter]
    # Values on both sides of the edge, in random order, so the report has
    # frontier rows.
    values = (edge[column] * 10.0 ** rng.uniform(-1.0, 1.0, 30)).tolist()
    path = write(tmp_path / "c.json", {
        "physical_params": json.loads(params.to_json()),
        "decoherence_params": dict(zip(["gamma_atomic", "gamma_cavity", "delta"], inputs)),
        "sweep": {"parameter": parameter, "values": values},
        "seed": int(rng.integers(2**63)),
    })
    code, stdout, stderr = run_cli(["--config", path, "--json", "fidelity"])
    rows = []
    for value in values:
        row = list(inputs)
        row[column] = value
        rows.append(row + list(fidelity_row_reference(*row)))
    holds = [row[5] >= 0.0 for row in rows]
    report = {
        "command": "fidelity",
        "config_hash": config_hash_reference(cli.load_config(path, None, None)),
        "gate_time": t_gate,
        "omega_sigma": abs(couplings.omega_cap_sigma),
        "rows": rows,
        "frontier_rows": [i for i in range(1, len(rows)) if holds[i] != holds[i - 1]],
    }
    assert report["frontier_rows"]
    assert (code, stderr) == (0, "")
    assert stdout == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("command, parameter, extra", [
    ("blockade-sweep", "pi_to_s_ratio", 0),
    ("fidelity", "gamma_atomic", 3),
    ("fidelity", "time", 3),
])
def test_sweep_formats_each_number_once(command, parameter, extra, tmp_path, monkeypatch):
    # A sweep of n values has 3n distinct numbers to write (fidelity adds its
    # three constant columns): the sweep values, shared by the config hash and
    # the table, and two computed columns.  A repeat, or a number formatted
    # around the counted formatters, changes the count.
    n = 50
    values = np.random.default_rng(4).uniform(0.0, 1e-6, n).tolist()
    path = write(tmp_path / "c.json", {"sweep": {"parameter": parameter, "values": values}})
    counts = {"json": 0, "csv": 0}

    def float_text(value):
        counts["json"] += 1
        return float.__repr__(value)

    class CountingFormat:
        def format(self, value, fmt=cli._FMT.format):
            counts["csv"] += 1
            return fmt(value)

    monkeypatch.setattr(cli, "_float_text", float_text)
    code, stdout, _ = run_cli(["--config", path, "--json", command])
    assert code == 0 and len(json.loads(stdout)["rows"]) == n
    assert counts == {"json": 3 * n + extra, "csv": 0}
    monkeypatch.setattr(cli, "_FMT", CountingFormat())
    counts["json"] = 0
    code, stdout, _ = run_cli(["--config", path, command])
    # The text output's fidelity header formats the gate time and the rate too.
    assert code == 0 and counts == {"json": 0, "csv": 3 * n + extra + (2 if extra else 0)}


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_blockade_rows_equal_scalar_reference(jobs, tmp_path):
    rng = np.random.default_rng(67)
    ratios = [0.0, presets.SQRT3, 1e6] + (rng.uniform(0.0, 10.0, 400)
                                          * 10.0 ** rng.uniform(-5.0, 5.0, 400)).tolist()
    params = presets.blockade_tuned_params(0.8, s_coupling=4.0e6, n_atoms_1=90, n_atoms_2=7)
    path = write(tmp_path / "c.json", {"physical_params": json.loads(params.to_json()),
                                       "sweep": {"parameter": "pi_to_s_ratio", "values": ratios}})
    code, stdout, _ = run_cli(["--config", path, "--json", "blockade-sweep", "--jobs", jobs])
    assert code == 0
    assert json.loads(stdout)["rows"] == [list(blockade_row_reference(params, r)) for r in ratios]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_huge_ratio_names_the_coupling_and_stays_quiet(jobs, tmp_path):
    # The array arithmetic overflows where the scalar float arithmetic did,
    # without a numpy warning: stderr holds the error line only.
    path = write(tmp_path / "c.json",
                 {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.0, 2.0, 1e300, -1.0]}})
    code, stdout, stderr = run_cli(["--config", path, "blockade-sweep", "--jobs", jobs])
    assert (code, stdout, stderr) == (2, "", "error: g_pi_1 must be finite\n")


@pytest.mark.parametrize("parameter, values", [
    ("gamma_atomic", [0.0, 5e-324, 1.0, 1250.0, 3.5e7, 1e300]),
    ("gamma_cavity", [0.0, 5e-324, 1.0, 1013.2, 2.0e6, 1e300]),
    ("time", [0.0, 5e-324, 1e-9, 1e-8, 2.5e-6, 1e308]),
])
def test_fidelity_rows_equal_per_row_calls(parameter, values, tmp_path):
    path = write(tmp_path / "c.json", {"sweep": {"parameter": parameter, "values": values}})
    code, stdout, _ = run_cli(["--config", path, "--json", "fidelity"])
    report = json.loads(stdout)
    expected = []
    for gamma_a, gamma_c, delta, t, _, _ in report["rows"]:
        d = decoherence.DecoherenceParams(gamma_a, gamma_c, delta)
        row = [gamma_a, gamma_c, delta, t,
               decoherence.iswap_fidelity(d, t), decoherence.fault_tolerance_margin(d, t)]
        assert np.array_equal(row[4:], fidelity_row_reference(*row[:4]), equal_nan=True)
        expected.append(row)
    assert code == 0
    column = {"gamma_atomic": 0, "gamma_cavity": 1, "time": 3}[parameter]
    assert [row[column] for row in report["rows"]] == values
    assert np.array_equal(report["rows"], expected, equal_nan=True)


def test_one_step_sweep_whose_span_overflows_runs(tmp_path):
    # max - min overflows, but the one grid point is min itself.
    path = write(tmp_path / "c.json", {"sweep": {"parameter": "gamma_atomic", "min": 1e308,
                                                 "max": -1e308, "steps": 1}})
    code, stdout, stderr = run_cli(["--config", path, "--json", "fidelity"])
    assert (code, stderr) == (0, "")
    assert [row[0] for row in json.loads(stdout)["rows"]] == [1e308]


@pytest.mark.parametrize("lo, hi, steps, expected", [
    (-1e308, 1e308, 3, [-1e308, 0.0, 1e308]),
    (sys.float_info.max, -sys.float_info.max, 3, [sys.float_info.max, 0.0, -sys.float_info.max]),
])
def test_sweep_span_past_the_float_range_keeps_finite_points(lo, hi, steps, expected):
    spec = cli.SweepSpec.from_dict({"parameter": "time", "min": lo, "max": hi, "steps": steps})
    assert list(spec.values) == expected


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_sweep_with_a_finite_span_is_numpy_linspace(lo, hi, steps):
    assume(math.isfinite(hi - lo))
    # numpy's last point may round past the float range before it is set to max.
    with np.errstate(over="ignore"):
        expected = tuple(np.linspace(lo, hi, steps).tolist())
    spec = cli.SweepSpec.from_dict({"parameter": "time", "min": lo, "max": hi, "steps": steps})
    assert spec.values == expected


def test_heavy_cavity_loss_sweep_is_finite_and_quiet(tmp_path):
    # cosh^2 overflowed past ~452 Delta (inf) and met an exponential that underflows
    # to 0 past ~474 Delta (NaN); a fresh interpreter shows any numpy warning on stderr.
    delta = presets.reference_decoherence().delta
    values = (np.linspace(452.0, 480.0, 29) * delta).tolist() + np.geomspace(
        481.0 * delta, 1e300, 30).tolist()
    path = write(tmp_path / "c.json", {"sweep": {"parameter": "gamma_cavity", "values": values}})
    src = str(Path(ensembleqc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "ensembleqc", "--config", path, "--json", "fidelity"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    fidelity = np.array([row[4] for row in json.loads(proc.stdout)["rows"]])
    assert np.all(np.isfinite(fidelity))
    assert np.all((fidelity >= 0.0) & (fidelity <= 1.0))
    assert np.all(np.diff(fidelity) <= 0.0)


@pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
def test_fidelity_gate_time_with_unequal_atom_counts(tmp_path):
    params = dict(REFERENCE, n_atoms_1=100, n_atoms_2=400)
    path = write(tmp_path / "c.json", {"physical_params": params})
    code, stdout, _ = run_cli(["--config", path, "--json", "fidelity"])
    report = json.loads(stdout)
    assert code == 0
    couplings = derive_couplings(PhysicalParams.from_json(json.dumps(params)))
    # pi/(2|S|) with |S| = sqrt(N1 N2)|Omega_sigma|, the time of the extracted gate ...
    t_gate = dynamics.swap_time(couplings)
    assert report["gate_time"] == t_gate
    assert math.isclose(t_gate, math.pi / (2 * 200 * report["omega_sigma"]), rel_tol=1e-12)
    # ... not pi/(2 N1 |Omega_sigma|), twice as long here.
    assert math.isclose(t_gate * 2, math.pi / (2 * 100 * report["omega_sigma"]), rel_tol=1e-12)
    assert all(row[3] == t_gate for row in report["rows"])


@pytest.mark.filterwarnings("ignore::ensembleqc.physical.DispersiveRegimeWarning")
def test_config_with_mode_frequencies_loads_as_without(tmp_path):
    # The model reads only the detunings, so absolute mode frequencies in a
    # config are ignored, even where they contradict the detunings.
    plain = cli.load_config(write(tmp_path / "plain.json", {"physical_params": REFERENCE}),
                            None, None)
    modes = {"omega_0": 2.5e15, "omega_sigma": 1.0, "omega_pi_1": -7.0, "omega_pi_2": 3.0}
    path = write(tmp_path / "old.json", {"physical_params": {**REFERENCE, **modes}})
    old = cli.load_config(path, None, None)
    assert old.physical_params == plain.physical_params == presets.reference_params()
    assert derive_couplings(old.physical_params) == derive_couplings(plain.physical_params)
    assert old.hash() == plain.hash() == cli.default_config().hash()
    # The fidelity report's omega_sigma is the exchange rate |Omega_sigma|.
    code, stdout, _ = run_cli(["--config", path, "--json", "fidelity"])
    couplings = derive_couplings(old.physical_params)
    assert code == 0
    assert json.loads(stdout)["omega_sigma"] == abs(couplings.omega_cap_sigma)


# --- report JSON ---------------------------------------------------------------

_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
_HEAD = st.dictionaries(st.sampled_from(["command", "config_hash", "gate_time"]),
                        st.text(max_size=5) | _FLOAT | st.integers(), max_size=3)
_TAIL = st.dictionaries(st.sampled_from(["frontier_rows", "nested", "pass"]),
                        st.lists(st.integers(0, 9), max_size=3) | st.just({"rows": [[1.0]]})
                        | st.booleans(), max_size=3)


@st.composite
def _table(draw, rows: st.SearchStrategy, cols: st.SearchStrategy):
    """A table's float columns, and the same columns in the forms the writer
    takes: an array, a broadcast (stride-0) array, or a list of json texts."""
    n = draw(rows)
    values, columns = [], []
    for _ in range(draw(cols)):
        form = draw(st.sampled_from(["array", "broadcast", "texts"]))
        if form == "broadcast":
            value = draw(_FLOAT)
            values.append([value] * n)
            columns.append(np.broadcast_arrays(value, np.empty(n))[0])
        else:
            values.append(draw(st.lists(_FLOAT, min_size=n, max_size=n)))
            columns.append(np.array(values[-1], dtype=float) if form == "array"
                           else [json.dumps(v) for v in values[-1]])
    return values, columns


_SHAPES = {
    "1x1": (st.just(1), st.just(1)),
    "1xn": (st.just(1), st.integers(2, 6)),
    "nx1": (st.integers(2, 12), st.just(1)),
    "nxm": (st.integers(2, 12), st.integers(2, 6)),
    "0xm": (st.just(0), st.integers(1, 3)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), head=_HEAD, tail=_TAIL)
def test_table_json_equals_indented_dumps(shape, data, head, tail):
    values, columns = data.draw(_table(*_SHAPES[shape]))
    report = {**head, "rows": None, **tail}
    expected = json.dumps({**report, "rows": [list(r) for r in zip(*values)]}, indent=2)
    assert "".join(cli._to_json(report, columns)) == expected


def test_report_json_without_a_table_is_indented_dumps():
    report = {"command": "simulate", "stats": {"max_leakage": 5e-324, "norm_defect": -0.0},
              "rows": [[1.0, math.nan]], "pass": True}
    assert "".join(cli._to_json(report)) == json.dumps(report, indent=2)


def _config(tmp_path, raw: dict) -> cli.ScenarioConfig:
    return cli.load_config(write(tmp_path / "c.json", raw), None, None)


@pytest.mark.parametrize("raw", [
    {},
    {"sweep": None, "seed": 3},
    {"sweep": {"parameter": "pi_to_s_ratio", "values": [-0.0, 5e-324, 1e308, 2, 0.1]}},
    {"sweep": {"parameter": "gamma_atomic", "min": -0.0, "max": 1e308, "steps": 9}},
    {"sweep": {"parameter": "time", "min": 5e-324, "max": 1e-6, "steps": 1}},
    # A string that holds the hash's stand-in for the values list.
    {"scenario": cli._LIST_SLOT, "output_dir": cli._LIST_SLOT},
    {"physical_params": TUNED},
    {"physical_params": json.loads(presets.blockade_tuned_params(1.0).to_json())},
    *({"physical_params": dict(json.loads(random_resonant_params(np.random.default_rng(i)).to_json()),
                               **{name: [float(x) for x in np.random.default_rng(i).normal(size=2)]
                                  for name in ("g_sigma_1", "g_sigma_2", "g_pi_1", "g_pi_2")})}
      for i in range(3)),
    # JSON integers in float fields, and a coupling with a -0.0 imaginary part.
    {"physical_params": dict(TUNED, omega_1=0, omega_2=-2, delta_pi_2=-3, g_pi_2=0,
                             g_sigma_1=[0.0, -0.0])},
], ids=["default", "no_sweep", "explicit", "grid", "one_step", "slot_strings", "tuned_sqrt3",
        "tuned_1", "complex_0", "complex_1", "complex_2", "int_valued_floats"])
def test_config_hash_equals_reference(raw, tmp_path):
    # Against the config's first definition, a json round trip of the
    # physical parameters and dataclasses.asdict of the decoherence ones.
    config = _config(tmp_path, raw)
    expected = config_as_dict_reference(config)
    assert json.dumps(config.as_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert config.hash() == config_hash_reference(config)


def test_sweep_texts_are_made_once(tmp_path):
    config = _config(tmp_path, {"sweep": {"parameter": "pi_to_s_ratio", "values": [1.5, -0.0]}})
    assert config.sweep.texts is config.sweep.texts == ["1.5", "-0.0"]


# Each field set to a numpy scalar, against the same value as a Python scalar.
@pytest.mark.parametrize("changes", [
    {"n_atoms_1": np.int64(4)},
    {"n_atoms_2": np.uint16(9)},
    {"omega_1": np.float32(1.5)},
    {"omega_2": np.float64(-0.25)},
    {"delta_pi_1": np.int32(-3)},
    {"g_sigma_1": np.complex128(0.5 - 2j)},
    {"g_pi_2": np.complex64(0.75)},
    {"n_atoms_1": np.int8(2), "omega_1": np.float16(0.5), "g_pi_1": np.float32(2.0)},
], ids=lambda changes: "+".join(changes))
def test_numpy_scalar_params_round_trip_and_hash_as_python_ones(changes):
    tuned = presets.blockade_tuned_params(presets.SQRT3)
    with_numpy = dataclasses.replace(tuned, **changes)
    with_python = dataclasses.replace(tuned, **{k: v.item() for k, v in changes.items()})
    assert with_numpy.to_json() == with_python.to_json()
    assert PhysicalParams.from_json(with_numpy.to_json()) == with_python
    configs = [dataclasses.replace(cli.default_config(), physical_params=p)
               for p in (with_numpy, with_python)]
    assert configs[0].hash() == configs[1].hash() == config_hash_reference(configs[1])


_HASH_CIRCUIT = "H 0\nCNOT 0 1\nT 1\n"
_REPORT_FILES = ("truth_table.json", "compile_report.json", "run_report.json")


@pytest.mark.parametrize("argv, calls", [
    (["compile", "c.txt"], 0),
    (["simulate", "--circuit", "c.txt"], 0),
    (["simulate", "--circuit", "c.txt", "--trace"], 0),
    (["truth-table"], 1),
    (["--json", "truth-table"], 1),
    (["--json", "--out", "out", "truth-table"], 1),
    (["--json", "compile", "c.txt"], 1),
    (["--out", "out", "compile", "c.txt"], 1),
    (["--json", "--out", "out", "compile", "c.txt"], 1),
    (["--json", "compile", "c.txt", "--fixed-set"], 1),
    (["--json", "simulate", "--circuit", "c.txt"], 1),
    (["--out", "out", "simulate", "--circuit", "c.txt"], 1),
])
def test_config_hash_is_computed_only_for_a_report_and_once(argv, calls, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "c.txt", _HASH_CIRCUIT)
    hashes = []
    real = cli.ScenarioConfig.hash

    def spy(self):
        hashes.append(real(self))
        return hashes[-1]

    monkeypatch.setattr(cli.ScenarioConfig, "hash", spy)
    code, stdout, stderr = run_cli(argv)
    assert (code, stderr) == (0, "")
    assert len(hashes) == calls
    out = "out" if "--out" in argv else None
    expected = config_hash_reference(cli.load_config(None, None, out))
    reports = [json.loads(stdout)] if "--json" in argv else []
    reports += [json.loads((tmp_path / "out" / name).read_text())
                for name in _REPORT_FILES if (tmp_path / "out" / name).exists()]
    assert len(reports) == ("--json" in argv) + ("--out" in argv)
    assert all(report["config_hash"] == expected for report in reports)
    if argv == ["truth-table"]:
        assert stdout.splitlines()[0] == f"controlled-swap gate, config {expected}"


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


_EXTREME = st.sampled_from([0.0, 1e-310, -1e-310, 1e-200, -1e-200, 1e200, -1e200,
                            1e308, -1e308, 1.0, -1.0])
# The tuned config with 1-3 values made extreme, and sometimes 2**53 atoms.
_EXTREME_TUNED = st.builds(
    lambda changes, atoms: dict(TUNED, **changes, **atoms),
    st.dictionaries(st.sampled_from([k for k in sorted(TUNED) if not k.startswith("n_atoms")]),
                    _EXTREME, min_size=1, max_size=3),
    st.sampled_from([{}, {"n_atoms_1": 2**53}]),
)


# Seeded, so a failure here is the same failure on every run.
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=_EXTREME_TUNED)
def test_extreme_finite_params_keep_exit_contract(params, tmp_path):
    path = write(tmp_path / "c.json", {"physical_params": params})
    for command in (["truth-table"], ["truth-table", "--force"],
                    ["--json", "blockade-sweep"], ["--json", "fidelity"]):
        code, _, stderr = run_cli(["--config", path, *command])
        assert code in (0, 1, 2), (command, stderr)
        assert stderr.count("\n") <= 1, (command, stderr)
        assert code != 2 or stderr.startswith("error: "), (command, stderr)


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


# The 4x4 pair layer that native ops no longer pass through.
PAIR_LAYER = ("iswap", "phase_gate", "restrict_to_logical", "code_space_coupling",
              "CodeSpaceLeakageError", "LEAKAGE_ATOL", "CODE_INDICES", "LEAKAGE_INDICES")


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
    ("simulator", "_act"),
    ("cli", "_compile_fixed_set"),
    ("cli", "_blockade_row"),
    ("compiler", "_dedup_key"),
    ("cli", "_logical_circuit_matrix"),
    ("simulator", "circuit_matrix"),
    ("simulator", "program_matrix"),
    ("cli", "_logical_equivalence_error"),
    ("physical", "check_resonance_condition"),
    ("decoherence", "gate_time"),
    ("gates", "fredkin_classical"),
    ("gates", "fredkin_not"),
    ("gates", "fredkin_and"),
    ("gates", "fredkin_fanout"),
    ("gates", "controlled_iswap_ideal"),
    ("gates", "phase_alignment"),
    ("gates", "matrix_from_json"),
    ("dynamics", "trajectory_to_csv"),
    ("physical", "detunings_from_frequencies"),
    ("presets", "perfect_blockade_params"),
    ("simulator", "apply_op"),
    ("gates", "verify_encoded_cnot"),
    ("gates", "EncodedCnotReport"),
    ("presets", "rescale_pi_coupling"),
    ("dynamics", "iswap_schedule"),
    ("gates", "CONTROLLED_SWAP"),
    ("physical", "effective_hamiltonian"),
    ("gates", "phase_distance"),
    ("simulator", "sample_logical"),
    ("dynamics", "FRAME_LAB"),
    ("dynamics", "FRAME_ROTATING"),
    ("dynamics", "ResonanceConditionError"),
    ("dynamics", "RESONANCE_TOL"),
    ("dynamics", "_resonance_gate"),
    *(("gates", name) for name in PAIR_LAYER),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(getattr(ensembleqc, module), name)
    assert name not in ensembleqc.__all__


def test_pair_layer_is_not_named_in_the_package():
    # The pair matrices and their leak check live in the test oracle only.
    pattern = re.compile(r"\b(" + "|".join(PAIR_LAYER) + r")\b")
    package = Path(ensembleqc.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert not pattern.search(path.read_text()), path.name


def test_detuning_split_is_gone():
    assert not hasattr(ensembleqc.DerivedCouplings, "detuning_split")


def test_sector_frequencies_are_gone():
    # The package works in each sector's rotating frame; the paper's sector
    # frequencies live in the test oracle only (helpers.sector_frequencies).
    for name in ("varpi_1", "varpi_2", "varpi_mean"):
        assert not hasattr(ensembleqc.DerivedCouplings, name), name


def test_n_pi_2_is_gone():
    assert not hasattr(ensembleqc.NodePairState, "n_pi_2")


def test_unused_keywords_are_gone():
    # Each is a module constant: no caller set another value.
    for fn, name in (
        (dynamics.evolve_closed_form, "resonance_tol"),
        (dynamics.extract_controlled_iswap, "condition_tol"),
        (ensembleqc.derive_couplings, "dispersive_threshold"),
        (compiler.lower_single_qubit, "target"),
        (cli.default_config, "seed"),
        (dynamics.evolve_numerical, "step"),
        (dynamics.evolve_numerical, "frame"),
        (dynamics.evolve_closed_form, "frame"),
        (dynamics.sector_propagator, "frame"),
        (dynamics.extract_controlled_iswap, "t"),
    ):
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    assert "frame" not in {f.name for f in dataclasses.fields(dynamics.EvolutionResult)}
