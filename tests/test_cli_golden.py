"""Byte-for-byte golden outputs of the CLI on valid input.

Each case runs ``cli.main`` in-process from a temporary working directory that
holds copies of ``tests/golden/inputs``, and compares its stdout and every
file it writes under ``--out`` with ``tests/golden/<case>/``.  ``--out`` is
the relative path ``out`` so the file paths that a case prints do not depend
on where the test runs.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_golden.py [case ...]

which rewrites the named cases, or every case when none is named.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from ensembleqc import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "truth_table": ["truth-table"],
    "truth_table_json": ["--json", "--out", "out", "truth-table"],
    "truth_table_latex": ["truth-table", "--latex"],
    "blockade_sweep": ["--out", "out", "blockade-sweep"],
    "blockade_sweep_json": ["--json", "blockade-sweep", "--jobs", "2"],
    "fidelity": ["--out", "out", "fidelity"],
    "fidelity_json": ["--json", "fidelity"],
    "fidelity_overflow_json": ["--json", "--config", "fidelity_overflow.json", "fidelity"],
    "compile": ["--out", "out", "compile", "circuit.txt"],
    "compile_json": ["--json", "compile", "circuit.txt"],
    "compile_fixed_set": ["--out", "out", "compile", "--fixed-set", "circuit.txt"],
    "compile_fixed_set_json": ["--json", "compile", "--fixed-set", "circuit.txt"],
    "simulate_circuit_trace": [
        "--out", "out", "simulate", "--circuit", "circuit.txt", "--trace", "--initial", "10",
    ],
    "simulate_circuit_trace_json": [
        "--json", "--out", "out", "simulate", "--circuit", "circuit.txt", "--trace",
    ],
    "simulate_program": ["--out", "out", "simulate", "--program", "program.json"],
    "simulate_program_json": [
        "--json", "--out", "out", "simulate", "--program", "program.json", "--initial", "01",
    ],
}


def run_case(argv: list[str], workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; return stdout and each ``out/`` file by
    relative name, with ``workdir`` itself replaced by ``<TMP>``."""
    for source in INPUTS.iterdir():
        shutil.copy(source, workdir / source.name)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == cli.EXIT_OK
    outputs = {"stdout": stdout.getvalue()}
    out_dir = workdir / "out"
    if out_dir.exists():
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                outputs[f"out/{path.relative_to(out_dir)}"] = path.read_text()
    return {name: text.replace(str(workdir), "<TMP>") for name, text in outputs.items()}


def read_golden(case: str) -> dict[str, str]:
    root = GOLDEN / case
    return {
        str(path.relative_to(root)): path.read_text()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == read_golden(case)


if __name__ == "__main__":
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s) {unknown}; expected some of {sorted(CASES)}")
    for case in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(CASES[case], Path(tmp))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        for name, text in outputs.items():
            path = GOLDEN / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
