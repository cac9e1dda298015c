"""Golden CLI output: the README commands at their README sizes, plus two
larger tables, must reproduce the committed files under tests/golden/ byte
for byte.

Each command's standard output is stored as <name>.stdout; its standard
error, where it writes any, as <name>.stderr.  The files are compared as
bytes, so the CSV outputs keep their CRLF line ends.  Regenerate them (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from coidealbasis.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [
    ("klpoly-4-minus-json", ["klpoly", "--n", "4", "--eps", "-", "--format", "json"]),
    ("qpoly-rule1-ascii",
     ["qpoly", "--alpha=--++-+", "--beta=++++++", "--rule", "I", "--format", "ascii"]),
    ("qpoly-rule2-2222",
     ["qpoly", "--alpha=-+-+-+-+", "--beta=++++++--", "--rule", "II", "--shape", "2,2,2,2"]),
    ("dualbasis-33-spade", ["dualbasis", "--shape", "3,3", "--kind", "spade", "--k=-1,-1"]),
    ("rmatrix-22-check-csv", ["rmatrix", "--shape", "2,2", "--check", "--format", "csv"]),
    ("diagram-344", ["diagram", "--shape", "3,4,4", "--k", "1,0,-2"]),
    ("yact-344", ["yact", "--shape", "3,4,4", "--k", "1,0,-2"]),
    ("eigen-22", ["eigen", "--shape", "2,2"]),
    ("psi-22-routes",
     ["psi", "--shape", "2,2", "--routes", "elimination,graph,transition,closed"]),
    ("psi-11-q0", ["psi", "--shape", "1,1", "--q0", "1"]),
    ("sumrule-1-3", ["sumrule", "--m", "1", "--L", "3"]),
    ("sumrule-table-csv", ["sumrule", "--mode", "table", "--m", "3", "--L", "4", "--format", "csv"]),
    ("sumrule-a000902-12", ["sumrule", "--mode", "a000902", "--L", "12"]),
    ("verify-6", ["verify", "--max-sites", "6"]),
    ("psi-11111-json", ["psi", "--shape", "1,1,1,1,1", "--format", "json"]),
    ("klpoly-5-plus-csv", ["klpoly", "--n", "5", "--eps", "+", "--format", "csv"]),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_golden_output(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    stderr_file = GOLDEN / f"{name}.stderr"
    assert err.encode() == (stderr_file.read_bytes() if stderr_file.exists() else b"")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS:
        code, out, err = run_cli(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        if err:
            (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
