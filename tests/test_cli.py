import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coidealbasis import ballot, checks, coideal
from coidealbasis.cli import build_parser, main


def _value_options():
    """(subcommand, option, the subcommand's other required options) for
    every value-taking option of every subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = []
    for name, parser in sub.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.nargs != 0]
        for a in options:
            required = [b.option_strings[0] for b in options if b.required and b is not a]
            out.append(pytest.param(name, a.option_strings[0], required, id=name + a.option_strings[0]))
    return out


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_sumrule_value(self, capsys):
        code, out = run(capsys, "sumrule", "--m", "1", "--L", "3")
        assert code == 0
        assert out.strip() == "38"

    def test_sumrule_table(self, capsys):
        code, out = run(capsys, "sumrule", "--mode", "table", "--m", "2", "--L", "2")
        assert code == 0
        assert "92" in out

    def test_eigen(self, capsys):
        code, out = run(capsys, "eigen", "--shape", "2,2")
        assert code == 0
        assert "M_5=1, M_3=2, M_1=3, M_-1=2, M_-3=1" in out
        assert "verified at q0=2: True" in out

    def test_eigen_json(self, capsys):
        code, out = run(capsys, "eigen", "--shape", "2,2", "--format", "json")
        data = json.loads(out)
        assert data["verified"] is True
        assert data["multiplicities"]["1"] == 3

    def test_qpoly_json(self, capsys):
        code, out = run(
            capsys, "qpoly", "--alpha=--++-+", "--beta=++++++", "--rule", "I",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["value"]["q_coeffs"] == {"-13": "-1", "-11": "-1", "-9": "-2", "-5": "-1"}
        assert len(data["configurations"]) == 5

    def test_qpoly_path_of_two_down_steps(self, capsys):
        # argparse hands the value of --alpha=-- over as []
        code, out = run(capsys, "qpoly", "--alpha=--", "--beta=++", "--rule", "I")
        assert code == 0
        assert out == "Q = -q^-3\n\nconfiguration 1 (weight -q^-3):\n. c\na .\n. b\n"
        code, out = run(capsys, "qpoly", "--alpha=++", "--beta=--", "--rule", "I", "--eps", "+")
        assert code == 0
        assert out.startswith("Q = -q^-3\n")

    def test_qpoly_searches_once(self, capsys, monkeypatch):
        ballot._q_polynomial_cached.cache_clear()
        rules = []
        search_init = ballot._Search.__init__

        def recorded_init(self, region, last_col, rule):
            rules.append(rule)
            search_init(self, region, last_col, rule)

        monkeypatch.setattr(ballot._Search, "__init__", recorded_init)
        code, out = run(capsys, "qpoly", "--alpha=--++-+", "--beta=++++++", "--rule", "I")
        assert code == 0
        assert out.startswith("Q = -q^-5 - 2*q^-9 - q^-11 - q^-13\n")
        assert rules == ["I"]

    def test_diagram(self, capsys):
        code, out = run(capsys, "diagram", "--shape", "3,4,4", "--k", "1,0,-2")
        assert code == 0
        assert "^^(|)^v(|){}*" in out

    def test_yact(self, capsys):
        code, out = run(capsys, "yact", "--shape", "3,4,4", "--k", "1,0,-2", "--format", "json")
        data = json.loads(out)
        assert len(data["terms"]) == 3

    def test_klpoly(self, capsys):
        code, out = run(capsys, "klpoly", "--n", "2", "--eps", "-", "--format", "json")
        data = json.loads(out)
        assert data["basis"]["++"]["+-"] == {"q_coeffs": {"-1": "-1"}}
        assert "-+" not in data["basis"]["++"]

    def test_rmatrix(self, capsys):
        code, out = run(capsys, "rmatrix", "--shape", "2,2", "--check")
        assert code == 0
        assert "routes ok: True" in out

    def test_psi(self, capsys):
        code, out = run(capsys, "psi", "--shape", "2,2", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["eigen_ok"] is True
        assert all(data["agreements"].values())

    def test_dualbasis(self, capsys):
        # negative index tuples need the = form so argparse does not read
        # them as options
        code, out = run(capsys, "dualbasis", "--shape", "3,3", "--kind", "spade",
                        "--k=-1,-1", "--format", "json")
        data = json.loads(out)
        terms = data["vectors"]["-1 -1"]["terms"]
        assert {"index": [-1, -1], "coeff": {"q_coeffs": {"0": "1"}}} in terms

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, "psi", "--shape", "2,1", "--format", "json")
        _, out2 = run(capsys, "psi", "--shape", "2,1", "--format", "json")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, _ = run(capsys, "eigen", "--shape", "1,1", "--format", "json", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["verified"] is True

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["qpoly", "--alpha", "++", "--beta", "++"])
        assert exc.value.code == 2

    def test_bad_shape_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--shape", "0,2"])
        assert exc.value.code == 2

    def test_incomparable_paths_exit_code(self, capsys):
        code = main(["qpoly", "--alpha", "+-", "--beta=-+", "--rule", "I"])
        assert code == 2

    def test_bad_index_exit_code(self, capsys):
        code = main(["diagram", "--shape", "2,2", "--k", "1,1"])
        assert code == 2

    def test_dualbasis_bad_index_exit_code(self, capsys):
        code = main(["dualbasis", "--shape", "3,3", "--k", "2,2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "invalid input: (2, 2) is not a weight index for shape (3, 3)\n"

    USAGE_ERRORS = [
        "psi --shape 1,1 --q0 1/0", "eigen --shape 1,1 --q0 1/0", "qpoly --alpha=-- --beta=++ --rule I --q0 1/0",
        "verify --max-sites 0", "verify --max-sites -2", "verify --max-sites 3.5", "verify --max-sites x",
        "sumrule --mode table --m 0", "sumrule --mode table --m 2 --L 0", "sumrule --mode pell --m 0",
        "sumrule --mode a000902 --L 0",
    ]
    # rejected by main's handler, after the arguments parsed
    INPUT_ERRORS = [
        "klpoly --n 3 --eps + --out {tmp}/missing/x", "klpoly --n 3 --eps + --out {tmp}",
        "sumrule --m 1 --L 99999999999999999999", "sumrule --mode table --m 99999999999999999999",
        "sumrule --mode pell --m 99999999999999999999", "sumrule --mode a000902 --L 99999999999999999999",
        "sumrule --m 1000000 --L 1",
        # equal paths under Rule II: the shape and the eta image are still
        # checked
        "qpoly --alpha=+- --beta=+- --rule II --shape 2", "qpoly --alpha=+- --beta=+- --rule II",
        "qpoly --alpha=+- --beta=+- --rule II --shape 1",
    ]

    @pytest.mark.parametrize("command", USAGE_ERRORS + INPUT_ERRORS)
    def test_bad_argument_exit_code(self, capsys, tmp_path, command):
        argv = command.format(tmp=tmp_path).split()
        if command in self.INPUT_ERRORS:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("invalid input: ") and err.count("\n") == 1
            return
        # usage and one error line, before any computation or check runs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err, name = capsys.readouterr().err, argv[0]
        assert exc.value.code == 2
        assert err.startswith(f"usage: coidealbasis {name} ")
        assert err.splitlines()[-1].startswith(f"coidealbasis {name}: error: argument --")

    # valid values for the options a subcommand requires
    REQUIRED_VALUES = {"--n": "2", "--eps": "-", "--alpha": "++", "--beta": "++", "--rule": "I",
                       "--shape": "2,2", "--k": "0,0"}

    @pytest.mark.parametrize("name, option, required", _value_options())
    def test_double_dash_value(self, capsys, name, option, required):
        # argparse hands the value of --opt=-- over as []: the path "--" on
        # qpoly's paths, a usage error on every other option
        argv = [name] + [f"{o}={self.REQUIRED_VALUES[o]}" for o in required] + [f"{option}=--"]
        if name == "qpoly" and option in ("--alpha", "--beta"):
            if option == "--beta":
                argv += ["--eps", "+"]
            code, out = run(capsys, *argv)
            assert code == 0
            assert out.startswith("Q = -q^-3\n")
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: coidealbasis {name} ")
        assert err.splitlines()[-1].startswith(f"coidealbasis {name}: error: argument {option}: ")

    def test_verify_failed_check_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "sum_table", lambda: checks.CheckReport(1, ["wrong table"]))
        code = main(["verify", "--max-sites", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAILED: ['sum table']\n"
        assert "[FAIL] sum table\n" in captured.err

    def test_verify_small(self, capsys):
        code, out = run(capsys, "verify", "--max-sites", "3")
        assert code == 0
        assert "all checks passed" in out

    def test_verify_honours_max_sites(self, capsys, monkeypatch):
        seen = []
        for name in ("spectrum", "psi_solve"):
            original = getattr(coideal, name)

            def wrapped(shape, *args, _original=original, **kwargs):
                seen.append(shape.total)
                return _original(shape, *args, **kwargs)

            monkeypatch.setattr(coideal, name, wrapped)
        code, out = run(capsys, "verify", "--max-sites", "1")
        assert code == 0
        assert seen and max(seen) <= 1

    def test_verify_under_optimize(self):
        # python -O strips assert statements, so every invariant the checks
        # rely on must hold as an explicit exception
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "coidealbasis.cli", "verify", "--max-sites", "4"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "all checks passed\n"

    def test_qpoly_spot_value(self, capsys):
        code, out = run(capsys, "qpoly", "--alpha=--++-+", "--beta=++++++",
                        "--rule", "I", "--q0", "1", "--format", "json")
        data = json.loads(out)
        assert data["value_at_q0"] == "-5"

    def test_psi_spot_values(self, capsys):
        code, out = run(capsys, "psi", "--shape", "1,1", "--q0", "1", "--format", "json")
        data = json.loads(out)
        vals = sorted(int(v) for v in data["components_at_q0"].values())
        assert vals == [1, 2, 3, 4]  # summing to the L = 2 unit-shape value 10
