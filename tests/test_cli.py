"""Tests for the command-line interface: exit codes, formats, reports."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ospz.cli import MAX_EXP, main
from ospz.zalgebra import Z_TOKENS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# Every command path whose --help text tests/golden/cli_help.txt pins.
HELP_COMMANDS = (
    (),
    ("normalize",),
    ("diamond",),
    ("zmul",),
    ("theta",),
    ("project",),
    ("phi-table",),
    ("rep",),
    ("rep", "primitives"),
    ("rep", "rho"),
    ("verify",),
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render_help(capsys) -> str:
    """The --help text of every command in HELP_COMMANDS, each under a
    `$ ospz ... --help` line, as argparse lays it out in 80 columns."""
    blocks = []
    for path in HELP_COMMANDS:
        code, out, err = run(capsys, *path, "--help")
        assert code == 0 and not err, path
        blocks.append(" ".join(("$ ospz",) + path + ("--help",)) + "\n" + out)
    return "\n".join(blocks)


def test_help_text_matches_golden(capsys, monkeypatch):
    # a command that loses an option, or commands that change order, show here
    monkeypatch.setenv("COLUMNS", "80")
    assert render_help(capsys) == (GOLDEN / "cli_help.txt").read_text()


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "phi-table")
        assert code == 0
        assert "phi_0 = 1" in out

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "normalize", "t(1")
        assert code == 2
        assert "column 4" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        capsys.readouterr()
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["rep", "primitives", "--lam", "-1"],
            ["rep", "primitives", "--trunc", "-1"],
            ["rep", "rho", "--trunc", "2"],
            ["rep", "rho", "--trunc", "0"],
            ["verify", "rep", "--trunc", "3"],
            ["verify", "presentation", "--max-exp", "0"],
            ["verify", "presentation", "--max-exp", str(MAX_EXP + 1)],
            ["verify", "presentation", "--max-exp", "40"],
            ["phi-table", "--n", "-1"],
            ["verify", "projector", "--n", "-1"],
            ["phi-table", "--n", "65"],
            ["verify", "projector", "--n", "65"],
            ["rep", "primitives", "--lam", "65"],
            ["rep", "primitives", "--trunc", "65"],
            ["rep", "rho", "--trunc", "65"],
            ["verify", "rep", "--trunc", "65"],
            # no file can exist below os.devnull
            ["verify", "pbw", "--json-out", os.path.join(os.devnull, "missing", "r.json")],
            # stdout carries the check lines, so a report there would not parse
            ["verify", "projector", "--n", "1", "--json-out", "-"],
        ],
    )
    def test_bad_option_value_is_usage_error(self, capsys, argv):
        # exit 2 with a message, not a traceback
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["phi-table"], ["phi-table", "--n", "64"]])
    def test_closed_pipe_exits_without_traceback(self, argv):
        # the reader of stdout is gone before the command writes a byte; the
        # short table fails at the last flush, the long one in mid-print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ospz.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_oversized_term_fails_fast(self, capsys):
        cases = [
            (["t(1)^100000"], "more than 64 generator letters"),
            (["((H+1)^3000)", "--algebra", "z"], "column 8: coefficient exponent above 64"),
            (["(2^100000)", "--algebra", "z"], "column 4: coefficient exponent above 64"),
            (["((H^2+1)^33)", "--algebra", "z"], "coefficient of degree above 64"),
            (["((2^60)^60)", "--algebra", "z"], "column 9: coefficient with integers of more than 1000"),
            ([f"(({'7' * 999}+H)^64)", "--algebra", "z"], "integers of more than 1000 digits"),
            ([f"({'9' * 600}*{'9' * 600})", "--algebra", "z"], "integers of more than 1000 digits"),
            ([f"({'1' * 5000})", "--algebra", "z"], "integer of more than 1000 digits"),
            (["t(1)^60 t(2)^5"], "column 9: term has more than 64 generator letters"),
            # a syntax error anywhere is reported before the letter limit
            (["t(1)^65 + t("], "column 13: expected integer generator label"),
        ]
        for argv, message in cases:
            t0 = time.perf_counter()
            code, _, err = run(capsys, "normalize", *argv)
            assert time.perf_counter() - t0 < 1.0, argv[0][:40]
            assert code == 2, argv[0][:40]
            assert message in err and "Traceback" not in err

    def test_term_at_the_letter_limit_normalizes(self, capsys):
        for argv in (["t(1)^64"], ["((H+1)^64)", "--algebra", "z"]):
            code, out, _ = run(capsys, "normalize", *argv)
            assert code == 0
            assert out.strip() != "0"

    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "lemmas")
        assert code == 0
        assert "32/32 checks passed" in out


class TestCommands:
    def test_normalize_u(self, capsys):
        code, out, _ = run(capsys, "normalize", "t(1) t(-1)")
        assert code == 0
        assert out.strip() == "(H) - t(-1) t(1)"

    def test_normalize_z(self, capsys):
        code, out, _ = run(capsys, "normalize", "E(1) <> E(0)", "--algebra", "z")
        assert code == 0
        assert out.strip() == "((H - 1)/H) * E(0) <> E(1)"

    def test_diamond(self, capsys):
        code, out, _ = run(capsys, "diamond", "t(1)", "t(1)")
        assert code == 0
        assert "th t(2)" in out

    def test_zmul_matches_rendered_rule(self, capsys):
        code, out, _ = run(capsys, "zmul", "E(1)", "E(1)")
        assert code == 0
        assert out.strip() == "(2/H) * E(0) <> E(2)"

    def test_theta_z(self, capsys):
        code, out, _ = run(capsys, "theta", "E(2)", "--algebra", "z")
        assert code == 0
        assert out.strip() == "-E(-2)"

    def test_project_kills_the_ideal(self, capsys):
        # words with diagonal letters reduce before projecting: leading
        # lowering letters die, trailing raising letters commute into
        # bracket terms
        code, out, _ = run(capsys, "project", "X(-1) t(1)")
        assert code == 0
        assert out.strip() == "0"
        code, out, _ = run(capsys, "project", "X(1) t(1)")
        assert code == 0
        assert out.strip() == "-2 * E(2)"

    def test_project_quotient_map(self, capsys):
        code, out, _ = run(capsys, "project", "t(-1) t(1)")
        assert code == 0
        assert "E(-1) <> E(1)" in out

    def test_rep_primitives(self, capsys):
        # the full output is pinned: each vector is normalised as the kernel
        # vector of reduced row echelon form, with coefficient 1 at its free
        # tensor x^0 (x) v_j
        pinned = {
            "1": "ModuleVector((1) x^0*v0)\n"
            "ModuleVector((1) x^0*v1 + (sqrt2) x^1*v0)\n"
            "ModuleVector((1) x^0*v2 + (-sqrt2) x^1*v1 + (1) x^2*v0)\n"
            "3 primitive vector(s) in weight window [-1/2, 11/2]\n",
            "2": "ModuleVector((1) x^0*v0)\n"
            "ModuleVector((1) x^0*v1 + (2*sqrt2) x^1*v0)\n"
            "ModuleVector((1) x^0*v2 + (-sqrt2) x^1*v1 + (2) x^2*v0)\n"
            "ModuleVector((1) x^0*v3 + (sqrt2) x^1*v2 + (1) x^2*v1 + (2/3*sqrt2) x^3*v0)\n"
            "ModuleVector((1) x^0*v4 + (-2*sqrt2) x^1*v3 + (2) x^2*v2"
            " + (-2/3*sqrt2) x^3*v1 + (2/3) x^4*v0)\n"
            "5 primitive vector(s) in weight window [-3/2, 9/2]\n",
        }
        for lam, expected in pinned.items():
            code, out, _ = run(capsys, "rep", "primitives", "--lam", lam, "--trunc", "6")
            assert code == 0
            assert out == expected, lam

    def test_rep_primitives_large_irrep_is_fast(self, capsys):
        for lam, trunc, count in (("10", "10", 11), ("10", "40", 21), ("64", "0", 1)):
            t0 = time.perf_counter()
            code, out, _ = run(capsys, "rep", "primitives", "--lam", lam, "--trunc", trunc)
            elapsed = time.perf_counter() - t0
            assert code == 0
            assert out.splitlines()[-1].startswith(f"{count} primitive vector(s)")
            assert elapsed < 5.0, (lam, trunc)

    def test_rep_rho_json(self, capsys):
        code, out, _ = run(capsys, "rep", "rho", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["E(0)"][0][0] == "3/2"

    def test_rep_rho_latex(self, capsys):
        code, out, _ = run(capsys, "rep", "rho", "--format", "latex")
        assert code == 0
        rho = json.loads((GOLDEN / "rep.json").read_text())["rho"]
        expected = [
            f"\\rho({t}) = \\begin{{bmatrix}} " + " \\\\ ".join(" & ".join(row) for row in rho[t]) + " \\end{bmatrix}"
            for t in Z_TOKENS
        ]
        assert len(expected) == 5 and out.splitlines() == expected
        e0 = r"\rho(E(0)) = \begin{bmatrix} 3/2 & 0 & 0 \\ 0 & 9/2 & 0 \\ 0 & 0 & -9/2 \end{bmatrix}"
        assert out.splitlines()[2] == e0

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "zmul", "E(1)", "E(1)", "--format", "latex")
        assert code == 0
        assert "\\diamond" in out


class TestVerifyReports:
    def test_json_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "projector", "--n", "4", "--json-out", str(target)
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["schema_version"] == 1
        assert report["suite"] == "projector"
        assert report["passed"] is True

    def test_golden_reports_are_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "verify", "pbw", "--json-out", str(a))
        run(capsys, "verify", "pbw", "--json-out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_check_lines_printed(self, capsys):
        code, out, _ = run(capsys, "verify", "projector")
        assert code == 0
        assert "[PASS] phi_0 closed form" in out


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ospz ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # every example of the README's CLI block, as written there
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code, _, err = run(capsys, *argv)
        assert code == 0, (line, err)
    assert (tmp_path / "report.json").exists()
