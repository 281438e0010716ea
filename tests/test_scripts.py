"""Tests for the scripts in `scripts/`, each run as its own process, except
where a test patches the package and runs a script's `main` in-process."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ospz import zalgebra
from ospz.cli import MAX_EXP
from ospz.text import render
from ospz.verify import SUITES, run_suite
from ospz.zalgebra import ZElement, ZMonomial

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_verify_all_writes_the_run_suite_reports(tmp_path):
    proc = run_script("verify_all.py", "--json-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{s}.json" for s in SUITES)
    for suite in SUITES:
        expected = json.dumps(run_suite(suite), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / f"{suite}.json").read_text() == expected, suite


@pytest.mark.parametrize("argv", [["verify_all.py"], ["oracle_sweep.py", "--max-exp", "1"]])
def test_closed_pipe_exits_without_traceback(argv):
    # the reader of stdout is gone before the script writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_every_cache_pays_on_the_verify_suites():
    # a fresh process runs the six suites; every lru_cache of uea, projector
    # and zalgebra, found as oracle_sweep.cache_infos finds them, must hit
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1])\n"
        "from oracle_sweep import cache_infos\n"
        "from ospz.verify import SUITES, run_suite\n"
        "for suite in SUITES: run_suite(suite)\n"
        "print(json.dumps(cache_infos()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    infos = json.loads(proc.stdout)
    assert infos and [name for name, info in infos.items() if not info["hits"]] == []


@pytest.mark.parametrize("suite", SUITES)
def test_report_matches_its_golden_file(suite):
    # tests/golden/ holds `verify_all.py --json-dir` output; a change to any
    # report byte must rewrite that file on purpose
    expected = (ROOT / "tests" / "golden" / f"{suite}.json").read_text()
    assert json.dumps(run_suite(suite), indent=2, sort_keys=True) + "\n" == expected


def test_oracle_sweep_at_unit_exponents():
    proc = run_script("oracle_sweep.py", "--max-exp", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("594 steps covering 1024 pairs, 0 mismatches")


def test_oracle_sweep_progress_lines_carry_an_eta():
    proc = run_script("oracle_sweep.py", "--max-exp", "1", "--progress", "8")
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert [line.split(",")[0].strip() for line in lines] == ["8/32 rows", "16/32 rows", "24/32 rows", "32/32 rows"]
    assert all(re.search(r", ETA \d+\.\d s$", line) for line in lines)


def test_step_sweep_covers_the_pairs_and_records_its_steps(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("oracle_sweep.py", "--max-exp", "1", "--bench-out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert (record["steps"], record["pairs"], record["mismatches"]) == (594, 1024, 0)


def test_step_sweep_prints_the_differing_step(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("oracle_sweep", ROOT / "scripts" / "oracle_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    m, g = ZMonomial.make(q=1, r=1), zalgebra.Z1
    real = zalgebra._z_mono_times_gen

    def wrong_on_one_step(mono, gen):
        return real(mono, gen) + ZElement.one() if (mono, gen) == (m, g) else real(mono, gen)

    monkeypatch.setattr(zalgebra, "_z_mono_times_gen", wrong_on_one_step)
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", "--max-exp", "1"])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [f"MISMATCH {render(ZElement.monomial(m))} * E(1)", "  _z_mono_times_gen - _oracle_fold = 1"]
    assert lines[-1].startswith("594 steps covering 1024 pairs, 1 mismatches")


def test_oracle_sweep_bench_out_records_the_run(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("oracle_sweep.py", "--max-exp", "1", "--bench-out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    keys = {"pairs", "mismatches", "wall_s", "peak_rss_mb", "python", "cpu_count", "loadavg", "git_head", "caches"}
    assert keys <= set(record)
    assert (record["pairs"], record["mismatches"]) == (1024, 0)
    caches = record["caches"]
    assert {"uea._word_times_word", "projector._diamond_mono", "zalgebra._oracle_fold"} <= set(caches)
    assert caches["zalgebra._oracle_fold"]["misses"] > 0


def test_oracle_sweep_writes_no_file_without_bench_out(tmp_path):
    proc = run_script("oracle_sweep.py", "--max-exp", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle_sweep.py", "--max-exp", "-1"],
        ["oracle_sweep.py", "--max-exp", "0"],
        ["oracle_sweep.py", "--max-exp", str(MAX_EXP + 1)],
        ["oracle_sweep.py", "--progress", "-1"],
        ["oracle_sweep.py", "--bench-out", "-"],
        ["verify_all.py", "--max-exp", "0"],
        ["verify_all.py", "--max-exp", str(MAX_EXP + 1)],
        ["verify_all.py", "--trunc", "-1"],
        ["verify_all.py", "--trunc", "3"],
        ["verify_all.py", "--trunc", "65"],
    ],
)
def test_bad_option_value_is_usage_error(argv):
    # exit 2 with a usage message, not a traceback
    proc = run_script(*argv)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_unwritable_output_path_fails_before_any_work(tmp_path):
    # the sweep at MAX_EXP takes minutes; the path fails at once
    t0 = time.perf_counter()
    proc = run_script("oracle_sweep.py", "--max-exp", str(MAX_EXP), "--bench-out", str(tmp_path / "missing" / "b.json"))
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    # stdout carries the sweep's own lines, so it is no place for the record
    t0 = time.perf_counter()
    proc = run_script("oracle_sweep.py", "--max-exp", str(MAX_EXP), "--bench-out", "-")
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    afile = tmp_path / "file"
    afile.write_text("")
    proc = run_script("verify_all.py", "--json-dir", str(afile / "x"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
