"""Tests of the benchmark harness itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Small versions of the workloads, so that a test takes seconds.
SMALL = {
    "calc": replace(wl.WORKLOADS["calc"], make_inputs=partial(wl.calc_inputs, n=120)),
    "verify": replace(wl.WORKLOADS["verify"], make_inputs=lambda seed: {"suites": ["lemmas", "pbw", "rep"]}),
    "presentation": replace(wl.WORKLOADS["verify"], make_inputs=lambda seed: {"suites": ["presentation"]}),
}

# Every wrapped entry point and a workload whose timed loop reaches it.
REACHES = {
    "presentation": ["coeffs.rf_mul", "coeffs.rf_add", "coeffs.rf_shift", "coeffs.poly_gcd", "uea.mul",
                     "uea.super_bracket", "uea.straighten", "projector.diamond", "zalgebra.z_multiply",
                     "zalgebra.z_oracle_multiply", "zalgebra.z_straighten", "zalgebra.tilde_to_z"],
    "calc": ["zalgebra.z_to_tilde", "text.parse_element", "text.render"],
    "verify": ["rep.primitive_vectors", "rep.rho_matrix", "rep.check_rep_relations"],
}


def _originals(api):
    return {
        (owner, attr): getattr(tracing._resolve(api, owner), attr)
        for owner, attr in [(o, a) for _, _, o, a in tracing.SPANS] + [(o, a) for _, o, a in tracing.COUNTERS]
    }


def test_every_binding_is_wrapped_and_restored():
    api, _ = run.load_ospz()
    originals = _originals(api)
    copies = [
        (api.projector, "mul"), (api.projector, "super_bracket"), (api.zalgebra, "diamond"),
        (api.text, "straighten"), (api.text, "z_straighten"), (api.verify, "mul"), (api.verify, "diamond"),
        (api.verify, "z_multiply"), (api.cli, "diamond"), (api.cli, "z_multiply"), (api.cli, "parse_element"),
        (api.coeffs.RationalFunction, "__rmul__"), (api.coeffs.RationalFunction, "__radd__"),
    ]
    before = {(id(ns), name): getattr(ns, name) for ns, name in copies}
    tracer = tracing.Tracer().install(api)
    try:
        for original in originals.values():
            assert tracing._bindings(api, original) == []
        for ns, name in copies:
            assert getattr(ns, name) is not before[(id(ns), name)]
    finally:
        tracer.restore()
    for ns, name in copies:
        assert getattr(ns, name) is before[(id(ns), name)]
    assert _originals(api) == originals


@pytest.mark.parametrize("workload", sorted(REACHES))
def test_wrappers_record_calls_on_their_workload(workload):
    work = SMALL[workload]
    layers = run.run_rep(work, work.make_inputs(1), traced=True)["layers"]
    for name in REACHES[workload]:
        calls = layers.get(f"{name}.calls")
        if calls is None:  # layers that report only times
            assert layers[f"{name}.total_s"] > 0, name
        else:
            assert calls > 0, name


def test_reaches_covers_every_wrapper():
    wrapped = {f"{layer}.{name}" for layer, name, *_ in tracing.SPANS} | {f"coeffs.{n}" for n, *_ in tracing.COUNTERS}
    assert wrapped == {n for names in REACHES.values() for n in names}


def _perturbed(work: wl.Workload, reps=None) -> wl.Workload:
    """The workload with z_multiply returning a wrong product, in every
    repetition or only in those whose index (from 0) is in ``reps``."""
    count = iter(range(1000))

    def perturbed_run(api, inputs, region, check):
        if reps is None or next(count) in reps:
            good = api.zalgebra.z_multiply
            api.zalgebra.z_multiply = lambda u, v: good(u, v) + api.zalgebra.ZElement.gen(2)
        return work.run(api, inputs, region, check)

    return replace(work, run=perturbed_run)


def test_perturbed_results_count_as_failures():
    work = SMALL["calc"]
    zmuls = sum(r["op"] == "zmul" for r in work.make_inputs(3)["requests"])
    result, env = run.measure(_perturbed(work), seed=3, seconds=0, trace=False)
    assert env["reps"] == 4  # three timed, one checked
    assert result["failed"] == 4 * zmuls > 0
    assert not result["correct"]
    assert env["fail_ratio"] == 4 * zmuls / result["attempted"]


def test_each_repetition_must_reproduce_the_first():
    work = SMALL["calc"]
    zmuls = sum(r["op"] == "zmul" for r in work.make_inputs(4)["requests"])
    result, _ = run.measure(_perturbed(work, reps={1}), seed=4, seconds=0, trace=False)
    assert result["failed"] == zmuls > 0


def test_checked_outputs_must_match_the_timed_ones():
    """Timed repetitions that agree with each other but not with the checked
    one fail in every repetition."""
    work = SMALL["calc"]
    zmuls = sum(r["op"] == "zmul" for r in work.make_inputs(4)["requests"])
    result, _ = run.measure(_perturbed(work, reps={0, 1, 2}), seed=4, seconds=0, trace=False)
    assert result["failed"] == 4 * zmuls > 0


def test_checks_run_last_after_peak_memory_is_read():
    calls = []

    def recording_run(api, inputs, region, check):
        calls.append(("check", check))
        return SMALL["verify"].run(api, inputs, region, check)

    real = run.resource.getrusage
    try:
        run.resource.getrusage = lambda who: calls.append(("rss",)) or real(who)
        run.measure(replace(SMALL["verify"], run=recording_run), seed=0, seconds=0, trace=False)
    finally:
        run.resource.getrusage = real
    # full and short repetitions unchecked, then peak memory, then the checks
    assert calls[-2:] == [("rss",), ("check", True)]
    assert calls[:-2] == [("check", False)] * (len(calls) - 2) and len(calls) - 2 > 3


def test_a_failing_suite_check_counts_as_failures():
    def run_failing(api, inputs, region, check):
        suite = api.verify.run_suite

        def broken(name, **kw):
            report = suite(name, **kw)
            report["checks"][0]["pass"] = False
            return report

        api.verify.run_suite = broken
        return wl.run_verify(api, inputs, region, check)

    work = replace(SMALL["verify"], run=run_failing)
    result, env = run.measure(work, seed=0, seconds=0, trace=False)
    # the broken check is lemmas', which the short repetitions run too
    assert env["short_reps"] > 0
    assert result["failed"] == env["reps"] * 3 + env["short_reps"]


def test_short_repetitions_run_the_leading_short_suites():
    assert wl.verify_short(wl.verify_inputs(0)) == {"suites": ["projector", "lemmas", "relations"]}
    assert wl.verify_short({"suites": ["pbw", "lemmas"]}) is None
    assert wl.WORKLOADS["calc"].short(wl.calc_inputs(0, n=5)) is None


def test_short_repetitions_lower_only_the_first_ops_latency():
    def rep(lat):
        return {"rep": wl.Rep(sum(lat), lat, None, [True] * len(lat))}

    assert run.least([rep([3.0, 5.0, 7.0]), rep([4.0, 2.0, 8.0])], [rep([1.0]), rep([5.0, 1.5])]) == [1.0, 1.5, 7.0]


def test_same_seed_same_inputs_across_processes():
    code = (
        "import hashlib, json, sys; sys.path.insert(0, {here!r}); import workloads as wl\n"
        "print([hashlib.sha256(json.dumps(w.make_inputs({seed})).encode()).hexdigest() for w in wl.WORKLOADS.values()])"
    )

    def digests(seed, hashseed):
        env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
        out = subprocess.run([sys.executable, "-c", code.format(here=HERE, seed=seed)], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        return out.stdout

    assert digests(7, 1) == digests(7, 2)
    a, b = eval(digests(7, 1)), eval(digests(8, 1))
    assert a[0] != b[0]  # the order of calc requests depends on the seed


@pytest.mark.parametrize("workload", ["calc", "verify"])
def test_tracing_does_not_change_outputs(workload):
    work = SMALL[workload]
    inputs = work.make_inputs(5)
    plain = run.run_rep(work, inputs, traced=False)["rep"]
    traced = run.run_rep(work, inputs, traced=True)["rep"]
    assert all(plain.ok) and all(traced.ok)
    assert plain.outputs == traced.outputs


def test_result_object_names_every_metric():
    work = SMALL["calc"]
    result, env = run.measure(work, seed=2, seconds=0, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == env["reps"] * 120 and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(n, u) for n, u, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(env) >= {"python", "cpu_count", "git_head", "loadavg_start", "caches", "op_tail"}
    traced, _ = run.measure(work, seed=2, seconds=0, trace=True)
    assert traced["correct"]
    assert [(n, m["unit"]) for n, m in traced["metrics"].items()] == run.per_layer_metrics()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99)
    assert run.tail([float(i) for i in range(1, 1000)]) == (980.0, 98)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_what_the_harness_writes():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == run.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(UNIT.match(m["unit"]) for m in committed["end_to_end"] + committed["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in committed["end_to_end"]
    assert 1 <= len(committed["per_layer"]) <= 128


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
