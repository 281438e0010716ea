#!/usr/bin/env python3
"""Layered benchmark for ospz.

    python3 perfbench/run.py [--workload calc|verify] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-benchmark-json

Without ``--workload`` it runs every workload in turn, each in a child
process of its own, so that no workload's peak memory carries another's.

Every repetition imports ``ospz`` from ``src/`` into a fresh module state,
because all caches are module-level ``lru_cache``s whose fill users pay on
every run; that import plus ``catalog()`` is the set-up.  A run repeats its
workload on the inputs generated from ``--seed`` until ``--seconds`` have
passed, at least three times; every repetition must reproduce the outputs
of the first op for op.  Ops that take milliseconds at the start of a
workload (verify's short suites) are also sampled in short repetitions of
their own, from a fresh import, between the full ones.  Then peak memory is
read, and one more repetition runs the full output checks, which are not
timed.

With ``--trace 0`` it prints the end-to-end metrics.  Other tenants of a
shared machine slow it down for stretches of seconds, which the least of
several samples mostly escapes, so an op's latency is its least over the
repetitions (short ones included), wall_s is the sum of these (the fixed
work at its fastest), and setup_s is the median of the run's set-ups.
With ``--trace 1`` it runs untraced and traced repetitions in pairs, and no
short ones, and prints the per-layer metrics of the traced ones, the
tracing overhead (traced minus untraced wall_s) and the per-suite wall
times.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN_SECONDS = 45
# Set-ups per repetition; setup_s is the median of them over the run.
SETUPS_PER_REP = 3
# Seconds of short repetitions after each full one, for workloads that have them.
SHORT_SECONDS = 1.0

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric.
# On a shared 2-core machine other tenants slowed every timing by a quarter
# to a third for minutes at a time, so the timings get the widest bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    suites = [(f"verify.{s}.wall_s", "s") for s in wl.VERIFY_CHECKS]
    return tracing.metric_names() + suites + [("trace.overhead_s", "s")]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": w.why} for k, w in wl.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, u in per_layer_metrics()],
    }


def _better(name: str) -> str:
    return "higher" if name.endswith("hit_ratio") else "lower"


def load_ospz():
    """Import ospz from src/ into a fresh module state; return it and the
    set-up time (import plus building the rule catalog)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "ospz" or n.startswith("ospz.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    api = importlib.import_module("ospz")
    api.catalog()
    setup = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(api.__file__)) != os.path.join(SRC, "ospz"):
        raise ImportError(f"ospz was imported from {api.__file__}, not from {SRC}")
    importlib.import_module("ospz.cli")  # so that its bindings get traced too
    return api, setup


def run_rep(work: wl.Workload, inputs: dict, traced: bool = False, check: bool = True,
            setups_per_rep: int = SETUPS_PER_REP) -> dict:
    """One repetition in a fresh module state; ``traced`` wraps the timed loop."""
    setups = []
    for _ in range(setups_per_rep):
        api, setup = load_ospz()
        setups.append(setup)
    tracer = tracing.Tracer() if traced else None
    caches = {}

    @contextmanager
    def region():
        caches["setup"] = tracing.cache_infos(api)
        if tracer:
            tracer.install(api)
        try:
            yield
        finally:
            if tracer:
                tracer.restore()
            caches["run"] = tracing.cache_infos(api)

    rep = work.run(api, inputs, region, check)
    layers = {}
    if tracer:
        layers = tracer.layer_metrics()
        layers.update(tracing.cache_metrics(caches["setup"], caches["run"]))
    return {"setups": setups, "rep": rep, "traced": traced, "layers": layers, "caches": caches}


def op_failures(first: wl.Rep, rep: wl.Rep, short: bool = False) -> list[bool]:
    """Per op: whether it raised or failed a check in ``rep``, or whether its
    output differs from that of the first repetition.  A ``short``
    repetition runs only the first ops."""
    ref = first.outputs[: len(rep.outputs)] if short else first.outputs
    return [not ok or out != out0 for ok, out, out0 in zip(rep.ok, rep.outputs, ref, strict=True)]


def least(reps: list[dict], short: list[dict] = ()) -> list[float]:
    """Each op's least latency over the repetitions, and over the short
    repetitions for the first ops."""
    lat = [min(x) for x in zip(*(d["rep"].lat for d in reps))]
    for d in short:
        lat[: len(d["rep"].lat)] = map(min, lat, d["rep"].lat)
    return lat


def tail(lat_ms: list[float]) -> tuple[float, float]:
    """Value and rank of the highest percentile with at least ten samples beyond it."""
    s = sorted(lat_ms)
    for p in (99.9, 99.5, 99, 98, 95, 90, 75, 50):
        if len(s) * (100 - p) / 100 >= 10:
            return s[min(len(s) - 1, math.ceil(len(s) * p / 100) - 1)], p
    return s[-1], 100.0


def environment() -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_head": head,
        "loadavg_start": loadavg,
    }


def measure(work: wl.Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat a workload on the inputs of ``seed`` until ``seconds`` have
    passed; return the result object (correct, attempted, failed, metrics)
    and the environment record."""
    env = environment()
    inputs = work.make_inputs(seed)
    t_run = time.perf_counter()
    short_inputs = None if trace else work.short(inputs)
    done: list[dict] = []
    short: list[dict] = []
    fails: list[list[bool]] = []  # per repetition, per op
    rep_s = 0.0  # what the first repetition took, reserved for the checked one
    while len(done) < (4 if trace else 3) or time.perf_counter() - t_run + rep_s < seconds:
        # with tracing, untraced and traced repetitions in pairs, the order
        # alternating so that neither side always runs first
        step = (False,) if not trace else (False, True) if len(done) % 4 == 0 else (True, False)
        for traced in step:
            t0 = time.perf_counter()
            d = run_rep(work, inputs, traced, check=False)
            rep_s = rep_s or time.perf_counter() - t0
            fails.append(op_failures((done or [d])[0]["rep"], d["rep"]))
            if done:
                d["rep"].outputs = None  # so that memory does not grow with the run
            done.append(d)
        t_short = time.perf_counter()
        while short_inputs and time.perf_counter() - t_short < SHORT_SECONDS:
            d = run_rep(work, short_inputs, check=False, setups_per_rep=1)
            fails.append(op_failures(done[0]["rep"], d["rep"], short=True))
            d["rep"].outputs = None
            short.append(d)
    # The high-water mark of the timed repetitions, read before the checks,
    # which fill caches that the timed work may never touch.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A last repetition, whose times are not used, runs the full checks; an op
    # that fails them or gives another output than in the first repetition
    # fails in every repetition.
    checked = run_rep(work, inputs, check=True)["rep"]
    bad = op_failures(done[0]["rep"], checked)
    failed = sum(f or b for rep_fails in fails for f, b in zip(rep_fails, bad)) + bad.count(True)
    attempted = sum(len(d["rep"].lat) for d in done + short) + len(checked.lat)
    plain = [d for d in done if not d["traced"]]
    traced = [d for d in done if d["traced"]]
    env.update(
        reps=len(done) + 1,
        short_reps=len(short),
        rep_wall_s=[d["rep"].wall_s for d in done],
        fail_ratio=failed / attempted,
        caches=[d["caches"] for d in done],
    )
    if not trace:
        lat = least(plain, short)
        tail_ms, tail_p = tail([x * 1e3 for x in lat])
        env["op_tail"] = {"percentile": tail_p, "samples": len(lat)}
        values = {
            "setup_s": statistics.median(s for d in done + short for s in d["setups"]),
            "wall_s": sum(lat),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        values = {n: statistics.median(d["layers"][n] for d in traced) for n, _ in tracing.metric_names()}
        for suite in wl.VERIFY_CHECKS:
            values[f"verify.{suite}.wall_s"] = min(d["rep"].suite_s.get(suite, 0.0) for d in plain)
        values["trace.overhead_s"] = sum(least(traced)) - sum(least(plain))
        units = dict(per_layer_metrics())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(wl.WORKLOADS), help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not args.workload:
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, *common]).returncode
            for name in wl.WORKLOADS
        ]
        return max(codes)
    result, env = measure(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"== {args.workload}: {env['reps']} repetitions and {env['short_reps']} short ones, "
          f"seed {args.seed}, trace {args.trace}")
    for metric, m in result["metrics"].items():
        print(f"{metric:<40} {m['value']:>14.6g} {m['unit']}")
    if "op_tail" in env:
        print(f"{'op_tail percentile':<40} {env['op_tail']['percentile']:>14} of {env['op_tail']['samples']} ops")
    print(f"{'fail_ratio':<40} {env['fail_ratio']:>14.6g} ({result['failed']}/{result['attempted']} ops)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
