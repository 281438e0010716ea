"""Seeded inputs and one repetition of each benchmark workload.

Input generators use only the standard library, so the same seed gives the
same inputs whatever the program does.  A repetition (``run_*``) takes
``api``, the ``ospz`` package as freshly imported by ``run.load_ospz``, times
every op inside ``region()`` and checks the outputs after it.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

clock = time.perf_counter


@dataclass
class Rep:
    """One repetition: each op's latency and rendered output, in input order."""

    wall_s: float
    lat: list[float]
    outputs: list[str] | None  # dropped once compared with the first repetition's
    ok: list[bool]  # False where the op raised or failed a check
    suite_s: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# calc: a closed loop of CLI-style text requests from one client

U_LETTERS = ("X(-2)", "X(-1)", "t(-2)", "t(-1)", "th", "t(1)", "t(2)", "X(1)", "X(2)")
TILDE_LETTERS = ("t(-2)", "t(-1)", "th", "t(1)", "t(2)")
Z_LETTERS = ("E(-2)", "E(-1)", "E(0)", "E(1)", "E(2)")
COEFFS = ("", "2 ", "3 ", "1/2 ", "(H + 1) ", "(1/(H - 1)) ", "((H^2 - 2)/(H + 3)) ")
FORMATS = ("text", "latex", "json")

# Most letters in a word, per request kind.  Straightening cost grows steeply
# with the length of an unordered word (a 10-letter Z word took about a
# minute), so these caps keep every request within a few tens of milliseconds.
# The U cap is the highest of them, so that the slowest requests are U words,
# whose uncached straightening costs the same wherever a request falls in the
# stream, and not Z requests, whose cost depends on which earlier request
# filled the caches they read.
CALC_BOUNDS = {"u_word": 8, "z_word": 5, "zmul_factor": 3, "diamond_factor": 2, "theta_z": 2}
# (kind, algebra, share) of the request corpus.  No record of real traffic
# exists, so the mix is a stated neutral choice: one equal share for each
# (command, --algebra) pair the ospz CLI accepts among normalize, zmul, diamond
# and theta.  Word lengths are drawn uniformly from 1 to their cap, and the
# output format uniformly from text, latex and json.
CALC_MIX = (
    ("normalize", "u", 1),
    ("normalize", "z", 1),
    ("zmul", "z", 1),
    ("diamond", "u", 1),
    ("theta", "u", 1),
    ("theta", "z", 1),
)


def _text(terms) -> str:
    out = ""
    for i, (sign, coeff, word) in enumerate(terms):
        if i or sign < 0:
            out += " - " if sign < 0 else " + "
        out += coeff + " ".join(word)
    return out.strip()


def _request(rng: random.Random, kind: str, alg: str) -> dict:
    b = CALC_BOUNDS

    def term(letters, cap, coeff=True, sign=1):
        word = [rng.choice(letters) for _ in range(rng.randint(1, cap))]
        return sign, rng.choice(COEFFS) if coeff else "", word

    if kind == "normalize" and alg == "u":
        terms = [term(U_LETTERS, b["u_word"], sign=rng.choice((1, -1))) for _ in range(rng.randint(1, 2))]
        args = [_text(terms)]
    elif kind == "normalize":
        terms, args = None, [_text([term(Z_LETTERS, b["z_word"])])]
    elif kind == "zmul":
        terms, args = None, [_text([term(Z_LETTERS, b["zmul_factor"])]) for _ in range(2)]
    elif kind == "diamond":
        terms, args = None, [_text([term(TILDE_LETTERS, b["diamond_factor"], coeff=False)]) for _ in range(2)]
    elif alg == "u":
        terms, args = None, [_text([term(U_LETTERS, b["u_word"])])]
    else:
        terms, args = None, [_text([term(Z_LETTERS, b["theta_z"])])]
    return {"op": kind, "algebra": alg, "args": args, "format": rng.choice(FORMATS), "terms": terms}


def calc_inputs(seed: int, n: int = 1000) -> dict:
    """A fixed corpus of ``n`` requests in the order of ``seed``.  Requests
    differ in cost by a factor of a hundred, so a corpus drawn per seed would
    make the cost of a run, and most of all its tail, depend on the seed."""
    rng = random.Random("calc")
    shapes = [(kind, alg) for kind, alg, share in CALC_MIX for _ in range(share)]
    requests = [_request(rng, *shapes[i % len(shapes)]) for i in range(n)]
    random.Random(f"calc/{seed}").shuffle(requests)
    return {"requests": requests}


def _serve(api, req):
    """One request as the CLI runs it: parse, operate, render."""
    parse, alg = api.text.parse_element, req["algebra"]
    xs = [parse(a, alg) for a in req["args"]]
    op = req["op"]
    if op == "normalize":
        result = xs[0]
    elif op == "zmul":
        result = api.zalgebra.z_multiply(xs[0], xs[1])
    elif op == "diamond":
        result = api.projector.diamond(xs[0], xs[1])
    elif alg == "u":
        result = api.uea.theta(xs[0])
    else:
        result = api.zalgebra.z_theta(xs[0])
    return xs, result, api.text.render(result, req["format"])


def _check_request(api, req, xs, result, rendered) -> bool:
    if req["op"] == "zmul" and result != api.zalgebra.z_oracle_multiply(*xs):
        return False
    if req["op"] == "normalize" and req["algebra"] == "u":
        # straighten again, rewriting the rightmost violation first
        total = api.uea.UeaElement.zero()
        for sign, coeff, word in req["terms"]:
            items = [api.text.parse_ratfunc(coeff.strip() or "1")]
            items += [api.uea.TOKEN_TO_GEN[tok] for tok in word]
            total = total + api.uea.straighten(items, sign, chooser=lambda v, w: len(v) - 1)
        if total != result:
            return False
    if req["format"] == "text":
        alg = "z" if isinstance(result, api.zalgebra.ZElement) else "u"
        return api.text.parse_element(rendered, alg) == result
    if req["format"] == "json":
        json.loads(rendered)
    return True


def run_calc(api, inputs: dict, region=nullcontext, check=True) -> Rep:
    lat: list[float] = []
    served = []
    with region():
        t_start = clock()
        for req in inputs["requests"]:
            t0 = clock()
            try:
                served.append(_serve(api, req))
            except Exception:  # a raising request is a failed op
                served.append(None)
            lat.append(clock() - t0)
        wall = clock() - t_start
    ok = []
    for req, out in zip(inputs["requests"], served):
        try:
            ok.append(out is not None and (not check or _check_request(api, req, *out)))
        except Exception:
            ok.append(False)
    return Rep(wall, lat, ["error" if s is None else s[2] for s in served], ok)


# ---------------------------------------------------------------------------
# verify: the six suites at their defaults, as scripts/verify_all.py runs them

# Number of checks each suite reports at its defaults.
VERIFY_CHECKS = {"projector": 25, "lemmas": 32, "relations": 19, "presentation": 16, "pbw": 4, "rep": 23}


# Suites that take a few milliseconds.  One sample of each per repetition
# leaves their times, and with them op_p50_ms, at the mercy of a moment's load
# on a shared machine, so they are also run on their own (see Workload.short).
SHORT_SUITES = ("projector", "lemmas", "relations")


def verify_inputs(seed: int) -> dict:
    """The suites take no generated input; the seed has nothing to vary."""
    return {"suites": list(VERIFY_CHECKS)}


def verify_short(inputs: dict) -> dict | None:
    """The short suites that lead the run, which a fresh import followed by
    them alone puts in the same state as a full repetition does."""
    lead = list(itertools.takewhile(SHORT_SUITES.__contains__, inputs["suites"]))
    return {"suites": lead} if lead else None


def run_verify(api, inputs: dict, region=nullcontext, check=True) -> Rep:
    """Every report must pass with its usual number of checks; that is cheap,
    so ``check`` changes nothing here."""
    lat: list[float] = []
    outputs: list[str] = []
    suite_s: dict[str, float] = {}
    reports = []
    with region():
        t_start = clock()
        for suite in inputs["suites"]:
            t0 = clock()
            try:
                reports.append(api.verify.run_suite(suite))
            except Exception:  # every check of a raising suite fails
                reports.append(None)
            suite_s[suite] = clock() - t0
        wall = clock() - t_start
    ok: list[bool] = []
    for suite, report in zip(inputs["suites"], reports):
        expected = VERIFY_CHECKS[suite]
        # run_suite is timed as a whole, so each check is charged its suite's mean
        lat.extend([suite_s[suite] / expected] * expected)
        if report is None or not report["passed"] or len(report["checks"]) != expected:
            ok.extend([False] * expected)
            outputs.extend(["error"] * expected)
        else:
            ok.extend(bool(c["pass"]) for c in report["checks"])
            outputs.extend(json.dumps(c, sort_keys=True, default=str) for c in report["checks"])
    return Rep(wall, lat, outputs, ok, suite_s)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], dict]  # seed -> inputs
    # (api, inputs, region, check) -> Rep; region() brackets the timed loop,
    # check=False skips the full output checks, which run in a repetition of their own
    run: Callable[..., Rep]
    why: str
    # inputs -> inputs of the first few ops alone, or None: ops short enough
    # that the harness samples them in extra repetitions of their own
    short: Callable[[dict], dict | None] = lambda inputs: None


WORKLOADS = {
    "calc": Workload(
        calc_inputs,
        run_calc,
        "closed loop, 1 client, 1000 fixed parse/op/render requests in seeded order; equal shares per CLI command and "
        "algebra (no traffic record); words of at most 8 U, 5 Z, 3 zmul, 2 diamond letters",
    ),
    "verify": Workload(
        verify_inputs,
        run_verify,
        "the six verify suites at their defaults, as scripts/verify_all.py runs them; the presentation suite is an "
        "oracle sweep (projector misses, coeffs); the only workload that reaches rep",
        verify_short,
    ),
}
