#!/usr/bin/env python3
"""Check the straightening product against the projector-oracle product on
every ordered pair of basis monomials up to an exponent bound.

Both products fold the right factor into the left one generator at a time.
The straightening product takes each step from the derived rewrite rules; the
oracle expands the monomial into the double coset space, multiplies it by the
generator with the projector series, and converts back.  So the sweep compares
the two step tables (zalgebra.step_sweep): each (monomial, generator) step
that the rule fold of those pairs reaches, once.  Agreement on every step
implies agreement on every pair, an end-to-end consistency proof of the rule
catalog at that degree.  Each disagreeing step prints a MISMATCH line; the
first five are followed by the rendered difference of the rule step and the
oracle step.

--progress N prints, every N left factors, the rows done, the elapsed time and
an estimate of the seconds left.

With --bench-out PATH it also writes one JSON record of the run: steps, pairs,
mismatches, wall seconds, peak RSS, the machine (Python version, CPU count,
load average), the git commit, and the cache_info() of every cache in the uea,
projector and zalgebra modules.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import time

from ospz import projector, uea, zalgebra
from ospz.cli import MAX_EXP, int_at_least, output_file, quiet_on_closed_pipe
from ospz.text import render
from ospz.zalgebra import Z_TOKENS, ZElement, all_monomials


@quiet_on_closed_pipe
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-exp", type=int_at_least(1, MAX_EXP), default=1,
                    help="bound on the even-generator exponents (odd ones cap at 1)")
    ap.add_argument("--progress", type=int_at_least(0), default=0,
                    help="print a progress line every N left factors")
    ap.add_argument("--bench-out", metavar="PATH", type=output_file, default=None,
                    help="write a JSON record of the run to PATH")
    args = ap.parse_args()

    monos = all_monomials(args.max_exp)
    total = len(monos) ** 2
    print(f"{len(monos)} basis monomials, {total} ordered pairs")
    t0 = time.perf_counter()
    steps, bad = 0, []
    for i, (_, reached, row) in enumerate(zalgebra.step_sweep(args.max_exp), 1):
        steps += len(reached)
        bad += row
        if args.progress and i % args.progress == 0:
            elapsed = time.perf_counter() - t0
            eta = elapsed * (len(monos) - i) / i
            print(f"  {i}/{len(monos)} rows, {elapsed:.1f} s, ETA {eta:.1f} s")
    elapsed = time.perf_counter() - t0
    for n, (mono, g) in enumerate(bad):
        print(f"MISMATCH {render(ZElement.monomial(mono))} * {Z_TOKENS[g]}")
        if n < 5:
            diff = zalgebra._z_mono_times_gen(mono, g) - zalgebra._oracle_fold(mono, g)
            print(f"  _z_mono_times_gen - _oracle_fold = {render(diff)}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{steps} steps covering {total} pairs, {len(bad)} mismatches, {elapsed:.1f} s, peak RSS {peak_mb:.0f} MB")
    if args.bench_out:
        record = {
            "max_exp": args.max_exp,
            "pairs": total,
            "steps": steps,
            "mismatches": len(bad),
            "wall_s": round(elapsed, 3),
            "peak_rss_mb": round(peak_mb, 1),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "git_head": git_head(),
            "caches": cache_infos(),
        }
        with args.bench_out as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


def git_head():
    """The commit of the checkout this script lies in, or None outside git."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cache_infos() -> dict:
    """{module.function: hits, misses, maxsize, currsize} of every lru_cache."""
    out = {}
    for module in (uea, projector, zalgebra):
        for name, fn in sorted(vars(module).items()):
            if hasattr(fn, "cache_info"):
                out[f"{module.__name__.split('.')[-1]}.{name}"] = fn.cache_info()._asdict()
    return out


if __name__ == "__main__":
    raise SystemExit(main())
