#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Optionally writes each suite's JSON report into a directory, which makes the
output diffable across revisions (reports are deterministic).
"""

import argparse
import json
import os
import time

from ospz.cli import MAX_EXP, MAX_N, int_at_least, quiet_on_closed_pipe
from ospz.rep import TruncationOverflow, WindowNotClosed
from ospz.verify import SUITES, run_suite


@quiet_on_closed_pipe
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-exp", type=int_at_least(1, MAX_EXP), default=1,
                    help="exponent bound for the presentation sweep")
    ap.add_argument("--trunc", type=int_at_least(0, MAX_N), default=6,
                    help="polynomial truncation for the module suite")
    ap.add_argument("--json-dir", help="write per-suite JSON reports here")
    args = ap.parse_args()

    if args.json_dir:
        try:
            os.makedirs(args.json_dir, exist_ok=True)
        except OSError as exc:
            ap.error(f"--json-dir: {exc}")

    all_ok = True
    for suite in SUITES:
        t0 = time.perf_counter()
        try:
            report = run_suite(suite, max_exp=args.max_exp, trunc=args.trunc)
        except (TruncationOverflow, WindowNotClosed) as exc:
            ap.error(f"{exc}; use a larger --trunc")
        elapsed = time.perf_counter() - t0
        n = len(report["checks"])
        good = sum(1 for c in report["checks"] if c["pass"])
        status = "ok " if report["passed"] else "FAIL"
        print(f"{status} {suite:<13} {good}/{n} checks  {elapsed:6.2f} s")
        all_ok = all_ok and report["passed"]
        if args.json_dir:
            path = os.path.join(args.json_dir, f"{suite}.json")
            with open(path, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
