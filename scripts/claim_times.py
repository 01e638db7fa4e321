#!/usr/bin/env python3
"""Print the wall time of each claim of one in-process `run_verification(seed)`.

    python3 scripts/claim_times.py [--src DIR] [--seed S]

DIR (default: this checkout's src/) is put first on sys.path before wsim is
imported.  A claim's time is measured from the previous claim record (the
first one from the start of the run) to its own record, so it covers the
work the claim did before it was recorded; a claim recorded straight after
another one (`witness-universal-violation`, say) reads about 0 ms.  The
records are timed by wrapping `verify.ClaimResult` from outside the package,
as benchmarks/spans.py wraps its functions; nothing inside wsim changes.
One line per claim: its time in ms, its claim id, and PASS or FAIL; a
last line gives the total.  Exits 1 if a claim fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def claim_times(seed: int) -> list[tuple[str, float, bool]]:
    """(claim id, seconds, passed) of each claim of run_verification(seed)."""
    from wsim import verify

    original = verify.ClaimResult
    stamps = []

    def stamped(*args, **kwargs):
        record = original(*args, **kwargs)
        stamps.append((time.perf_counter(), record))
        return record

    verify.ClaimResult = stamped
    try:
        start = time.perf_counter()
        verify.run_verification(seed)
    finally:
        verify.ClaimResult = original
    out = []
    for stamp, record in stamps:
        out.append((record.claim_id, stamp - start, record.passed))
        start = stamp
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(ROOT / "src"), help="directory holding the wsim package"
    )
    parser.add_argument("--seed", type=int, default=1, help="seed of run_verification")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    times = claim_times(args.seed)
    for claim_id, seconds, passed in times:
        print(f"{1e3 * seconds:9.1f} ms  {claim_id}  {'PASS' if passed else 'FAIL'}")
    print(f"{1e3 * sum(s for _, s, _ in times):9.1f} ms  total")
    return 0 if all(passed for _, _, passed in times) else 1


if __name__ == "__main__":
    sys.exit(main())
