#!/usr/bin/env python3
"""wsim benchmark: three CLI workloads, each measured in fresh processes.

    python3 benchmarks/run.py --workload teleport_sweep --seed 1 --seconds 30 --trace 0

A measured run is one `wsim` command line, made through `wsim.cli.main(argv)`
in a fresh child interpreter (benchmarks/child.py), so every cache starts
cold as it does for a user and each run has its own peak RSS.  Children run
one at a time, with `--jobs 1`, until --seconds have passed; a short
unmeasured child first imports wsim once, so byte-compiling is not timed.

The inputs are generated from --seed; wsim receives only CLI arguments, and
the result file records each exact command line for replay.  Every child's
CSV table is checked (see the check_* functions), and every child of a run
must print the same bytes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced children (benchmarks/spans.py) and prints the per-layer metrics.  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  The full record (environment, command line, every child, the
per-function table, curves in N) is written under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BUDGET_S = 170.0  # a run must end within 180 s, its children included
SELF_SUM_GAP = 0.01  # traced self times must add up to the traced wall time

# -- output checks -------------------------------------------------------------
# Each returns (items attempted, items failed) for one child's table.  An item
# is a table row or a verify claim; an expected row that is missing fails.


def check_teleport(rows: list[dict], tol: dict, expected: int) -> tuple[int, int]:
    """A sweep row fails when the simulated and closed-form averages differ
    by more than TOL.protocol_match."""
    ok = sum(
        r["row_type"] == "sweep" and float(r["residual"]) <= tol["protocol_match"] for r in rows
    )
    return expected, expected - min(ok, expected)


def check_witness(rows: list[dict], tol: dict, expected: int) -> tuple[int, int]:
    """A pair row fails when its simulated and closed-form ratios differ by
    more than TOL.closed_form, or when the scan does not certify the state:
    the generated coefficients are all nonzero, so every pair must violate."""
    certified = any(r["row_type"] == "summary" and r["all_violated"] == "true" for r in rows)
    ok = sum(
        r["row_type"] == "pair"
        and certified
        and abs(float(r["ratio_sim"]) - float(r["ratio_closed"])) <= tol["closed_form"]
        for r in rows
    )
    return expected, expected - min(ok, expected)


def check_verify(rows: list[dict], tol: dict, expected: int) -> tuple[int, int]:
    """A claim fails when its passed column is false."""
    attempted = max(len(rows), expected)
    return attempted, attempted - sum(r["passed"] == "true" for r in rows)


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]
    expected: int  # items the table must hold (verify: at least one claim)
    check: Callable[[list[dict], dict, int], tuple[int, int]]


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def teleport_sweep(seed: int, tiny: bool) -> Workload:
    """Resource builds on dense spaces up to dimension 861 (N = 40); four
    thetas share each (N, m, eta) resource."""
    rng = random.Random(seed)
    ns, ms = ((4, 6), (0, 2)) if tiny else ((24, 32, 40), (0, 11, 22))
    etas = [_draw(rng, 0.5, 0.75), _draw(rng, 0.75, 1.0)]
    thetas = [_draw(rng, 0.1 + k * 0.34, 0.1 + (k + 1) * 0.34) for k in range(4)]
    argv = [
        "teleport",
        "--N", ",".join(map(str, ns)),
        "--m", ",".join(map(str, ms)),
        "--eta", ",".join(map(repr, etas)),
        "--theta", ",".join(map(repr, thetas)),
        "--events", "both",
        "--jobs", "1",
    ]  # fmt: skip
    rows = len(ns) * len(ms) * len(etas) * len(thetas)
    return Workload("teleport_sweep", argv, rows, check_teleport)


def witness_scan(seed: int, tiny: bool) -> Workload:
    """A generic complex W state: every pair rebuilds the N-mode state."""
    rng = random.Random(seed)
    n = 5 if tiny else 20
    # magnitudes bounded away from zero keep every pair clearly violating
    alphas = [rng.uniform(0.5, 1.0) * complex(math.cos(p), math.sin(p))
              for p in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))]  # fmt: skip
    norm = math.sqrt(sum(abs(a) ** 2 for a in alphas))
    coeffs = ",".join(repr(a / norm).strip("()") for a in alphas)
    # one token, so that a leading minus sign is not read as an option
    eta = repr(_draw(rng, 0.5, 1.0))
    argv = ["witness-scan", f"--coeffs={coeffs}", "--eta", eta, "--jobs", "1"]
    return Workload("witness_scan", argv, n * (n - 1) // 2, check_witness)


def verify(seed: int, tiny: bool) -> Workload:
    """The full cross-check battery: many calls on tiny spaces."""
    return Workload("verify", ["verify", "--seed", str(seed), "--jobs", "1"], 1, check_verify)


WORKLOADS = {w.__name__: w for w in (teleport_sweep, witness_scan, verify)}

# -- children ----------------------------------------------------------------------


def run_child(
    argv, trace: bool = False, spans_out: str | None = None, timeout: float = BUDGET_S
) -> dict:
    """Run child.py once and return its report, with setup_s added.

    argv None only imports wsim and reports the environment.  A child that
    prints no report comes back as {"rc": ..., "error": ...}.
    """
    spec = {"root": str(ROOT), "argv": argv, "trace": trace, "spans_out": spans_out}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"rc": None, "error": f"no report within {timeout:.0f} s"}
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    report["setup_s"] = report.pop("ready") - spawned
    return report


def score(workload: Workload, children: list[dict], tol: dict) -> None:
    """Set attempted and failed on each child.  A child that exits non-zero,
    prints no report, or prints other bytes than the run's majority fails
    all of its items."""
    for c in children:
        if "output" in c:
            c["digest"] = hashlib.sha256(c["output"].encode()).hexdigest()
    digests = Counter(c["digest"] for c in children if "digest" in c)
    reference = digests.most_common(1)[0][0] if digests else None
    for c in children:
        rows = list(csv.DictReader(io.StringIO(c.get("output", ""))))
        try:
            attempted, failed = workload.check(rows, tol, workload.expected)
        except (KeyError, ValueError, TypeError):  # malformed table
            attempted, failed = workload.expected, workload.expected
        if c.get("rc") != 0 or c.get("digest") != reference:
            failed = attempted
        c["attempted"], c["failed"] = attempted, failed


def measure(workload: Workload, seconds: float, trace: bool, spans_out: str | None) -> list[dict]:
    """Children back to back until `seconds` have passed: at least three, or
    four when tracing, where every second child is traced."""
    start = time.monotonic()
    minimum = 4 if trace else 3
    children: list[dict] = []
    while len(children) < minimum or time.monotonic() - start < seconds:
        remaining = BUDGET_S - (time.monotonic() - start)
        if remaining <= 0:
            break
        traced = trace and len(children) % 2 == 1
        child = run_child(workload.argv, traced, spans_out if traced else None, remaining)
        child["traced"] = traced
        children.append(child)
        if child["rc"] is None:
            break
    return children


# -- statistics and metrics -------------------------------------------------------


def stats(values: list[float]) -> dict:
    """Median and quartiles with the sample count; one sample has no spread."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def worst_margin(output: str) -> float:
    """Largest residual/tolerance over claims with a positive tolerance."""
    margins = [
        float(r["residual"]) / float(r["tolerance"])
        for r in csv.DictReader(io.StringIO(output))
        if "tolerance" in r and float(r["tolerance"]) > 0.0
    ]
    return max(margins, default=0.0)


def end_to_end(plain: list[dict], attempted: int, failed: int) -> dict:
    return {
        "wall_s": (statistics.median(c["wall_s"] for c in plain), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in plain), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in plain), "MiB"),
        # 1 - fail_frac: a metric the benchmark reports must never be 0
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }


UNITS = {"max_dim": "dim", "validated_bytes": "bytes", "resource_hit_ratio": "ratio"}


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: counts from the first traced child (they repeat
    exactly), self times as medians over the traced children."""
    first = traced[0]["trace"]["metrics"]
    metrics = {}
    for key, value in first.items():
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(c["trace"]["metrics"][key] for c in traced), "s")
        else:
            metrics[key] = (value, UNITS.get(key.rsplit(".", 1)[-1], "count"))
    metrics["verify.worst_margin"] = (worst_margin(traced[0]["output"]), "ratio")
    metrics["cli.output_bytes"] = (len(traced[0]["output"].encode()), "bytes")
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    plain_wall = statistics.median(c["wall_s"] for c in plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    counts = {k: v for k, v in first.items() if not k.endswith(".self_s")}
    checks = {
        "counts_repeat": all(
            {k: v for k, v in c["trace"]["metrics"].items() if not k.endswith(".self_s")} == counts
            for c in traced
        ),
        "all_restored": all(not c["unrestored"] for c in traced),
        "self_sum_gap": max(abs(c["trace"]["self_sum_s"] / c["wall_s"] - 1.0) for c in traced),
    }
    return metrics, checks


# Self times the last line reports: those of the functions every workload
# calls.  Any other self time is exactly 0 on some workload; the result file
# and the lines above the last hold all of them.
LINE_SELF_S = (
    "fock.DensityOperator.self_s",
    "fock.partial_trace.self_s",
    "fock.apply_two_mode_unitary.self_s",
    "cli.main.self_s",
)

# -- environment -------------------------------------------------------------------


def environment(child_env: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": child_env["numpy"],
        "wsim": child_env["wsim"],
        "git_commit": commit,
        "blas": child_env["blas"],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        "platform": platform.platform(),
        "note": "each measured run is a fresh interpreter, so wsim's caches start cold; "
        "the unmeasured first child leaves the OS file cache warm",
    }


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (harness self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wsim" / "cli.py").is_file():
        print(f"error: no wsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = run_child(None)  # byte-compiles wsim once and reports the environment
    if "env" not in warm:
        print(f"error: wsim does not import: {warm.get('error')}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    spans_out = str(RESULTS / f"{tag}-spans.json.gz")

    children = measure(workload, args.seconds, bool(args.trace), spans_out)
    score(workload, children, warm["env"]["tolerances"])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    plain = [c for c in children if not c["traced"] and "wall_s" in c]
    traced = [c for c in children if c["traced"] and "trace" in c]
    if not plain or (args.trace and not traced):
        errors = {c.get("error") for c in children if "error" in c}
        print(f"error: no child completed: {errors}", file=sys.stderr)
        return 2

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": shlex.join(["wsim", *workload.argv]),
        "env": environment(warm["env"]),
        "stats": {
            key: stats([c[key] for c in plain]) for key in ("wall_s", "setup_s", "peak_rss_mb")
        },
        "fail_frac": failed / attempted,
        "children": [
            {k: c.get(k) for k in ("traced", "rc", "wall_s", "setup_s", "peak_rss_mb", "digest",
                                   "attempted", "failed", "error")}
            for c in children
        ],  # fmt: skip
    }
    correct = failed == 0
    if args.trace:
        metrics, checks = per_layer(traced, plain)
        correct = correct and checks["counts_repeat"] and checks["all_restored"]
        correct = correct and checks["self_sum_gap"] <= SELF_SUM_GAP
        record["stats"]["traced_wall_s"] = stats([c["wall_s"] for c in traced])
        record["trace_checks"] = checks
        record["curves"] = traced[-1]["trace"]["curves"]
        record["spans_file"] = os.path.relpath(spans_out, ROOT)
    else:
        metrics = end_to_end(plain, attempted, failed)
    record["correct"] = correct
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out = RESULTS / f"{tag}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload.name} seed={args.seed}: {record['command'][:120]}")
    print(f"children: {len(plain)} untraced, {len(traced)} traced; fail_frac {record['fail_frac']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value!r} {unit}")
    print(f"result file: {os.path.relpath(out, ROOT)}")
    line = {
        k: v for k, v in record["metrics"].items() if not k.endswith(".self_s") or k in LINE_SELF_S
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": line}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
