"""Command line interface.

Four subcommands: `wstate` prepares a target W state and reports the
splitter settings and simulated amplitudes; `witness-scan` checks every
mode pair of a W state against the pairwise entanglement witness;
`teleport` evaluates the conditional teleportation protocol over parameter
grids, optionally optimizing the splitter angle or solving for critical
efficiencies; `verify` reruns the package's analytic cross-checks.

All output is tabular, CSV (RFC 4180) or a single JSON object, written to
stdout or --output.  Angles are radians, mode indices 0-based, floats are
shortest round-trip representations.  Runs with equal arguments and seed
produce byte-identical output regardless of --jobs, which hands each
worker process whole blocks of 16 contiguous sweep or --optimize rows
(their simulated residuals run as one block) or single --critical-eta
rows.  Exit codes: 0 on success, 1 when `verify` finds a failing claim,
2 on usage or validation errors.  Column semantics are documented in
docs/schema.md.
"""

from __future__ import annotations

import argparse
import csv
import json

# argparse's gettext imports locale when the first parser is built; loading
# it here keeps that one-time cost in the import, not in each command's run
import locale  # noqa: F401
import os
import sys
from contextlib import nullcontext

from .circuits import (
    WCoefficients,
    _chain_amplitudes,
    _mode_amplitudes,
    angles_from_coefficients,
    coefficients_from_angles,
    symmetric_angles,
)
from .detection import _DETECTOR_KINDS, DetectorModel
from .teleport import (
    _BLOCK,
    _EVENT_SETS,
    TeleportParams,
    TeleportReport,
    _averaged_moments,
    averaged_fidelity_probability,
    critical_eta,
    max_fidelity,
)
from .verify import run_verification
from .witness import scan_all_pairs, witness_ratio_closed_form

SCHEMA_VERSION = "1"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr: shortest digits that round-trip exactly
        return repr(float(value))
    return str(value)


def _emit(args, out, header: list[str], rows: list[dict]) -> None:
    if args.format == "json":
        config = {"command": args.command, "format": args.format, "seed": args.seed}
        for key, value in sorted(vars(args).items()):
            if key in ("command", "format", "seed", "output", "json", "jobs", "func"):
                continue
            config[key] = value
        config["jobs"] = args.jobs
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "rows": [{key: row.get(key) for key in header} for row in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(["schema_version"] + header)
        for row in rows:
            writer.writerow([SCHEMA_VERSION] + [_cell(row.get(key)) for key in header])


def _parse_coefficients(args) -> WCoefficients:
    if (args.symmetric is None) == (args.coeffs is None):
        raise ValueError("exactly one of --symmetric and --coeffs is required")
    if args.symmetric is not None:
        return coefficients_from_angles(symmetric_angles(args.symmetric))
    try:
        values = tuple(complex(tok) for tok in args.coeffs.split(","))
    except ValueError:
        raise ValueError(f"could not parse coefficients {args.coeffs!r}") from None
    return WCoefficients(values)


def _parse_grid(text: str, kind, name: str) -> list:
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"could not parse --{name} value {text!r}") from None


# -- wstate -----------------------------------------------------------------

_WSTATE_HEADER = [
    "mode",
    "theta",
    "phi",
    "alpha_re",
    "alpha_im",
    "sim_re",
    "sim_im",
    "round_trip_error",
]


def cmd_wstate(args, out) -> int:
    coeffs = _parse_coefficients(args)
    angles = angles_from_coefficients(coeffs)
    sims = _mode_amplitudes(_chain_amplitudes(angles)).tolist()
    n = len(coeffs)
    error = max(abs(a - s) for a, s in zip(coeffs.alphas, sims))
    rows = []
    for j in range(n):
        rows.append(
            {
                "mode": j,
                "theta": angles.thetas[j] if j < n - 1 else 0.0,
                "phi": angles.phis[j],
                "alpha_re": coeffs.alphas[j].real,
                "alpha_im": coeffs.alphas[j].imag,
                "sim_re": sims[j].real,
                "sim_im": sims[j].imag,
                "round_trip_error": error,
            }
        )
    _emit(args, out, _WSTATE_HEADER, rows)
    return 0


# -- witness-scan -------------------------------------------------------------

_WITNESS_HEADER = [
    "row_type",
    "i",
    "j",
    "p_ij",
    "ratio_closed",
    "ratio_sim",
    "violated",
    "all_violated",
    "note",
]


def cmd_witness_scan(args, out) -> int:
    coeffs = _parse_coefficients(args)
    if args.eta <= 0.0:
        raise ValueError("a detection scan needs a positive efficiency")
    det = DetectorModel(args.eta)
    report = scan_all_pairs(coeffs, det)
    rows = []
    for res in report.results:
        i, j = res.pair
        rows.append(
            {
                "row_type": "pair",
                "i": i,
                "j": j,
                "p_ij": res.p_ij,
                "ratio_closed": witness_ratio_closed_form(
                    coeffs.alphas[i], coeffs.alphas[j], det
                ),
                "ratio_sim": res.ratio,
                "violated": res.violated,
                "note": res.note,
            }
        )
    rows.append(
        {"row_type": "summary", "all_violated": report.all_violated, "note": report.conclusion}
    )
    _emit(args, out, _WITNESS_HEADER, rows)
    return 0


# -- teleport -----------------------------------------------------------------

_TELEPORT_HEADER = [
    "row_type",
    "N",
    "m",
    "eta",
    "theta",
    "detector",
    "events",
    "avg_fidelity",
    "avg_probability",
    "R",
    "Rprime",
    "residual",
    "critical_eta",
]


def _report_rows(row_type: str, reports: list[TeleportReport]) -> list[dict]:
    """The reports' rows, with each residual against the simulated moments,
    which run as one block."""
    simulated = _averaged_moments([report.params for report in reports])
    rows = []
    for report, (f_sim, p_sim) in zip(reports, simulated):
        params = report.params
        rows.append(
            {
                "row_type": row_type,
                "N": params.N,
                "m": params.m,
                "eta": params.eta,
                "theta": params.theta,
                "detector": params.detector_kind,
                "events": params.event_set,
                "avg_fidelity": report.avg_fidelity,
                "avg_probability": report.avg_probability,
                "R": report.R_theta,
                "Rprime": report.Rprime_theta,
                "residual": max(
                    abs(report.avg_fidelity - f_sim), abs(report.avg_probability - p_sim)
                ),
            }
        )
    return rows


def _sweep_rows(block) -> list[dict]:
    reports = [averaged_fidelity_probability(TeleportParams(*task)) for task in block]
    return _report_rows("sweep", reports)


def _optimize_rows(block) -> list[dict]:
    reports = [
        max_fidelity(n, m, eta, detector_kind=detector, event_set=events)
        for n, m, eta, detector, events in block
    ]
    return _report_rows("optimal", reports)


def _critical_row(task) -> dict:
    n, m, detector = task
    return {
        "row_type": "critical",
        "N": n,
        "m": m,
        "detector": detector,
        "critical_eta": critical_eta(n, m, detector),
    }


def _run_tasks(worker, tasks, jobs: int) -> list:
    # never more workers than tasks or CPUs, whatever --jobs asks for
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(task) for task in tasks]
    # imported here: the process pool and multiprocessing cost every
    # command about 1 MiB and 17 ms of import, and one worker needs neither
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves task order, so the output is schedule-independent
        return list(pool.map(worker, tasks))


def _run_blocks(worker, tasks, jobs: int) -> list[dict]:
    """The rows of ``worker`` over contiguous blocks of _BLOCK tasks, one
    task per row, in task order; a worker process takes whole blocks."""
    blocks = [tasks[start : start + _BLOCK] for start in range(0, len(tasks), _BLOCK)]
    return [row for rows in _run_tasks(worker, blocks, jobs) for row in rows]


def cmd_teleport(args, out) -> int:
    ns = _parse_grid(args.N, int, "N")
    etas = _parse_grid(args.eta, float, "eta") if args.eta else [1.0]

    def ms_for(n: int) -> list[int]:
        if args.m is None:
            return list(range(n - 1))
        return _parse_grid(args.m, int, "m")

    if args.critical_eta:
        tasks = [(n, m, args.detector) for n in ns for m in ms_for(n)]
        for n, m, _ in tasks:
            TeleportParams(n, m, 1.0, 0.0)
        rows = _run_tasks(_critical_row, tasks, args.jobs)
    elif args.optimize:
        tasks = [
            (n, m, eta, args.detector, args.events)
            for n in ns
            for m in ms_for(n)
            for eta in etas
        ]
        rows = _run_blocks(_optimize_rows, tasks, args.jobs)
    else:
        if args.theta is None:
            raise ValueError("provide --theta, or use --optimize / --critical-eta")
        thetas = _parse_grid(args.theta, float, "theta")
        tasks = [
            (n, m, eta, theta, args.detector, args.events)
            for n in ns
            for m in ms_for(n)
            for eta in etas
            for theta in thetas
        ]
        rows = _run_blocks(_sweep_rows, tasks, args.jobs)
    _emit(args, out, _TELEPORT_HEADER, rows)
    return 0


# -- verify ---------------------------------------------------------------

_VERIFY_HEADER = ["claim_id", "description", "residual", "tolerance", "passed"]


def cmd_verify(args, out) -> int:
    claims = run_verification(seed=args.seed, tolerance=args.tolerance)
    rows = [
        {
            "claim_id": c.claim_id,
            "description": c.description,
            "residual": c.residual,
            "tolerance": c.tolerance,
            "passed": c.passed,
        }
        for c in claims
    ]
    _emit(args, out, _VERIFY_HEADER, rows)
    return 0 if all(c.passed for c in claims) else 1


# -- parser ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--json", action="store_true", help="shorthand for --format json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for grid rows")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--symmetric", type=int, default=None, metavar="N")
    parser.add_argument(
        "--coeffs",
        default=None,
        help="comma-separated coefficients, complex literals allowed (e.g. 0.6,0.8j)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsim",
        description="single-photon W states: preparation, witnessing, teleportation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wstate", help="splitter settings and simulated amplitudes")
    _add_state_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_wstate)

    p = sub.add_parser("witness-scan", help="pairwise witness over all mode pairs")
    _add_state_source(p)
    p.add_argument("--eta", type=float, default=1.0, help="detector efficiency in (0, 1]")
    _add_common(p)
    p.set_defaults(func=cmd_witness_scan)

    p = sub.add_parser("teleport", help="conditional teleportation figures of merit")
    p.add_argument("--N", required=True, help="network sizes, comma separated")
    p.add_argument("--m", default=None, help="cooperating counts, comma separated (default: all)")
    p.add_argument("--eta", default="1", help="efficiencies, comma separated")
    p.add_argument("--theta", default=None, help="splitter angles in radians, comma separated")
    p.add_argument("--detector", choices=_DETECTOR_KINDS, default="number")
    p.add_argument("--events", choices=_EVENT_SETS, default="D10")
    p.add_argument("--optimize", action="store_true", help="maximize over the splitter angle")
    p.add_argument(
        "--critical-eta",
        action="store_true",
        dest="critical_eta",
        help="efficiency threshold beating average fidelity 2/3",
    )
    _add_common(p)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("verify", help="rerun the analytic cross-checks")
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="replace every claim's own tolerance",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.json:
        args.format = "json"
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        # opened before any work, so an unwritable path costs nothing; a
        # later usage error leaves the file empty, as `>` redirection does
        try:
            target = open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)
        except OSError as exc:
            raise ValueError(f"cannot write --output: {exc}") from None
        with target as out:
            return args.func(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
