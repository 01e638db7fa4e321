"""Command-line interface: output shapes, exit codes, determinism."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsim import DetectorModel, cli, scan_all_pairs, witness_ratio_closed_form
from wsim.circuits import coefficients_from_angles, symmetric_angles
from wsim.cli import main
from wsim.config import TOL
from wsim.teleport import conditional_resource


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "schema_version"
    header = rows[0][1:]
    return header, [dict(zip(header, r[1:])) for r in rows[1:]]


class TestWstate:
    def test_symmetric_four(self, capsys):
        code, out, _ = run(capsys, ["wstate", "--symmetric", "4"])
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row["alpha_re"]) == pytest.approx(0.5, abs=1e-12)
            assert float(row["sim_re"]) == pytest.approx(0.5, abs=1e-12)
            assert float(row["round_trip_error"]) < 1e-10

    def test_basis_vector_settings(self, capsys):
        code, out, _ = run(capsys, ["wstate", "--coeffs", "1,0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["theta"]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, ["wstate", "--coeffs", "0.6,0.8", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"schema_version", "config", "rows"}
        assert doc["config"]["command"] == "wstate"
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert row["round_trip_error"] < 1e-10

    def test_unnormalized_coefficients_fail(self, capsys):
        code, _, err = run(capsys, ["wstate", "--coeffs", "1,1"])
        assert code == 2
        assert "error:" in err

    def test_nan_coefficients_fail(self, capsys):
        code, out, err = run(capsys, ["wstate", "--coeffs", "nan,1"])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_source_is_exclusive(self, capsys):
        code, _, err = run(
            capsys, ["wstate", "--symmetric", "3", "--coeffs", "1,0"]
        )
        assert code == 2


class TestWitnessScan:
    def test_symmetric_trio(self, capsys):
        code, out, _ = run(capsys, ["witness-scan", "--symmetric", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        pair_rows = [r for r in rows if r["row_type"] == "pair"]
        summary = [r for r in rows if r["row_type"] == "summary"]
        assert len(pair_rows) == 3
        assert len(summary) == 1
        for r in pair_rows:
            assert r["violated"] == "true"
            assert float(r["ratio_closed"]) == pytest.approx(11.0 / 15.0, abs=1e-12)
            assert float(r["ratio_sim"]) == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert summary[0]["all_violated"] == "true"
        assert "entangled" in summary[0]["note"]

    def test_zero_efficiency_rejected(self, capsys):
        code, _, err = run(capsys, ["witness-scan", "--symmetric", "3", "--eta", "0"])
        assert code == 2
        assert "efficiency" in err


class TestTeleport:
    def test_ideal_pair_event_pooling(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "teleport",
                "--N", "2",
                "--m", "0",
                "--eta", "1",
                "--events", "both",
                "--theta", "0.7853981633974483",
            ],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["avg_fidelity"]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows[0]["avg_probability"]) == pytest.approx(0.5, abs=1e-10)
        assert float(rows[0]["residual"]) < 1e-10

    def test_threshold_both_detectors(self, capsys):
        code, out, _ = run(
            capsys, ["teleport", "--N", "3", "--critical-eta"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        got = {r["m"]: float(r["critical_eta"]) for r in rows}
        assert got["0"] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)
        assert got["1"] == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, abs=1e-10)

        code, out, _ = run(
            capsys,
            ["teleport", "--N", "3", "--critical-eta", "--detector", "onoff"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        got = {r["m"]: float(r["critical_eta"]) for r in rows}
        assert got["0"] == pytest.approx(0.583, abs=5e-3)
        assert got["1"] == pytest.approx(0.435, abs=5e-3)

    def test_optimize_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            ["teleport", "--N", "4", "--m", "1", "--eta", "0.8", "--optimize"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["row_type"] == "optimal"
        assert float(rows[0]["avg_fidelity"]) > 2.0 / 3.0

    def test_cooperator_count_validated(self, capsys):
        code, _, err = run(
            capsys,
            ["teleport", "--N", "3", "--m", "5", "--theta", "0.5"],
        )
        assert code == 2
        assert "cooperating count" in err

    @pytest.mark.parametrize(
        "flag, value, mode",
        [
            ("--N", "", []),
            ("--m", "", []),
            ("--eta", "", []),
            ("--theta", "", []),
            # --theta is parsed in every mode, though only the sweep reads it
            ("--theta", "", ["--optimize"]),
            ("--theta", "abc", ["--optimize"]),
            ("--theta", "", ["--critical-eta"]),
            ("--theta", "abc", ["--critical-eta"]),
        ],
        ids=[
            "--N",
            "--m",
            "--eta",
            "--theta",
            "--theta-optimize",
            "--theta-abc-optimize",
            "--theta-critical-eta",
            "--theta-abc-critical-eta",
        ],
    )
    def test_empty_grid_rejected(self, capsys, flag, value, mode):
        argv = {"--N": "3", "--m": "0", "--eta": "0.5", "--theta": "0.4"}
        argv[flag] = value
        code, out, err = run(capsys, ["teleport", *itertools.chain(*argv.items()), *mode])
        assert (code, out, err) == (2, "", f"error: could not parse {flag} value {value!r}\n")

    def test_sweep_needs_an_angle(self, capsys):
        code, _, err = run(capsys, ["teleport", "--N", "3"])
        assert code == 2
        assert "--theta" in err

    def test_parallel_rows_identical(self, capsys):
        argv = ["teleport", "--N", "3,4", "--eta", "0.5,1", "--theta", "0.3,0.9"]
        code1, out1, _ = run(capsys, argv + ["--jobs", "1"])
        code2, out2, _ = run(capsys, argv + ["--jobs", "2"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerify:
    """The battery runs behind these are shared with tests/test_verify.py
    through the session's ``verification`` fixture, except one fresh run
    for determinism."""

    @pytest.fixture
    def shared(self, monkeypatch, verification):
        monkeypatch.setattr("wsim.cli.run_verification", verification)

    def test_default_run_passes(self, capsys, shared):
        code, out, _ = run(capsys, ["verify", "--seed", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) > 15
        assert all(r["passed"] == "true" for r in rows)

    def test_unreachable_tolerance_fails_honestly(self, capsys, shared):
        code, out, _ = run(capsys, ["verify", "--seed", "1", "--tolerance", "1e-15"])
        assert code == 1
        _, rows = parse_csv(out)
        assert any(r["passed"] == "false" for r in rows)

    def test_seeded_reruns_are_identical(self, capsys, monkeypatch, verification):
        # one fresh battery run against the shared one
        _, out1, _ = run(capsys, ["verify", "--seed", "1"])
        monkeypatch.setattr("wsim.cli.run_verification", verification)
        _, out2, _ = run(capsys, ["verify", "--seed", "1"])
        assert out1 == out2

    @pytest.mark.parametrize("value", ["-1e-12", "-1", "nan", "inf", "-inf"])
    def test_invalid_tolerance_rejected(self, capsys, value):
        code, out, err = run(capsys, ["verify", f"--tolerance={value}"])
        assert code == 2
        assert out == ""
        assert "error:" in err


def _battery_must_not_run(**kwargs):
    raise AssertionError("the battery ran")


class TestOutputPlumbing:
    def test_csv_lines_are_crlf_terminated(self, capsys):
        _, out, _ = run(capsys, ["wstate", "--symmetric", "2"])
        body = out.split("\n")
        assert body[0].endswith("\r")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, ["wstate", "--symmetric", "3", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 3

    def test_json_config_echoes_arguments(self, capsys):
        _, out, _ = run(
            capsys,
            ["teleport", "--N", "3", "--theta", "0.4", "--json", "--seed", "9"],
        )
        doc = json.loads(out)
        config = doc["config"]
        assert config["command"] == "teleport"
        assert config["seed"] == 9
        assert config["detector"] == "number"

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["telepathy"])

    def test_bad_jobs_count(self, capsys):
        code, _, err = run(
            capsys, ["teleport", "--N", "3", "--theta", "0.4", "--jobs", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["wstate", "--symmetric", "3", "--jobs", "-2", "--json"],
            ["witness-scan", "--symmetric", "3", "--jobs", "0"],
            ["verify", "--jobs", "0"],
        ],
        ids=["wstate", "witness-scan", "verify"],
    )
    def test_jobs_below_one_rejected_before_any_work(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("wsim.cli.run_verification", _battery_must_not_run)
        assert run(capsys, argv) == (2, "", "error: --jobs must be at least 1\n")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "argv", [["wstate", "--symmetric", "3"], ["verify", "--seed", "1"]], ids=["wstate", "verify"]
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv, target):
        # the output is opened before any work, so the battery never starts
        monkeypatch.setattr("wsim.cli.run_verification", _battery_must_not_run)
        path = tmp_path / "missing" / "rows.csv" if target == "missing-directory" else tmp_path
        code, out, err = run(capsys, argv + ["--output", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --output: ")
        assert err.count("\n") == 1

    def test_later_usage_error_leaves_an_empty_output(self, capsys, tmp_path):
        # the file is opened before the command runs, as `>` would open it
        target = tmp_path / "rows.csv"
        code, out, err = run(capsys, ["teleport", "--N", "3", "--output", str(target)])
        assert (code, out) == (2, "")
        assert err == "error: provide --theta, or use --optimize / --critical-eta\n"
        assert target.read_text() == ""


_THETAS_9 = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
_TWO_PARTIES = "the network needs at least two parties"
# 1 - eta rounds to 1, so the on-off click element 1 - (1 - eta)^l is 0
_DARK = ["teleport", "--N", "3", "--eta", "1e-17", "--detector", "onoff"]
_DARK_MESSAGE = "efficiency 1e-17: no event is heralded"
# 27 sweep rows; the bad efficiency is row 19, in the second block of 16
_ROW_19 = ["teleport", "--N", "3", "--m", "0", "--eta", "0.5,0.9,2", "--theta", _THETAS_9]


class TestTablesWrittenAsMade:
    """Every command hands _emit a generator of rows, which it reads once;
    teleport's reads blocks that have all finished."""

    @pytest.fixture(autouse=True)
    def shared(self, monkeypatch, verification):
        monkeypatch.setattr("wsim.cli.run_verification", verification)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["wstate", "--coeffs", "0.6,0,0.8j"],
            # a vacuum pair with its note, and the summary row
            ["witness-scan", "--coeffs", "0,0,0.6,0.8j", "--eta", "0.5"],
            ["teleport", "--N", "3,4", "--eta", "0.5,1", "--theta", "0.3"],
            ["teleport", "--N", "3", "--optimize", "--events", "both"],
            # critical rows leave most cells empty
            ["teleport", "--N", "3", "--critical-eta"],
            ["verify", "--seed", "1"],
        ],
        ids=["wstate", "witness-scan", "teleport-sweep", "teleport-optimize", "critical", "verify"],
    )
    def test_bytes_of_the_list_building_writer(self, capsys, monkeypatch, argv, fmt):
        written = run(capsys, argv + fmt)
        monkeypatch.setattr(cli, "_emit", oracles.emit)
        assert written == run(capsys, argv + fmt)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["wstate", "--coeffs", "1,1"], "coefficients are not normalized"),
            # WCoefficients admits N * TOL.norm; the scan's own norm check, the
            # last check before its rows are made, refuses it
            (["witness-scan", "--coeffs", ",".join(["0.5773502691903475"] * 3)], "squared norm"),
            (["verify", "--tolerance", "nan"], "tolerance"),
            # an N below 2 has its m = 0 row, which TeleportParams refuses
            (["teleport", "--N", "1", "--theta", "0.5"], _TWO_PARTIES),
            (["teleport", "--N", "0", "--optimize"], _TWO_PARTIES),
            (["teleport", "--N", "-4", "--critical-eta"], _TWO_PARTIES),
            (["teleport", "--N", "2,1", "--theta", "0.5"], _TWO_PARTIES),
            (_ROW_19 + ["--jobs", "1"], "efficiency 2.0 outside (0, 1]"),
            (_ROW_19 + ["--jobs", "2"], "efficiency 2.0 outside (0, 1]"),
            # squares that overflow, and on-off detectors that never click
            (["wstate", "--coeffs", "1e200,1e200"], "norm^2 = inf"),
            (["witness-scan", "--coeffs", "1e200,1e200"], "norm^2 = inf"),
            (_DARK + ["--theta", "0.5"], _DARK_MESSAGE),
            (_DARK + ["--optimize"], _DARK_MESSAGE),
            # the dark row shares its block with a row that clicks
            (_DARK + ["--theta", "0.5", "--eta", "0.5,1e-17"], _DARK_MESSAGE),
        ],
        ids=[
            "wstate",
            "witness-scan",
            "verify",
            "teleport-N1",
            "optimize-N0",
            "critical-N-4",
            "teleport-N2,1",
            "second-block-jobs1",
            "second-block-jobs2",
            "wstate-huge",
            "witness-scan-huge",
            "teleport-dark",
            "optimize-dark",
            "teleport-dark-mixed",
        ],
    )
    def test_an_error_leaves_stdout_empty(self, capsys, argv, message, fmt):
        code, out, err = run(capsys, argv + fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    def test_a_late_resource_error_leaves_stdout_empty(self, capsys, monkeypatch, fmt):
        # N = 4 owns the second block of this 18-row sweep: a runner that
        # wrote the first block before running the second would fail here
        def refuse_n4(params):
            if params.N == 4:
                raise ValueError("resource refused")
            return conditional_resource(params)

        monkeypatch.setattr("wsim.teleport.conditional_resource", refuse_n4)
        argv = ["teleport", "--N", "3,4", "--m", "0", "--theta", _THETAS_9, *fmt]
        assert run(capsys, argv) == (2, "", "error: resource refused\n")

    @pytest.mark.parametrize(
        "fmt, bound", [([], 2**20), (["--json"], 450 * 19_900)], ids=["csv", "json"]
    )
    def test_witness_scan_holds_no_table_of_rows(self, monkeypatch, fmt, bound):
        # with the scan's report in hand, CSV keeps one row at a time and JSON
        # one list of row dicts: 0.2 and 6.1 MB here against 6.2 and 11.7 MB
        # (589 bytes a pair) when the rows were listed before being written
        argv = ["witness-scan", "--symmetric", "200", "--output", os.devnull, *fmt]
        report = scan_all_pairs(coefficients_from_angles(symmetric_angles(200)), DetectorModel(1.0))
        monkeypatch.setattr("wsim.cli.scan_all_pairs", lambda coeffs, det: report)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @settings(max_examples=100, deadline=None)
    @given(
        squares=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
        excess=st.floats(0.0, 1.0),
    )
    def test_accepted_states_have_a_closed_form_for_every_pair(self, squares, excess):
        # witness-scan computes ratio_closed while its rows are written, so
        # the closed form must accept every pair of a state the scan accepted,
        # up to the edge of the norm tolerance
        assume(sum(squares) > 0.0)
        scale = (1.0 + excess * len(squares) * TOL.norm) / sum(squares)
        alphas = [math.sqrt(x * scale) for x in squares]
        det = DetectorModel(0.5)
        try:
            scan_all_pairs(alphas, det)
        except ValueError:
            assume(False)
        for i, j in itertools.combinations(range(len(alphas)), 2):
            witness_ratio_closed_form(alphas[i], alphas[j], det)


class _Started(Exception):
    """Raised by a spy: the request was admitted and work began."""


def _must_not_build(*args, **kwargs):
    raise AssertionError("work began on a request above the budget")


def _started(*args, **kwargs):
    raise _Started


def _spy_on_first_work(monkeypatch, spy):
    """Replace what each command runs first after admission: the
    coefficient parser, the state constructors and the row runner."""
    for target in (
        "wsim.cli._parse_coefficients",
        "wsim.cli.symmetric_angles",
        "wsim.cli.scan_all_pairs",
        "wsim.cli._run_blocks",
        "wsim.teleport._w_amplitudes",
    ):
        monkeypatch.setattr(target, spy)


def _refusal(count, what, limit):
    return f"error: {count} {what} exceed the limit of {limit} (a 1 GiB memory budget)\n"


_GRID_1000 = ",".join(["0.5"] * 1000)


class TestAdmission:
    # sizes that no check would stop before the spy, so a missing refusal
    # fails at the spy instead of allocating
    @pytest.mark.parametrize(
        "argv, count, what, limit",
        [
            (["wstate", "--symmetric", "10000000"], 10_000_000, "modes", cli._MAX_MODES),
            (
                ["wstate", "--symmetric", str(cli._MAX_MODES + 1)],
                cli._MAX_MODES + 1,
                "modes",
                cli._MAX_MODES,
            ),
            (
                ["witness-scan", "--symmetric", "10000000"],
                49_999_995_000_000,
                "mode pairs",
                cli._MAX_PAIRS,
            ),
            (
                ["witness-scan", "--coeffs", ",".join(["0.1"] * 1426)],
                1426 * 1425 // 2,
                "mode pairs",
                cli._MAX_PAIRS,
            ),
            (
                ["teleport", "--N", "10000000", "--m", "0", "--theta", "0.7"],
                10_000_000,
                "modes",
                cli._MAX_MODES,
            ),
            (
                ["teleport", "--N", "100000", "--m", "0"]
                + ["--eta", _GRID_1000, "--theta", _GRID_1000],
                1_000_000,
                "rows",
                cli._MAX_ROWS,
            ),
            (["teleport", "--N", "1000000", "--critical-eta"], 999_999, "rows", cli._MAX_ROWS),
            (
                ["teleport", "--N", "1000", "--eta", _GRID_1000, "--optimize"],
                999_000,
                "rows",
                cli._MAX_ROWS,
            ),
        ],
        ids=[
            "wstate",
            "wstate-limit",
            "witness-symmetric",
            "witness-coeffs",
            "teleport-modes",
            "teleport-sweep-rows",
            "teleport-critical-rows",
            "teleport-optimize-rows",
        ],
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, count, what, limit):
        _spy_on_first_work(monkeypatch, _must_not_build)
        assert run(capsys, argv) == (2, "", _refusal(count, what, limit))

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness-scan", "--symmetric", "1000"],
            ["witness-scan", "--symmetric", "1425"],
            ["witness-scan", "--coeffs", ",".join(["0.1"] * 1425)],
            ["wstate", "--symmetric", str(cli._MAX_MODES)],
            ["teleport", "--N", "65536", "--m", "0,32768", "--eta", "0.9", "--theta", "0.7"],
            ["teleport", "--N", str(cli._MAX_MODES), "--m", "0", "--theta", "0.7"],
        ],
        ids=[
            "witness-1000",
            "witness-limit",
            "witness-coeffs-limit",
            "wstate-limit",
            "teleport-65536",
            "teleport-limit",
        ],
    )
    def test_largest_sizes_are_admitted(self, monkeypatch, argv):
        _spy_on_first_work(monkeypatch, _started)
        with pytest.raises(_Started):
            main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["wstate", "--symmetric", "121206"],
            ["teleport", "--N", "36376", "--m", "1", "--theta", "0.7"],
        ],
        ids=["wstate", "teleport"],
    )
    def test_admitted_sizes_pass_the_norm_check(self, argv):
        # a left-to-right sum of the squared amplitudes refused both
        assert main(argv + ["--output", os.devnull]) == 0

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["--eta", "0.5,0.9", "--theta", "0.1,0.2,0.3"], 30),
            (["--m", "0,1", "--eta", "0.5,0.9", "--theta", "0.1,0.2,0.3"], 24),
            (["--eta", "0.5,0.9", "--optimize"], 10),
            (["--m", "0", "--eta", "0.5,0.9", "--optimize"], 4),
            (["--eta", "0.5,0.9", "--critical-eta"], 5),
            # this --N replaces the first; N = 0 counts its one m = 0 row
            (["--N", "0,3", "--eta", "0.5,0.9", "--theta", "0.1"], 6),
        ],
        ids=["sweep", "sweep-m", "optimize", "optimize-m", "critical", "sweep-N0"],
    )
    def test_rows_are_counted_from_the_grids(self, capsys, monkeypatch, argv, rows):
        # N = 3 and 4 give 2 + 3 cooperation counts when --m is absent
        _spy_on_first_work(monkeypatch, _started)
        monkeypatch.setattr(cli, "_MAX_ROWS", rows)
        with pytest.raises(_Started):
            main(["teleport", "--N", "3,4", *argv])
        monkeypatch.setattr(cli, "_MAX_ROWS", rows - 1)
        assert run(capsys, ["teleport", "--N", "3,4", *argv]) == (
            2,
            "",
            _refusal(rows, "rows", rows - 1),
        )


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def run_captured(argv):
    """main(argv) with stdout captured: capsys is function-scoped, which
    Hypothesis examples must not share."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


grid_values = st.floats(0.05, 1.0).map(lambda x: round(x, 4))


@st.composite
def teleport_grids(draw):
    """A teleport sweep, --optimize or --critical-eta command line of at
    most eight rows."""
    ns = draw(st.lists(st.sampled_from([3, 4, 5]), min_size=1, max_size=2, unique=True))
    argv = ["teleport", "--N", ",".join(map(str, ns)), "--m", "0,1"]
    argv += ["--detector", draw(st.sampled_from(["number", "onoff"]))]
    mode = draw(st.sampled_from(["sweep", "optimize", "critical"]))
    if mode == "critical":
        return argv + ["--critical-eta"]
    etas = draw(st.lists(grid_values, min_size=1, max_size=2))
    argv += ["--eta", ",".join(map(str, etas))]
    argv += ["--events", draw(st.sampled_from(["D10", "D01", "both"]))]
    if mode == "optimize":
        return argv + ["--optimize"]
    return argv + ["--theta", str(draw(grid_values))]


class TestJobsByteIdentity:
    @settings(max_examples=5, deadline=None)
    @given(argv=teleport_grids())
    def test_csv_and_json(self, argv):
        for fmt in ([], ["--json"]):
            code1, out1 = run_captured(argv + fmt + ["--jobs", "1"])
            code2, out2 = run_captured(argv + fmt + ["--jobs", "2"])
            assert code1 == code2 == 0
            if fmt:
                # the JSON config records the jobs count, and only there
                assert out1.count('"jobs": 1') == 1
                out1 = out1.replace('"jobs": 1', '"jobs": 2')
            assert out1 == out2


@pytest.mark.parametrize(
    "argv, count",
    [
        # 24 sweep, 28 optimized and 27 critical rows: a full block and a
        # partial one
        (
            ["teleport", "--N", "3,4,5", "--m", "0,1", "--eta", "0.4,0.9", "--theta", "0.3,1.1"]
            + ["--detector", "onoff", "--events", "both"],
            24,
        ),
        (["teleport", "--N", "3,4,5,6", "--eta", "0.5,0.9", "--optimize", "--events", "both"], 28),
        (["teleport", "--N", "3,4,5,6,7,8", "--critical-eta"], 27),
    ],
    ids=["sweep", "optimize", "critical"],
)
def test_jobs_byte_identity_across_blocks(argv, count):
    code1, out1 = run_captured(argv + ["--jobs", "1"])
    code2, out2 = run_captured(argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(parse_csv(out1)[1]) == count


class TestJobsCap:
    # 18 sweep rows: two blocks of rows, the tasks a worker takes
    THETAS = ",".join(str(0.1 * k) for k in range(1, 10))
    ARGV = ["teleport", "--N", "3", "--m", "0,1", "--theta", THETAS, "--jobs", "64"]

    @pytest.fixture
    def pool(self, monkeypatch):
        # _run_blocks imports the pool only when it starts workers
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        return _RecordingPool

    def test_capped_at_task_count(self, capsys, monkeypatch, pool):
        monkeypatch.setattr("wsim.cli.os.cpu_count", lambda: 8)
        code, out, _ = run(capsys, self.ARGV)
        assert code == 0
        assert pool.sizes == [2]
        assert len(parse_csv(out)[1]) == 18

    def test_capped_at_cpu_count(self, capsys, monkeypatch, pool):
        monkeypatch.setattr("wsim.cli.os.cpu_count", lambda: 1)
        code, out, _ = run(capsys, self.ARGV)
        assert code == 0
        assert pool.sizes == []  # one worker runs in-process
        assert len(parse_csv(out)[1]) == 18

    def test_unknown_cpu_count_runs_in_process(self, capsys, monkeypatch, pool):
        monkeypatch.setattr("wsim.cli.os.cpu_count", lambda: None)
        code, _, _ = run(capsys, self.ARGV)
        assert code == 0
        assert pool.sizes == []


def test_import_leaves_the_process_pool_unloaded():
    # a fresh interpreter: this test process may have loaded the pool already
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, wsim.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_commands_load_no_module_while_running():
    # every module witness-scan and teleport need is loaded by the import, so
    # a one-time module load never lands inside a command's run
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import contextlib, io, sys, wsim.cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    wsim.cli.main(['witness-scan', '--coeffs=0.6,0.8j', '--eta', '0.9', '--jobs', '1'])\n"
        "    wsim.cli.main(['teleport', '--N', '4', '--m', '0', '--eta', '0.9',\n"
        "                   '--theta', '0.5', '--jobs', '1'])\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
