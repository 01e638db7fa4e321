"""Command-line interface: output shapes, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsim.cli import main


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
        # 24 sweep rows and 28 optimized rows: a full block and a partial one
        (
            ["teleport", "--N", "3,4,5", "--m", "0,1", "--eta", "0.4,0.9", "--theta", "0.3,1.1"]
            + ["--detector", "onoff", "--events", "both"],
            24,
        ),
        (["teleport", "--N", "3,4,5,6", "--eta", "0.5,0.9", "--optimize", "--events", "both"], 28),
    ],
    ids=["sweep", "optimize"],
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
        # _run_tasks imports the pool only when it starts workers
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
