"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py -q

Runs each workload at its smallest size through run.py, checks that the
failure counter sees failures, and that tracing leaves wsim as it found it.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, listed):
    line = _last_line(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_failure_counter_sees_failures():
    workload = run.verify(0, tiny=True)
    failing = run.Workload("verify", workload.argv + ["--tolerance", "1e-300"], 1, run.check_verify)
    children = [run.run_child(failing.argv)]
    env = run.run_child(None)["env"]
    run.score(failing, children, env["tolerances"])
    assert children[0]["rc"] == 1
    assert children[0]["failed"] > 0 and children[0]["failed"] == children[0]["attempted"]


def test_differing_output_fails_every_item():
    workload = run.witness_scan(0, tiny=True)
    children = [run.run_child(workload.argv) for _ in range(3)]
    children[2]["output"] = children[2]["output"].replace("true", "false", 1)
    run.score(workload, children, run.run_child(None)["env"]["tolerances"])
    assert [c["failed"] for c in children] == [0, 0, workload.expected]


def _bindings() -> dict:
    """Every name bound in a wsim module, plus the two patched class attributes."""
    import wsim
    from wsim.fock import DensityOperator, FockSpace

    out = {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "wsim" or name.startswith("wsim.")
        for key, value in vars(module).items()
    }
    out["DensityOperator.__post_init__"] = vars(DensityOperator)["__post_init__"]
    out["FockSpace.basis"] = vars(FockSpace)["basis"]
    assert wsim.cli.main is vars(wsim.cli)["main"]
    return out


def test_trace_restores_every_wrapped_function():
    import wsim.cli
    from spans import Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert wsim.cli.main is not before[("wsim.cli", "main")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert wsim.cli.main(run.witness_scan(0, tiny=True).argv) == 0
    tracer.uninstall()
    after = _bindings()
    assert tracer.unrestored() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = tracer.summary()
    assert summary["metrics"]["cli.main.calls"] == 1
    assert abs(summary["self_sum_s"] - summary["root_s"]) < 1e-9
