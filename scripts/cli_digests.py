#!/usr/bin/env python3
"""Print the SHA-256 of wsim's stdout for a fixed set of reference command lines.

    python3 scripts/cli_digests.py [--src DIR]

Each command runs as `python -m wsim.cli <args>` in its own process, with
DIR (default: this checkout's src/) first on PYTHONPATH.  One line per
command: the digest of its stdout, its exit code and the command.  Running
the script once per source tree and diffing the two outputs checks that a
change keeps the CLI tables byte-identical on this machine's numpy and BLAS.

The commands are the three benchmark workloads (benchmarks/run.py) at seeds
1-3, ten README examples and sweeps, four lines that run the preparation
chain with phases, a zero splitter angle and larger N, two witness scans
(one over the 2,016 pairs of a 64-mode state, and one with a vacuum pair,
its note row, and pairs whose coefficient product is zero), heralded
resources at N = 1,024 for four cooperation counts, two lines at scale
(the 2,048-mode symmetric W state and the resource at N = 4,096), a
36-row sweep whose simulated rows cross a block boundary, and an
optimized grid run with two worker processes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    "wstate --symmetric 4",
    "witness-scan --coeffs 0.6,0,0.8 --eta 0.7",
    "witness-scan --symmetric 16",
    "teleport --N 3,4 --eta 0.5,0.8,1 --theta 0.6283 --events both",
    "teleport --N 3 --optimize --json",
    "teleport --N 3 --critical-eta --detector onoff",
    "teleport --N 3,4,5,6,7,8 --eta 0.3,0.5,0.8,1 --theta 0.1,0.5,0.9,1.3 --events both",
    "teleport --N 3,4,5,6,7,8 --critical-eta --detector onoff",
    "teleport --N 3,4 --optimize --detector onoff",
    "teleport --N 3,4,5 --critical-eta --detector onoff",
    "wstate --coeffs=-0.5,0.5j,0.5,-0.5j",
    "wstate --coeffs 0.6,0,0.8j",
    "wstate --symmetric 64",
    "teleport --N 64,128 --m 0,32 --eta 0.9 --theta 0.7",
    "witness-scan --symmetric 64 --eta 0.8",
    "witness-scan --coeffs 0,0,0.6,0.8j --eta 0.5",
    "teleport --N 1024 --m 0,1,512,1022 --eta 0.9,0.3 --theta 0.7",
    "wstate --symmetric 2048",
    "teleport --N 4096 --m 0,2048 --eta 0.9 --theta 0.7",
    "teleport --N 3,5,9 --m 0,1 --eta 0.35,0.9 --theta 0.2,0.7,1.1 --detector onoff --events both",
    "teleport --N 3,4,5 --optimize --events both --jobs 2",
]


def _workloads():
    spec = importlib.util.spec_from_file_location("wsim_bench_run", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def commands() -> list[list[str]]:
    """The reference argv lists, in a fixed order."""
    out = []
    for make in _workloads().values():
        for seed in (1, 2, 3):
            out.append(make(seed, False).argv)
    out.extend(shlex.split(line) for line in EXAMPLES)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the wsim package")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(args.src).resolve()), env.get("PYTHONPATH")) if p
    )
    for cmd in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "wsim.cli", *cmd], env=env, capture_output=True, check=False
        )
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest} {proc.returncode} wsim {shlex.join(cmd)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
