"""One wsim CLI invocation in a fresh interpreter, as run.py measures it.

    python3 benchmarks/child.py SPEC

SPEC is a JSON object: "root" (checkout holding src/wsim), "argv" (wsim
arguments, or null to stop once wsim is imported), "trace" (wrap the layers
with spans.Tracer) and "spans_out" (where a traced run writes its spans, or
null).  The child prints one JSON report as its last stdout line.  The CLI
table goes to an in-memory buffer and comes back inside that report.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _blas() -> dict:
    """BLAS library and its current thread count, as far as numpy tells."""
    import ctypes
    import glob

    import numpy as np

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    info = {"threads_env": {k: os.environ[k] for k in names if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS next to the package
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libs_dir, "*openblas*"))
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        for lib in libs:
            try:
                get = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            info["threads"] = get()
            return info
    return info


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import wsim.cli  # imports the whole package and numpy

    # set-up ends here; CLOCK_MONOTONIC is system-wide, so the parent can
    # subtract its own spawn time from this
    report = {"ready": time.monotonic()}
    if not os.path.realpath(wsim.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"wsim imported from {wsim.__file__}, not from {src}")
    if spec["argv"] is None:
        import numpy as np

        report["env"] = {
            "wsim": wsim.__version__,
            "numpy": np.__version__,
            "blas": _blas(),
            "tolerances": {
                "protocol_match": wsim.TOL.protocol_match,
                "closed_form": wsim.TOL.closed_form,
            },
        }
        print(json.dumps(report))
        return

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = wsim.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update(
        rc=rc,
        wall_s=wall,
        # ru_maxrss is KiB on Linux, bytes on macOS
        peak_rss_mb=maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10),
        output=buf.getvalue(),
    )
    if tracer is not None:
        tracer.uninstall()
        report["unrestored"] = tracer.unrestored()
        report["trace"] = tracer.summary()
        if spec["spans_out"]:
            tracer.dump(spec["spans_out"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
