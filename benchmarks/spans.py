"""Span tracer for wsim, installed from outside the package.

`Tracer.install` wraps the public functions of each wsim module (the
layers of the benchmark) and replaces every reference that any loaded wsim
module holds to them, so calls between modules are seen too.  Each call
records a span: name, parent span, start, end, the network size N and the
largest space dimension touched in its subtree.  Spans stay in memory;
`summary` and `dump` turn them into per-function counts, self times and
curves in N once the traced run has ended.  `uninstall` puts every original
back.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from functools import cached_property

# Public functions wrapped per layer.  `config` holds only constants and is
# not a layer.  DensityOperator construction (validation) and first accesses
# of FockSpace.basis are wrapped separately, on their classes.
LAYERS = {
    "fock": ("partial_trace", "tensor", "apply_two_mode_unitary", "apply_phase_shift"),
    "circuits": (
        "generate_w",
        "w_state_from_coefficients",
        "coefficients_from_angles",
        "angles_from_coefficients",
    ),
    "detection": ("condition", "lossy_moments", "lossy_moments_ancilla", "povm_moments"),
    "witness": (
        "scan_all_pairs",
        "reduced_pair",
        "witness_ratio_simulated",
        "witness_ratio_closed_form",
    ),
    "teleport": (
        "conditional_resource",
        "simulate_averaged",
        "averaged_fidelity_probability",
        "bob_state",
        "mc_averaged",
        "max_fidelity",
        "critical_eta",
        "nonadvantageous_bound",
    ),
    "optimize": ("golden_section_max", "bisect_root"),
    "verify": ("run_verification",),
    "cli": ("main",),
}
DENSITY = "fock.DensityOperator"
SPAN_NAMES = (DENSITY,) + tuple(
    f"{layer}.{name}" for layer, names in LAYERS.items() for name in names
)
DENSITY_INDEX = SPAN_NAMES.index(DENSITY)
# optimizers whose objective evaluations are counted
OPTIMIZERS = ("optimize.golden_section_max", "optimize.bisect_root")

# span record fields, in order
NAME, PARENT, START, END, N, DIM = range(6)


def _dim(obj) -> int:
    """Dimension of obj's space if its basis is already built, else 0.

    Reading the cached basis directly keeps the tracer from building one.
    """
    space = getattr(obj, "space", None)
    if space is None:
        return 0
    basis = vars(space).get("basis")
    return 0 if basis is None else len(basis)


class Tracer:
    """In-memory span recorder for one traced wsim run."""

    def __init__(self) -> None:
        from wsim.circuits import SplitterAngles, WCoefficients
        from wsim.teleport import TeleportParams

        self._size_types = (TeleportParams, SplitterAngles, WCoefficients)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []
        self._class_patches: list[tuple[type, str, object]] = []
        self.counters = {"fock.basis_builds": 0, "fock.max_dim": 0}
        for name in OPTIMIZERS:
            self.counters[f"{name}.evals"] = 0

    # -- recording -----------------------------------------------------------

    def _network_size(self, args):
        """N carried by a call's arguments, or None to inherit the parent's."""
        params, angles, coeffs = self._size_types
        for a in args:
            if isinstance(a, params):
                return a.N
            if isinstance(a, angles):
                return a.num_modes
            if isinstance(a, coeffs):
                return len(a)
        if args and type(args[0]) is int:
            return args[0]  # max_fidelity(n, ...), critical_eta(n, ...), ...
        return None

    def _wrap(self, name: str, func):
        index = SPAN_NAMES.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        network_size = self._network_size
        evals_key = f"{name}.evals" if name in OPTIMIZERS else None
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if evals_key is not None:
                objective = args[0]

                def counted(x):
                    counters[evals_key] += 1
                    return objective(x)

                args = (counted,) + args[1:]
            parent = stack[-1] if stack else -1
            n = network_size(args)
            if n is None and parent >= 0:
                n = spans[parent][N]
            span = [index, parent, 0.0, 0.0, n, 0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                dim = max(span[DIM], _dim(result), *(_dim(a) for a in args))
                span[DIM] = dim
                if parent >= 0 and dim > spans[parent][DIM]:
                    spans[parent][DIM] = dim

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import wsim  # noqa: F401  (loads every module that may hold references)
        from wsim.fock import DensityOperator, FockSpace

        modules = [m for key, m in sys.modules.items() if key == "wsim" or key.startswith("wsim.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"wsim.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    namespace = vars(m)
                    for key, value in list(namespace.items()):
                        if value is original:
                            namespace[key] = wrapped
                            self._patched.append((namespace, key, original))

        self._patch_class(
            DensityOperator, "__post_init__", self._wrap(DENSITY, DensityOperator.__post_init__)
        )
        basis = vars(FockSpace)["basis"]
        counters = self.counters

        def counted_basis(space):
            out = basis.func(space)
            counters["fock.basis_builds"] += 1
            counters["fock.max_dim"] = max(counters["fock.max_dim"], len(out))
            return out

        counted = cached_property(counted_basis)
        counted.__set_name__(FockSpace, "basis")
        self._patch_class(FockSpace, "basis", counted)

    def _patch_class(self, cls: type, attr: str, value) -> None:
        self._class_patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, value)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        for cls, attr, original in reversed(self._class_patches):
            setattr(cls, attr, original)

    def unrestored(self) -> list[str]:
        """Names still bound to a wrapper; empty after a clean uninstall."""
        out = [
            f"{ns['__name__']}.{key}" for ns, key, orig in self._patched if ns[key] is not orig
        ]
        out += [
            f"{cls.__name__}.{attr}"
            for cls, attr, orig in self._class_patches
            if vars(cls)[attr] is not orig
        ]
        return out

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, self times and curves in N, computed from the spans.

        A span's self time is its duration minus the time its child spans
        cover; spans nest on one thread, so that cover is the sum of the
        children's durations.
        """
        spans = self.spans
        cover = [0.0] * len(spans)
        in_resource = [False] * len(spans)
        resource = SPAN_NAMES.index("teleport.conditional_resource")
        generate = SPAN_NAMES.index("circuits.generate_w")
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                cover[s[PARENT]] += s[END] - s[START]
                in_resource[i] = in_resource[s[PARENT]]
            if s[NAME] == resource:
                in_resource[i] = True
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        curves: dict[tuple[int, object], list] = {}
        resource_builds = validated_bytes = 0
        for i, s in enumerate(spans):
            own = s[END] - s[START] - cover[i]
            calls[s[NAME]] += 1
            self_s[s[NAME]] += own
            point = curves.setdefault((s[NAME], s[N]), [0, 0.0, 0])
            point[0] += 1
            point[1] += own
            point[2] = max(point[2], s[DIM])
            if s[NAME] == DENSITY_INDEX:
                validated_bytes += s[DIM] * s[DIM] * 16  # complex128 matrix
            if s[NAME] == generate and in_resource[i]:
                resource_builds += 1
        metrics: dict[str, float] = {}
        for name, c, t in zip(SPAN_NAMES, calls, self_s):
            metrics[f"{name}.calls"] = c
            metrics[f"{name}.self_s"] = t
        metrics.update(self.counters)
        metrics["fock.validated_bytes"] = validated_bytes
        metrics["teleport.resource_builds"] = resource_builds
        lookups = calls[resource]
        metrics["teleport.resource_hit_ratio"] = 1.0 - resource_builds / lookups if lookups else 0.0
        by_name: dict[str, list] = {}
        for (name, n), (c, t, d) in sorted(curves.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
            point = {"N": n, "calls": c, "self_s": t, "max_dim": d}
            by_name.setdefault(SPAN_NAMES[name], []).append(point)
        return {
            "metrics": metrics,
            "self_sum_s": sum(self_s),
            "root_s": sum(s[END] - s[START] for s in spans if s[PARENT] < 0),
            "curves": by_name,
        }

    def dump(self, path: str) -> None:
        """Write every span, start times relative to the first, as gzipped JSON."""
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = {
            "names": list(SPAN_NAMES),
            "fields": ["name", "parent", "start_s", "end_s", "N", "dim"],
            "spans": [
                [s[NAME], s[PARENT], s[START] - t0, s[END] - t0, s[N], s[DIM]] for s in self.spans
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))

