"""Tracing from outside the program: wrap each layer's public functions.

The library binds helpers with ``from .x import y``, so a function is
replaced in every module namespace that holds it (``simplex.eigendecompose``,
``convexity.validate``, ...), plus the ``numpy.linalg`` entry points that
call LAPACK.  ``_cholesky_factor`` is wrapped only where ``extremal``
imports it, so the public ``cholesky`` (which calls it internally) is not
counted twice.  Spans ``(name, start, end, parent, op id, size)`` stay in
memory until :meth:`Tracer.write`; every binding is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import sys
import time

import numpy as np

LIBRARY_MODULES = ("", ".linalg", ".simplex", ".dual", ".convexity", ".extremal", ".cli")

#: (span name, defining module, attribute, namespaces to patch or None for all)
TARGETS = [
    ("linalg.eigendecompose", ".linalg", "eigendecompose", None),
    ("linalg.cholesky", ".linalg", "cholesky", None),
    ("linalg.cholesky_screen", ".linalg", "_cholesky_factor", (".extremal",)),
    ("linalg.adjugate", ".linalg", "adjugate", None),
    ("simplex.validate", ".simplex", "validate", None),
    ("simplex.embed", ".simplex", "embed", None),
    ("simplex.volume", ".simplex", "volume", None),
    ("simplex.face_squared_lengths", ".simplex", "face_squared_lengths", None),
    ("simplex.triangle_inequalities_hold", ".simplex", "triangle_inequalities_hold", None),
    ("simplex.gram_from_squared_lengths", ".simplex", "gram_from_squared_lengths", None),
    ("dual.outward_normals", ".dual", "outward_normals", None),
    ("dual.dual_gram", ".dual", "dual_gram", None),
    ("dual.area_ratio_from_adjugate", ".dual", "area_ratio_from_adjugate", None),
    ("dual.null_direction", ".dual", "null_direction", None),
    ("convexity.probe", ".convexity", "probe_log_concavity", None),
    ("convexity.probe", ".convexity", "probe_root_concavity", None),
    ("convexity.bisect", ".convexity", "nontri_threshold", None),
    ("convexity.bisect", ".convexity", "frankel_length_threshold", None),
    ("convexity.instance", ".convexity", "nontri_instance", None),
    ("convexity.instance", ".convexity", "frankel_instance", None),
    ("extremal.maximize", ".extremal", "maximize", None),
]

#: numpy.linalg entry points backed by LAPACK (norm is not a factorization)
NUMPY_LAPACK = ("det", "slogdet", "inv", "solve", "svd", "eig", "eigh", "eigvals",
                "eigvalsh", "cholesky", "qr", "lstsq", "pinv", "matrix_rank")

EIG_BUCKETS = (("n2_4", 2, 4), ("n5_8", 5, 8), ("n9_12", 9, 12))


class Tracer:
    """Records nested spans; ``op_id`` is set by the loop before each op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self
        sized = name == "linalg.eigendecompose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                size = len(args[0]) if sized else 0
                spans[idx] = (name, t0, t1, parent, tracer.op_id, size)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def patch_everywhere(self, original, name: str, namespaces) -> None:
        wrapped = self.wrap(name, original)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library layers and numpy.linalg; restore on exit."""
        loaded = {suffix: sys.modules.get("simplexcone" + suffix) for suffix in LIBRARY_MODULES}
        loaded = {k: v for k, v in loaded.items() if v is not None}
        try:
            for name, home, attr, where in TARGETS:
                original = getattr(importlib.import_module("simplexcone" + home), attr)
                spaces = loaded.values() if where is None else [loaded[w] for w in where]
                self.patch_everywhere(original, name, spaces)
            for attr in NUMPY_LAPACK:
                self.patch(np.linalg, attr, "linalg.numpy_lapack")
            yield self
        finally:
            self.restore()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tsize\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    def self_times(self):
        """Per-span (name, self ns, parent, size): duration minus child durations."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _op, _size in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], s[2] - s[1] - c, s[3], s[5]) for s, c in zip(self.spans, child)]

    def summary(self, phase: dict, ops) -> dict:
        """Per-layer metrics of one traced phase of the loop."""
        n_ops = len(phase["slots"])
        rows = self.self_times()
        count: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        eig_us: dict[str, list[float]] = {b: [] for b, _, _ in EIG_BUCKETS}
        # the nearest enclosing probe / bisection / maximize span of every span
        owner: list[int] = []
        for idx, (name, ns, parent, size) in enumerate(rows):
            count[name] = count.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + ns
            if name in ("convexity.probe", "convexity.bisect", "extremal.maximize"):
                owner.append(idx)
            else:
                owner.append(owner[parent] if parent >= 0 else -1)
            if name == "linalg.eigendecompose":
                for bucket, lo, hi in EIG_BUCKETS:
                    if lo <= size <= hi:
                        eig_us[bucket].append(ns / 1e3)

        def under(name: str, outer: str) -> int:
            return sum(1 for (nm, *_), o in zip(rows, owner)
                       if nm == name and o >= 0 and rows[o][0] == outer)

        def per_op(name: str) -> float:
            return count.get(name, 0) / n_ops

        def self_s(*names: str) -> float:
            return sum(self_ns.get(nm, 0) for nm in names) / 1e9 / n_ops

        probes = count.get("convexity.probe", 0)
        bisects = count.get("convexity.bisect", 0)
        runs = count.get("extremal.maximize", 0)
        iterations = [phase["outputs"][slot][2] for slot in phase["slots"]
                      if ops[slot][0] == "maximize" and phase["outputs"][slot][0] != "error"]
        screens = under("linalg.cholesky_screen", "extremal.maximize")
        chol = ("linalg.cholesky", "linalg.cholesky_screen")
        out = {
            "linalg.eigendecompose.calls_per_op": per_op("linalg.eigendecompose"),
            "linalg.eigendecompose.self_s": self_s("linalg.eigendecompose"),
        }
        for bucket, _, _ in EIG_BUCKETS:
            values = eig_us[bucket]
            out[f"linalg.eigendecompose.us_per_call.{bucket}"] = (
                statistics.median(values) if values else 0.0)
        out.update({
            "linalg.cholesky.calls_per_op": sum(per_op(c) for c in chol),
            "linalg.cholesky.self_s": self_s(*chol),
            "linalg.adjugate.self_s": self_s("linalg.adjugate"),
            "linalg.numpy_lapack.calls_per_op": per_op("linalg.numpy_lapack"),
            "linalg.numpy_lapack.self_s": self_s("linalg.numpy_lapack"),
            "linalg.factorizations_per_op": (
                per_op("linalg.eigendecompose") + sum(per_op(c) for c in chol)
                + per_op("linalg.numpy_lapack")),
        })
        for name in ("validate", "embed", "volume", "face_squared_lengths",
                     "triangle_inequalities_hold"):
            out[f"simplex.{name}.self_s"] = self_s(f"simplex.{name}")
        out["simplex.gram_from_squared_lengths.calls_per_op"] = per_op(
            "simplex.gram_from_squared_lengths")
        for name in ("outward_normals", "dual_gram", "area_ratio_from_adjugate",
                     "null_direction"):
            out[f"dual.{name}.self_s"] = self_s(f"dual.{name}")
        out.update({
            "convexity.probe.self_s": self_s("convexity.probe"),
            "convexity.probe.validate_calls_per_probe": (
                under("simplex.validate", "convexity.probe") / probes if probes else 0.0),
            "convexity.bisect.instances_per_threshold": (
                under("convexity.instance", "convexity.bisect") / bisects if bisects else 0.0),
            "extremal.iterations_per_run.median": (
                float(statistics.median(iterations)) if iterations else 0.0),
            "extremal.iterations_per_run.max": float(max(iterations, default=0)),
            "extremal.accept_ratio": sum(iterations) / screens if screens else 0.0,
            "extremal.numpy_lapack.calls_per_run": (
                under("linalg.numpy_lapack", "extremal.maximize") / runs if runs else 0.0),
            "extremal.maximize.self_s": self_s("extremal.maximize"),
        })
        return out
