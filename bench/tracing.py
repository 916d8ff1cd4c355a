"""Per-layer spans recorded from outside the program.

The tracer rebinds the names that the unitarizer modules import or call
to wrappers that record one span per call: name, start, end, parent
span and instance id.  The package itself is not edited, and
``restore`` puts every original object back.  Work inside
``circumcenter.solve`` (the tangent MEB subsolve, the line search, the
chart eigendecompositions) and every ``linalg`` call stay inside their
callers' spans until the program traces itself.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
from contextlib import contextmanager

from unitarizer import circumcenter, cli, representation, serialization

# (module, name looked up there, span name).  Calls from inside a module
# resolve through its globals, so rebinding the name there catches them.
WRAPPED = (
    (representation, "unitarize", "representation.unitarize"),
    (representation, "verify_similarity", "representation.verify_similarity"),
    (representation, "make_representation", "representation.make_representation"),
    (representation, "build_action_groupoid", "groupoid.build"),
    (representation, "gram_set", "representation.gram_set"),
    (representation, "point_set", "circumcenter.point_set"),
    (representation, "solve", "circumcenter.solve"),
    (circumcenter, "distance", "geometry.distance"),
    (serialization, "groupoid_from_json", "groupoid.load"),
    (serialization, "make_representation", "representation.make_representation"),
    (cli, "main", "cli.main"),
    (cli, "load_representation", "serialization.load_representation"),
    (cli, "unitarize", "representation.unitarize"),
    (cli, "unitarization_to_json", "serialization.unitarization_to_json"),
    (cli, "save_json", "serialization.save_json"),
)

# Span roots the benchmark opens around each instance.
SETUP = "bench.setup"
INSTANCE = "bench.instance"


def _note(name, args, kwargs, result):
    """Counts read off a call at its layer boundary."""
    if name == "circumcenter.solve":
        max_iter = kwargs.get("max_iter", args[2] if len(args) > 2 else None)
        return {
            "iterations": result.iterations,
            "at_cap": result.iterations == max_iter,
            "converged": result.converged,
            "bound": result.center_error_bound,
        }
    if name == "representation.gram_set":
        return {"points": len(result.points)}
    if name in ("groupoid.build", "groupoid.load"):
        return {"pairs": len(result.composition)}
    if name == "serialization.load_representation":
        return {"bytes": os.path.getsize(args[0])}
    if name == "serialization.save_json":
        return {"bytes": os.path.getsize(args[1])}
    return None


@contextmanager
def rebound(module, attr, value):
    """``module.attr`` bound to ``value`` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "note", "error")

    def __init__(self, name, start, parent, instance):
        self.name, self.start, self.parent, self.instance = name, start, parent, instance
        self.end = start
        self.note = None
        self.error = None


class Tracer:
    """Records spans while installed and enabled; keeps them in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []
        self._instance = None
        self._originals: list[tuple] = []

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _open(self, name, instance=None):
        if instance is not None:
            self._instance = instance
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._instance))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                self._close(span)
                raise
            self._close(span)
            span.note = _note(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def root(self, name, instance):
        """A benchmark-level span that parents the program's spans."""
        span = self._open(name, instance)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def quiet(self):
        """Suspend recording, e.g. for the untimed correctness gate."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "start", "end", "parent", "instance", "error"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, repr(s.start), repr(s.end), s.parent,
                            s.instance, s.error or ""])


def unrestored_names() -> list:
    """Wrapped names that still hold a tracing wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, _ in WRAPPED
        if hasattr(getattr(module, attr), "__wrapped__")
    ]


def _root_of(spans, i):
    while spans[i].parent >= 0:
        i = spans[i].parent
    return spans[i].name


def layer_metrics(spans, passes: int, setups: int = 1) -> dict:
    """Per-layer figures per pass over the workload, from recorded spans.

    Spans under a ``bench.setup`` root count once per set-up, spans under
    ``bench.instance`` are divided by the number of timed ``passes``.
    Self time is a span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    total = {}
    self_total = {}
    counts = {}
    solve_ms = []
    bounds = []

    def add(table, key, value, weight):
        table[key] = table.get(key, 0.0) + value * weight

    for i, s in enumerate(spans):
        root = _root_of(spans, i)
        weight = 1.0 / setups if root == SETUP else 1.0 / passes
        name = s.name
        if name == "representation.make_representation":
            parent = spans[s.parent].name if s.parent >= 0 else ""
            name += ".output" if parent == "representation.unitarize" else ".input"
        dur = s.end - s.start
        add(total, name, dur, weight)
        add(self_total, name, dur - child_time[i], weight)
        add(counts, name, 1, weight)
        note = s.note or {}
        for key, value in note.items():
            add(counts, f"{name}:{key}", float(value), weight)
        if s.error:
            add(counts, f"{name}:errors", 1, weight)
        if s.name == "circumcenter.solve" and s.note:
            solve_ms.append(1e3 * dur)
            bounds.append(s.note["bound"])

    def t(key):
        return total.get(key, 0.0)

    def c(key):
        return counts.get(key, 0.0)

    solves = c("circumcenter.solve")
    iterations = c("circumcenter.solve:iterations")
    return {
        "circumcenter.solve_s": (t("circumcenter.solve"), "s"),
        "circumcenter.solves": (solves, "count"),
        "circumcenter.iterations": (iterations, "count"),
        "circumcenter.ms_per_iter": (
            1e3 * t("circumcenter.solve") / iterations if iterations else 0.0, "ms"),
        "circumcenter.solve_p50_ms": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "circumcenter.solve_max_ms": (max(solve_ms, default=0.0), "ms"),
        "circumcenter.solves_at_cap": (c("circumcenter.solve:at_cap"), "count"),
        "circumcenter.certified_frac": (
            c("circumcenter.solve:converged") / solves if solves else 0.0, "1"),
        "circumcenter.cert_bound_p50": (statistics.median(bounds) if bounds else 0.0, "1"),
        "circumcenter.cert_bound_max": (max(bounds, default=0.0), "1"),
        "circumcenter.point_set_s": (t("circumcenter.point_set"), "s"),
        "circumcenter.point_set_rejects": (c("circumcenter.point_set:errors"), "count"),
        "geometry.distance_calls": (c("geometry.distance"), "count"),
        "geometry.distance_s": (t("geometry.distance"), "s"),
        "groupoid.build_s": (t("groupoid.build"), "s"),
        "groupoid.load_s": (t("groupoid.load"), "s"),
        "groupoid.composable_pairs": (
            c("groupoid.build:pairs") + c("groupoid.load:pairs"), "count"),
        "representation.validate_input_s": (
            t("representation.make_representation.input"), "s"),
        "representation.validate_output_s": (
            t("representation.make_representation.output"), "s"),
        "representation.gram_s": (self_total.get("representation.gram_set", 0.0), "s"),
        "representation.gram_points": (c("representation.gram_set:points"), "count"),
        "representation.unitarize_self_s": (
            self_total.get("representation.unitarize", 0.0), "s"),
        "representation.verify_s": (t("representation.verify_similarity"), "s"),
        "serialization.parse_s": (
            self_total.get("serialization.load_representation", 0.0), "s"),
        "serialization.encode_s": (t("serialization.unitarization_to_json"), "s"),
        "serialization.write_s": (t("serialization.save_json"), "s"),
        "serialization.bytes_in": (c("serialization.load_representation:bytes"), "B"),
        "serialization.bytes_out": (c("serialization.save_json:bytes"), "B"),
        "cli.self_s": (self_total.get("cli.main", 0.0), "s"),
    }
