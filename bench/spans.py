"""Layer spans recorded from outside the package.

`Tracer.installed()` swaps each layer's public function, at the module name
its callers look it up by, for a wrapper that records a span: name, start,
end, parent, job id and a few counts.  Spans stay in memory; `layer_metrics`
folds them into per-layer numbers and `check_consistency` proves that the
self times of each job add up to its wall time.  A target that no longer
exists raises `TraceTargetMissing`, so a rename cannot silently drop a layer.

`Replay` serves the same solver names from answers recorded in an earlier
run of the same job; the memory pass uses it (see run.py).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np


class TraceTargetMissing(RuntimeError):
    pass


class TraceInconsistent(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Solver entry points, at every module that calls them.
SOLVER_NAMES = ("idrabi.eigen.eigh_tridiagonal", "idrabi.evolution.eigh_tridiagonal")


def _solver_span(args, kwargs):
    return "backend.vectors" if kwargs.get("want_vectors", args[2] if len(args) > 2 else False) else "backend.values"


def _solver_attrs(args, kwargs, result):
    return {"rows": len(args[0])}


def _sweep_attrs(args, kwargs, result):
    return {"size": int(kwargs.get("size", args[4] if len(args) > 4 else 0))}


def _crossing_attrs(args, kwargs, result):
    return {"found": sum(1 for c in result.between_parity if c.kind == "sign_change")}


def _history_attrs(args, kwargs, result):
    h, samples = args[0], int(kwargs.get("samples", args[3] if len(args) > 3 else 0))
    return {"history_bytes": samples * h.size * 16}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (dotted name, span name or callable picking it, attrs callable or None)
TARGETS = [
    *[(name, _solver_span, _solver_attrs) for name in SOLVER_NAMES],
    ("idrabi.cli.build_hamiltonian", "model.build", None),
    ("idrabi.sweep.build_hamiltonian", "model.build", None),
    ("idrabi.eigen.build_hamiltonian", "model.build", None),
    ("idrabi.cli.sweep_spectrum", "sweep.spectrum", _sweep_attrs),
    ("idrabi.cli.analyze_crossings", "sweep.crossings", _crossing_attrs),
    ("idrabi.cli.ground_energy_vs_size", "eigen.converge", None),
    ("idrabi.cli.build_susy_pair", "susy.build", None),
    ("idrabi.cli.verify_isospectrality", "susy.verify", None),
    ("idrabi.cli.evolve", "evolution.propagate", _history_attrs),
    ("idrabi.cli.detect_revivals", "evolution.revivals", None),
    ("idrabi.cli.write_csv", "serialize.write", _write_attrs),
    ("idrabi.cli.write_json", "serialize.write", _write_attrs),
    ("idrabi.cli.atomic_write_text", "serialize.write", _write_attrs),
    ("idrabi.cli.sweep_svg", "svgplot.render", None),
    ("idrabi.cli.evolution_svg", "svgplot.render", None),
]


def _resolve(dotted: str):
    module_name, attr = dotted.rsplit(".", 1)
    module = importlib.import_module(module_name)
    if not callable(getattr(module, attr, None)):
        raise TraceTargetMissing(f"{dotted} does not exist: a layer would go untraced")
    return module, attr


@contextlib.contextmanager
def _patched(replacements):
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


class Tracer:
    """Collects spans for jobs run while `installed()` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1
        self.errors = 0  # EigensolverError raised by the solver

    def _wrap(self, fn, name, attrs):
        from idrabi.errors import EigensolverError

        def wrapper(*args, **kwargs):
            span = Span(name(args, kwargs) if callable(name) else name, self._job, self._stack[-1], time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except EigensolverError:
                self.errors += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        replacements = []
        for dotted, name, attrs in TARGETS:
            module, attr = _resolve(dotted)
            replacements.append((module, attr, self._wrap(getattr(module, attr), name, attrs)))
        with _patched(replacements):
            yield self

    def job(self, job_id: int, call):
        """Run `call()` as the root span "cli" of job `job_id`.

        Returns the call's result and the job's wall time.
        """
        self._job = job_id
        root = Span("cli", job_id, None, 0.0)
        self._stack = [len(self.spans)]
        self.spans.append(root)
        root.start = time.perf_counter()
        try:
            result = call()
        finally:
            root.end = time.perf_counter()
            self._stack = []
        return result, root.duration

    def to_records(self) -> list:
        return [
            {"name": s.name, "job": s.job, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    return [s.duration - _covered([(spans[c].start, spans[c].end) for c in kids]) for s, kids in zip(spans, children)]


def check_consistency(spans, selfs, margin: float = 1e-3) -> None:
    """Fail unless spans nest in their parents and self times sum to job time."""
    totals, roots = {}, {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        if s.end < s.start:
            raise TraceInconsistent(f"span {i} ({s.name}) ends before it starts")
        if s.parent is None:
            roots[s.job] = s
        else:
            p = spans[s.parent]
            if s.job != p.job or s.start < p.start or s.end > p.end:
                raise TraceInconsistent(f"span {i} ({s.name}) is not inside its parent {p.name}")
        totals[s.job] = totals.get(s.job, 0.0) + own
    for job, root in roots.items():
        gap = abs(totals[job] - root.duration)
        if gap > margin * root.duration + 1e-6:
            raise TraceInconsistent(
                f"job {job}: self times sum to {totals[job]:.6f} s, wall time {root.duration:.6f} s"
            )


def _descendants(spans) -> dict:
    """Indices of all spans below each span."""
    below = {}
    for i, s in enumerate(spans):
        p = s.parent
        while p is not None:
            below.setdefault(p, []).append(i)
            p = spans[p].parent
    return below


def layer_metrics(spans, selfs, jobs: int, reported_levels: int, errors: int) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Counts, busy and self times are per traced job; ratios are over the run.
    """
    per = max(jobs, 1)
    busy, self_s, calls, rows = {}, {}, {}, {}
    for s, own in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        rows[s.name] = rows.get(s.name, 0) + s.attrs.get("rows", 0)
    below = _descendants(spans)
    solves = {"sweep.spectrum": 0, "sweep.crossings": 0}
    spot = found = 0
    for i, s in enumerate(spans):
        if s.name in solves:
            kids = [spans[c] for c in below.get(i, []) if spans[c].name.startswith("backend.")]
            solves[s.name] += len(kids)
            if s.name == "sweep.spectrum":
                spot += sum(1 for k in kids if k.attrs["rows"] > s.attrs["size"])
            else:
                found += s.attrs["found"]
    computed = rows.get("backend.values", 0) + rows.get("backend.vectors", 0)

    def attr_sum(key):
        return sum(s.attrs.get(key, 0) for s in spans)

    m = {}
    for layer in ("backend.values", "backend.vectors"):
        m[f"{layer}.calls"] = (calls.get(layer, 0) / per, "count/job")
        m[f"{layer}.busy_s"] = (busy.get(layer, 0.0) / per, "s/job")
        m[f"{layer}.rows"] = (rows.get(layer, 0) / per, "count/job")
    m["backend.levels_used_ratio"] = (reported_levels / computed if computed else 0.0, "ratio")
    m["backend.errors"] = (errors, "count")
    m["model.build.calls"] = (calls.get("model.build", 0) / per, "count/job")
    m["model.build.busy_s"] = (busy.get("model.build", 0.0) / per, "s/job")
    m["sweep.spectrum.self_s"] = (self_s.get("sweep.spectrum", 0.0) / per, "s/job")
    m["sweep.spectrum.solves"] = (solves["sweep.spectrum"] / per, "count/job")
    m["sweep.spot_check_solves"] = (spot / per, "count/job")
    m["sweep.crossings.self_s"] = (self_s.get("sweep.crossings", 0.0) / per, "s/job")
    m["sweep.crossings.solves"] = (solves["sweep.crossings"] / per, "count/job")
    m["sweep.crossings.found"] = (found / per, "count/job")
    m["sweep.crossings.solves_per_crossing"] = (solves["sweep.crossings"] / found if found else 0.0, "ratio")
    m["eigen.converge.self_s"] = (self_s.get("eigen.converge", 0.0) / per, "s/job")
    m["susy.build.busy_s"] = (busy.get("susy.build", 0.0) / per, "s/job")
    m["susy.verify.self_s"] = (self_s.get("susy.verify", 0.0) / per, "s/job")
    m["evolution.propagate.self_s"] = (self_s.get("evolution.propagate", 0.0) / per, "s/job")
    m["evolution.revivals.busy_s"] = (busy.get("evolution.revivals", 0.0) / per, "s/job")
    m["evolution.history_bytes"] = (attr_sum("history_bytes") / per, "B/job")
    m["serialize.write.calls"] = (calls.get("serialize.write", 0) / per, "count/job")
    m["serialize.write.busy_s"] = (busy.get("serialize.write", 0.0) / per, "s/job")
    m["serialize.write.bytes"] = (attr_sum("bytes") / per, "B/job")
    m["svgplot.render.busy_s"] = (busy.get("svgplot.render", 0.0) / per, "s/job")
    m["cli.self_s"] = (self_s.get("cli", 0.0) / per, "s/job")
    return m


class Replay:
    """Answers solver calls with recorded results instead of solving.

    `recording()` runs the real solver and keeps a copy of every answer;
    `replaying()` hands back fresh copies of them in the same order and fails
    if a call's input differs from the recorded one.
    """

    def __init__(self):
        self._answers = []
        self._next = 0

    def _recorder(self, fn):
        def record(diagonal, offdiagonal, *args, **kwargs):
            w, v = fn(diagonal, offdiagonal, *args, **kwargs)
            inputs = (np.array(diagonal, dtype=np.float64), np.array(offdiagonal, dtype=np.float64))
            self._answers.append((inputs, w.copy(), None if v is None else v.copy()))
            return w, v

        return record

    def _player(self, fn):
        def play(diagonal, offdiagonal, *args, **kwargs):
            (d, e), w, v = self._answers[self._next]
            self._next += 1
            if not (np.array_equal(d, diagonal) and np.array_equal(e, offdiagonal)):
                raise TraceInconsistent("replayed solver call differs from the recorded one")
            return w.copy(), None if v is None else v.copy()

        return play

    def _swap(self, make):
        replacements = []
        for dotted in SOLVER_NAMES:
            module, attr = _resolve(dotted)
            replacements.append((module, attr, make(getattr(module, attr))))
        return _patched(replacements)

    def recording(self):
        self._answers, self._next = [], 0
        return self._swap(self._recorder)

    def replaying(self):
        self._next = 0
        return self._swap(self._player)

