"""In-memory span recorder, self-time arithmetic and the tracing wrappers.

A span is ``(name, parent, start, end)``; the recorder keeps them in flat
arrays while the workload runs and hands them to numpy at the end, so the
only cost paid per call is a few appends and two clock reads.

The wrappers are installed from the benchmark, at the names callers look up:
``tvdeblur.pipeline.{pcg, pbicgstab, assemble_preconditioner,
DiffusionOperator, el_residual}``, ``tvdeblur.harness.restore``, the
methods of ``StructuredBlurOperator``, ``DiffusionOperator`` and
``FactoredPreconditioner`` that a restore calls (not the dense oracles),
and ``apply_1d`` / ``tensor_apply_2d`` as bound
in ``tvdeblur.blur`` and ``tvdeblur.precond``.  :meth:`Tracer.installed`
restores every original on exit.  The span name's first component is the
layer (``transforms``, ``blur``, ``tv``, ``precond``, ``krylov``,
``pipeline``, ``harness``).
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

SPAN_DTYPE = np.dtype([("name", "<i2"), ("parent", "<i4"),
                       ("start", "<f8"), ("end", "<f8")])

NO_PARENT = -1


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the covered part is the length of the union.
    ``parent`` holds the index of each span's parent, or ``NO_PARENT``.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if start.size == 0:
        return np.zeros(0)
    # Integer nanoseconds from the first start keep the sums exact, so a
    # tree's self times add up to its root's duration to the nanosecond.
    origin = float(start.min())
    s = np.rint((start - origin) * 1e9).astype(np.int64)
    e = np.rint((end - origin) * 1e9).astype(np.int64)
    own = e - s
    kids = np.flatnonzero(parent >= 0)
    if kids.size:
        p = parent[kids]
        lo = np.maximum(s[kids], s[p])
        hi = np.maximum(np.minimum(e[kids], e[p]), lo)
        order = np.lexsort((lo, p))
        p, lo, hi = p[order], lo[order], hi[order]
        # Running maximum of interval ends within each parent's children:
        # lifting each group above the previous one lets a single global
        # accumulate stay within groups.
        first = np.r_[True, p[1:] != p[:-1]]
        offset = (np.cumsum(first) - 1) * (int(e.max()) + 1)
        reach = np.maximum.accumulate(hi + offset) - offset
        prev = np.r_[0, reach[:-1]]
        prev[first] = 0
        covered = np.maximum(0, hi - np.maximum(lo, prev))
        own -= np.bincount(p, weights=covered,
                           minlength=parent.size).astype(np.int64)
    return own * 1e-9


@dataclass
class SolveRecord:
    """One Krylov solve seen by the tracer."""

    iterations: int
    converged: bool
    failed: bool


class Tracer:
    """Records spans and Krylov solve outcomes for one traced workload pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._name = array("h")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [NO_PARENT]
        self.solves: list[SolveRecord] = []

    # -- recording ---------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        code = self._code(name)
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    def wrap_solver(self, name: str, solver):
        """A Krylov solver whose operator and preconditioner are traced too."""
        def run(apply_a, apply_minv, b, x0, *args, **kwargs):
            apply_a = self.wrap("krylov.matvec", apply_a)
            if apply_minv is not None:
                apply_minv = self.wrap("krylov.precond", apply_minv)
            try:
                outcome = solver(apply_a, apply_minv, b, x0, *args, **kwargs)
            except Exception:
                self.solves.append(SolveRecord(0, False, True))
                raise
            self.solves.append(SolveRecord(outcome.iterations,
                                           bool(outcome.converged), False))
            return outcome

        return self.wrap(name, functools.wraps(solver)(run))

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the tracing wrappers into ``tvdeblur``; undo them on exit."""
        from tvdeblur import blur, harness, pipeline, precond, tv

        patches = [
            (harness, "restore", self.wrap("pipeline.restore", harness.restore)),
            (pipeline, "pcg", self.wrap_solver("krylov.pcg", pipeline.pcg)),
            (pipeline, "pbicgstab",
             self.wrap_solver("krylov.pbicgstab", pipeline.pbicgstab)),
            (pipeline, "assemble_preconditioner",
             self.wrap("precond.assemble", pipeline.assemble_preconditioner)),
            (pipeline, "DiffusionOperator",
             self.wrap("tv.build", pipeline.DiffusionOperator)),
            (pipeline, "el_residual",
             self.wrap("tv.residual", pipeline.el_residual)),
        ]
        for module in (blur, precond):
            for fn in ("apply_1d", "tensor_apply_2d"):
                patches.append((module, fn, self.wrap(f"transforms.{fn}",
                                                      getattr(module, fn))))
        methods = {
            blur.StructuredBlurOperator: {
                "apply": "blur.ref", "apply_transpose": "blur.ref",
                "reblur_apply": "blur.ref", "apply_fast": "blur.fast",
                "apply_transpose_fast": "blur.fast",
                "eigenvalues": "blur.eigenvalues",
            },
            tv.DiffusionOperator: {
                "apply": "tv.apply", "diagonal": "tv.diagonal",
                "bands": "tv.bands", "block_banded": "tv.block_banded",
            },
            precond.FactoredPreconditioner: {
                "apply_inverse": "precond.solve", "apply": "precond.apply",
            },
        }
        for cls, table in methods.items():
            for attr, name in table.items():
                patches.append((cls, attr, self.wrap(name, cls.__dict__[attr])))

        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, _ in patches]
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self) -> np.ndarray:
        out = np.empty(len(self._start), dtype=SPAN_DTYPE)
        out["name"] = np.frombuffer(self._name, dtype=np.int16)
        out["parent"] = np.frombuffer(self._parent, dtype=np.int32)
        out["start"] = np.frombuffer(self._start, dtype=float)
        out["end"] = np.frombuffer(self._end, dtype=float)
        return out


@dataclass
class SpanTotals:
    """Per-name call counts, inclusive and self times of a span table."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def layer_self(self, layer: str) -> float:
        return sum(v for n, v in self.self_s.items()
                   if n.split(".")[0] == layer)


def totals(spans: np.ndarray, names: list[str]) -> SpanTotals:
    own = self_times(spans["parent"], spans["start"], spans["end"])
    duration = spans["end"] - spans["start"]
    code = spans["name"].astype(np.int64)
    k = len(names)
    calls = np.bincount(code, minlength=k)
    total = np.bincount(code, weights=duration, minlength=k)
    self_ = np.bincount(code, weights=own, minlength=k)
    return SpanTotals(
        calls={n: int(calls[i]) for i, n in enumerate(names)},
        total_s={n: float(total[i]) for i, n in enumerate(names)},
        self_s={n: float(self_[i]) for i, n in enumerate(names)},
    )
