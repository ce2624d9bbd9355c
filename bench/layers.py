"""Outside-in layer tracer: per-layer self time without touching ``src/``.

:class:`LayerTracer` replaces each layer's public functions, at the names
their callers look them up by (a module global bound by ``from ... import``
or a class attribute), with a timing wrapper, and puts every original back
on exit, also when the traced code raises.

Self time needs no stack: one running total holds the self time of every
wrapped call finished so far.  The total's growth during a call is exactly
the time its wrapped descendants covered, so the call's self time is its
duration minus that growth.  Time covered by no wrapped call is the
``glue`` layer (traced wall minus every self time).

Every layer is aggregated per simulated phase as (calls, self seconds).
Coarse layers -- everything but the per-word and per-cell ones in
:data:`HOT` -- also record one span (name, start, end, parent) per call,
kept in memory and written as a Chrome trace-event file on request.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# layer -> [(module, class or "", attribute names)]; a class entry patches
# the class attribute, so subclasses that inherit the method are covered
_ACCESS = ("word_access", "memget", "memput", "memget_ilist", "charge",
           "charge_compute", "count")
_NONBLOCKING = ("memget_vlist_async", "trysync", "waitsync",
                "outstanding_count", "source_fractions")
_COLLECTIVES = ("barrier_all", "broadcast", "allreduce_scalar",
                "allreduce_vector", "alltoallv")
_SUBSPACE_PHASES = ("split_subspaces", "allocate_leaves", "exchange_bodies",
                    "build_subforest_and_hook")
_RT = "repro.upc.runtime"
_BASE = "repro.core.variants.base"
_LOCAL = "repro.core.variants.local_build"
_LET = "repro.core.variants.mpi_let"
_SUB = "repro.core.subspace"

LAYER_TARGETS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "upc.access": [(_RT, "UpcRuntime", _ACCESS)],
    "upc.lock": [(_RT, "UpcRuntime", ("lock", "unlock"))],
    "upc.run_waiting": [(_RT, "UpcRuntime", ("run_waiting",))],
    "upc.nonblocking": [("repro.upc.nonblocking", "AsyncEngine",
                         _NONBLOCKING)],
    # import sites; the module itself serves call-time imports
    "upc.collectives": [
        (_SUB, "", ("allreduce_scalar", "allreduce_vector", "alltoallv")),
        (_LET, "", ("allreduce_vector", "alltoallv")),
        ("repro.upc.collectives", "", _COLLECTIVES),
    ],
    "upc.policy": [],  # every TraversalPolicy subclass, found at enter
    "octree.insert": [(m, "", ("insert",)) for m in (_BASE, _LOCAL, _LET,
                                                     _SUB)],
    "octree.cofm": [(m, "", ("compute_cofm",)) for m in (_LOCAL, _LET,
                                                         _SUB)],
    "octree.morton_build": [("repro.backends.flat", "",
                             ("build_flat_tree",))],
    "force.traversal": [(m, "", ("gravity_traversal",))
                        for m in (_BASE, _LET)],
    "force.frontier": [("repro.core.variants.async_agg", "",
                        ("frontier_force",))],
    "force.prepare": [("repro.backends.flat", "FlatBackend",
                       ("begin_step",))],
    "force.kernel": [("repro.backends.flat", "FlatBackend",
                      ("accelerations",)),
                     ("repro.backends.compiled", "CompiledFlatBackend",
                      ("accelerations",))],
    "integrate": [(_BASE, "", ("advance_indices", "startup_half_kick",
                               "compute_root"))],
    # the base module binds it at import; mpi_let imports it at call time
    "partition": [(_BASE, "", ("costzones",)),
                  ("repro.octree.costzones", "", ("costzones",))],
    "subspace": [("repro.core.variants.subspace", "", _SUBSPACE_PHASES)],
    "redistribution": [("repro.core.variants.redistribute", "",
                        ("redistribute",))],
}
_POLICY_HOOKS = ("on_test", "on_accept", "on_open", "on_leaf", "flush")

LAYERS: Tuple[str, ...] = tuple(LAYER_TARGETS)
#: per-word / per-cell layers: aggregated only, no span per call
HOT = frozenset({"upc.access", "upc.lock", "octree.insert", "upc.policy",
                 "upc.nonblocking"})
#: the time no wrapped call covers
GLUE = "glue"
#: the aggregate table used between phases
OUTSIDE = "-"


def _policy_classes():
    from repro.octree.traverse import TraversalPolicy

    seen, todo = [], [TraversalPolicy]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _resolve_targets():
    """(layer, owner, attribute) for every target present in the code.

    Targets the code no longer has are returned separately, so a later
    refactor that deletes a function shows up as a missing entry instead
    of breaking the benchmark.
    """
    found, missing = [], []
    for layer, entries in LAYER_TARGETS.items():
        for modname, clsname, names in entries:
            try:
                owner = importlib.import_module(modname)
            except ModuleNotFoundError:
                owner = None
            if clsname:
                owner = getattr(owner, clsname, None)
            prefix = ".".join(filter(None, (modname, clsname)))
            for name in names:
                if owner is not None and callable(_raw(owner, name)):
                    found.append((layer, owner, name))
                else:
                    missing.append(f"{prefix}.{name}")
    for cls in _policy_classes():
        for name in _POLICY_HOOKS:
            if name in cls.__dict__:
                found.append(("upc.policy", cls, name))
    return found, missing


def _raw(owner, name):
    """The attribute as stored (not bound), or None."""
    if isinstance(owner, type):
        return owner.__dict__.get(name)
    return getattr(owner, name, None)


class LayerTracer:
    """Context manager that times every layer while it is entered.

    Use one instance per traced pass::

        with LayerTracer() as lt:
            with lt.run("P=4"):
                run_variant(...)
        lt.summary(wall_s)
    """

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        #: self seconds of every wrapped call finished so far
        self._covered: List[float] = [0.0]
        self._tables: Dict[str, List[List[float]]] = {}
        self._cur: List[List[List[float]]] = [self._table(OUTSIDE)]
        #: span names (layer or phase) and their categories
        self._names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        #: closed spans: (name id, start, end, parent span index or -1)
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self._open: List[int] = [-1]
        #: phase -> [wall seconds, simulated seconds, count]
        self.phases: Dict[str, List[float]] = {}
        self._phase_open: Optional[Tuple[str, Tuple[int, int, float]]] = None

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        try:
            found, self.missing = _resolve_targets()
            for layer, owner, name in found:
                self._patch(owner, name, self._wrap(
                    _raw(owner, name), self._index[layer],
                    None if layer in HOT else self._name_id(layer, "layer")))
            from repro.upc.runtime import UpcRuntime

            self._patch(UpcRuntime, "begin_phase",
                        self._wrap_begin(UpcRuntime.begin_phase))
            self._patch(UpcRuntime, "end_phase",
                        self._wrap_end(UpcRuntime.end_phase))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        original = _raw(owner, name)
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    # ------------------------------------------------------------------ #
    def _table(self, phase: str) -> List[List[float]]:
        table = self._tables.get(phase)
        if table is None:
            table = self._tables[phase] = [[0, 0.0] for _ in LAYERS]
        return table

    def _name_id(self, name: str, cat: str) -> int:
        key = (name, cat)
        if key not in self._name_ids:
            self._name_ids[key] = len(self._names)
            self._names.append(key)
        return self._name_ids[key]

    def _wrap(self, fn, slot: int, span_name: Optional[int]):
        clock = time.perf_counter
        covered = self._covered
        cur = self._cur

        if span_name is None:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                mark = covered[0]
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec = cur[0][slot]
                    rec[0] += 1
                    rec[1] += dt - (covered[0] - mark)
                    covered[0] = mark + dt
            return hot

        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            mark = covered[0]
            idx = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                open_.pop()
                spans[idx] = (span_name, t0, t1, parent)
                rec = cur[0][slot]
                rec[0] += 1
                rec[1] += dt - (covered[0] - mark)
                covered[0] = mark + dt
        return spanned

    def _open_span(self) -> Tuple[int, int, float]:
        """Reserve a span slot; returns (index, parent index, start)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(idx)
        return idx, parent, time.perf_counter()

    def _close_span(self, opened: Tuple[int, int, float], name: str,
                    cat: str, end: float) -> None:
        idx, parent, start = opened
        self._open.pop()
        self.spans[idx] = (self._name_id(name, cat), start, end, parent)

    def _wrap_begin(self, fn):
        @functools.wraps(fn)
        def begin_phase(rt, name, *args, **kwargs):
            out = fn(rt, name, *args, **kwargs)
            self._phase_open = (name, self._open_span())
            self._cur[0] = self._table(name)
            return out
        return begin_phase

    def _wrap_end(self, fn):
        @functools.wraps(fn)
        def end_phase(rt, *args, **kwargs):
            end = time.perf_counter()
            dur = fn(rt, *args, **kwargs)
            if self._phase_open is not None:
                name, opened = self._phase_open
                self._close_span(opened, name, "phase", end)
                agg = self.phases.setdefault(name, [0.0, 0.0, 0])
                agg[0] += end - opened[2]
                agg[1] += dur
                agg[2] += 1
                self._phase_open = None
            self._cur[0] = self._table(OUTSIDE)
            return dur
        return end_phase

    @contextmanager
    def run(self, label: str):
        """Mark one ``run_variant`` call as a span named ``label``."""
        opened = self._open_span()
        try:
            yield
        finally:
            self._close_span(opened, label, "run", time.perf_counter())

    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds) over every phase."""
        out = {}
        for layer, i in self._index.items():
            calls = sum(int(t[i][0]) for t in self._tables.values())
            self_s = sum(t[i][1] for t in self._tables.values())
            out[layer] = (calls, self_s)
        return out

    def by_phase(self) -> Dict[str, Dict[str, List[float]]]:
        """phase -> layer -> [calls, self seconds] (nonzero entries)."""
        return {phase: {layer: [int(t[i][0]), t[i][1]]
                        for layer, i in self._index.items() if t[i][0]}
                for phase, t in self._tables.items()}

    def summary(self, wall_s: float) -> dict:
        """Per-layer self time, calls and share of ``wall_s``; ``glue`` is
        the rest.  Phases report wall and simulated seconds."""
        layers = {}
        covered = 0.0
        for layer, (calls, self_s) in self.totals().items():
            covered += self_s
            layers[layer] = {"self_s": self_s, "calls": calls,
                             "share": self_s / wall_s if wall_s else 0.0}
        glue = wall_s - covered
        layers[GLUE] = {"self_s": glue,
                        "share": glue / wall_s if wall_s else 0.0}
        phases = {name: {"wall_s": agg[0], "sim_s": agg[1],
                         "count": int(agg[2])}
                  for name, agg in self.phases.items()}
        return {"layers": layers, "phases": phases,
                "by_phase": self.by_phase(), "missing": list(self.missing),
                "spans": sum(1 for s in self.spans if s is not None)}

    def chrome_trace(self) -> dict:
        """Closed spans as Trace Event Format complete events.

        Times are whole microseconds from the first span, floored, so a
        child never ends after its parent and the strict-nesting check of
        ``repro.obs.export.validate_chrome_trace`` holds.
        """
        closed = [s for s in self.spans if s is not None]
        if not closed:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = min(s[1] for s in closed)
        events = []
        for name_id, start, end, _parent in closed:
            name, cat = self._names[name_id]
            ts = int((start - t0) * 1e6)
            events.append({"name": name, "cat": cat, "ph": "X", "ts": ts,
                           "dur": int((end - t0) * 1e6) - ts,
                           "pid": 1, "tid": 1})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"producer": "bench/layers.py"}}

    def write_chrome_trace(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return path
