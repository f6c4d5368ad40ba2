"""Layer tracing installed from outside the program.

``Tracer.install`` replaces functions at the names their callers look them
up by (for example ``pqe.solver.clause_falsified``, the engine's imported
name, or a method on ``ClauseDb``) and ``uninstall`` puts the originals
back. The program's source is not touched.

Two kinds of site:

- a *span* site records ``[name, start, end, parent, instance]`` per call,
  with ``parent`` the index of the enclosing span (-1 at top level);
- a *leaf* site is called too often to keep a span per call (the clause
  checks run millions of times), so each call adds to a ``[calls, seconds]``
  total kept under its enclosing span. A leaf called from inside another
  leaf counts the call but not the time, which its caller already holds.

A span's self time is its duration minus its child spans and its leaf
totals. Everything stays in memory until ``take`` hands it over.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pqe.dsequent
import pqe.formula
import pqe.harness
import pqe.io
import pqe.solver

from . import reference, workloads

SPAN = "span"
LEAF = "leaf"
_MARK = "__perfbench_site__"


@dataclass(frozen=True)
class Site:
    owner: object  # module or class whose attribute is replaced
    attr: str
    name: str  # "<layer>.<function>"; several sites may share one name
    kind: str


def _sites(kind, owner, name_prefix, *attrs) -> Tuple[Site, ...]:
    return tuple(Site(owner, a, f"{name_prefix}.{a}", kind) for a in attrs)


SITES: Tuple[Site, ...] = (
    *_sites(SPAN, pqe.io, "io", "parse_pqe", "write_solution"),
    *_sites(SPAN, pqe.solver, "solver", "solve_pqe"),
    Site(pqe.solver, "sat_solve", "satcore.engine", SPAN),
    Site(pqe.harness, "sat_solve", "satcore.baseline", SPAN),
    Site(workloads, "sat_solve", "satcore.baseline", SPAN),
    *_sites(SPAN, pqe.harness, "harness", "method1_blocking", "method2_corelift"),
    *_sites(SPAN, reference, "oracle", "producing_table", "blocked_table", "cnf_satisfiable"),
    *_sites(LEAF, pqe.solver, "formula", "clause_falsified", "unit_literal", "clause_satisfied", "is_blocked"),
    *_sites(LEAF, pqe.formula.ClauseDb, "formula", "active_ids"),
    *_sites(
        LEAF,
        pqe.dsequent,
        "dsequent",
        "join",
        "substitute",
        "atomic_first_kind",
        "atomic_second_kind",
        "atomic_third_kind",
        "falsified_clause_dsequent",
        "unit_deactivating_assignment",
    ),
    *_sites(LEAF, pqe.dsequent.DSequentStore, "dsequent", "consider", "records_for"),
    *_sites(LEAF, pqe.harness, "harness", "gen_circuit", "simulate", "circuit_to_pqe", "sat_reduction_instance"),
)


def installed_count() -> int:
    """How many sites currently hold a tracing wrapper."""
    return sum(hasattr(getattr(s.owner, s.attr), _MARK) for s in SITES)


@dataclass
class Trace:
    spans: List[list]  # [name, start, end, parent, instance]
    leaves: Dict[Tuple[int, str], List[float]]  # (span, name) -> [calls, seconds]

    def leaf_totals(self, under: str) -> Dict[str, List[float]]:
        """Leaf calls and seconds by name, over spans named ``under``."""
        out: Dict[str, List[float]] = {}
        for (span, name), (calls, secs) in self.leaves.items():
            if span >= 0 and self.spans[span][0] == under:
                tot = out.setdefault(name, [0, 0.0])
                tot[0] += calls
                tot[1] += secs
        return out

    def span_totals(self, name: str) -> Tuple[int, float]:
        """Number of spans named ``name`` and their summed duration."""
        durations = [s[2] - s[1] for s in self.spans if s[0] == name]
        return len(durations), sum(durations)

    def layer_seconds(self, layer: str) -> float:
        """Time in the layer's outermost spans and leaves."""
        prefix = layer + "."
        total = sum(
            s[2] - s[1]
            for s in self.spans
            if s[0].startswith(prefix) and not (s[3] >= 0 and self.spans[s[3]][0].startswith(prefix))
        )
        total += sum(v[1] for (_, name), v in self.leaves.items() if name.startswith(prefix))
        return total

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans named ``name``."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for (span, _), (_, secs) in self.leaves.items():
            if span >= 0:
                covered[span] += secs
        return sum(s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == name)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[span, name, calls, secs] for (span, name), (calls, secs) in self.leaves.items()],
        }


class Tracer:
    def __init__(self) -> None:
        self.instance = None  # id stamped on spans opened from now on
        self._spans: List[list] = []
        self._leaves: Dict[Tuple[int, str], List[float]] = {}
        self._open = [-1]
        self._in_leaf = False
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved or installed_count():
            raise RuntimeError("tracing wrappers are already installed")
        for site in SITES:
            original = site.owner.__dict__[site.attr]
            wrap = self._span if site.kind == SPAN else self._leaf
            self._saved.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, wrap(site.name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> Trace:
        """Everything recorded since the last take; the tracer starts empty."""
        if len(self._open) != 1:
            raise RuntimeError("take() inside an open span")
        out = Trace(list(self._spans), dict(self._leaves))
        self._spans.clear()
        self._leaves.clear()
        return out

    def _span(self, name, fn):
        spans, open_, clock, tracer = self._spans, self._open, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1], tracer.instance]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    def _leaf(self, name, fn):
        leaves, open_, clock, tracer = self._leaves, self._open, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer._in_leaf
            tracer._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = 0.0 if nested else clock() - t0
                tracer._in_leaf = nested
                tot = leaves.get((open_[-1], name))
                if tot is None:
                    leaves[(open_[-1], name)] = [1, dt]
                else:
                    tot[0] += 1
                    tot[1] += dt

        setattr(wrapper, _MARK, name)
        return wrapper
