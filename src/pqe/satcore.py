"""A small CDCL SAT solver with assumption literals and core extraction.

First-UIP learning over two watched literals, static decision order, no
restarts. Just enough solver for the duplicate-recovery check and the
SAT-based baseline methods; under assumptions an unsatisfiable answer
carries a subset of the assumptions whose conjunction with the clauses
is unsatisfiable.

Assumptions are placed as the first decisions, one level each. Learned
clauses are resolvents of input clauses only, so whenever the search finds
an assumption refuted, resolving the refutation back to assumption-level
decisions yields the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from .formula import PqeError, lit_truth


class ResourceLimit(PqeError):
    """A configured resource budget was exhausted."""


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    model: Optional[Dict[int, int]] = None  # var -> 0/1, total over the cnf vars
    core: Optional[FrozenSet[int]] = None  # subset of the assumption literals


class _Solver:
    def __init__(self, clauses: Sequence[Sequence[int]]):
        self.clauses: List[List[int]] = []
        self.assign: Dict[int, int] = {}
        self.reason: Dict[int, Optional[int]] = {}
        self.level: Dict[int, int] = {}
        self.trail: List[int] = []
        self.level_start: List[int] = [0]
        self.watches: Dict[int, List[int]] = {}
        self.empty_clause = False
        self.units: List[int] = []
        seen = set()
        for c in clauses:
            distinct = set(c)
            cvars = {abs(l) for l in distinct}
            seen |= cvars
            if len(cvars) != len(distinct):
                continue  # tautology constrains nothing
            if not distinct:
                self.empty_clause = True
            else:
                self._add_clause(sorted(distinct, key=abs))
        self.vars = sorted(seen)

    def _add_clause(self, lits: List[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        if len(lits) == 1:
            self.units.append(idx)
        else:
            for l in lits[:2]:
                self.watches.setdefault(l, []).append(idx)
        return idx

    def _assign(self, lit: int, reason: Optional[int]) -> None:
        self.assign[abs(lit)] = 1 if lit > 0 else 0
        self.reason[abs(lit)] = reason
        self.level[abs(lit)] = len(self.level_start) - 1
        self.trail.append(lit)

    def _propagate(self, head: int) -> Optional[int]:
        """Watch-based unit propagation; returns a falsified clause index.

        A literal l is true when ``assign.get(abs(l)) == (l > 0)``: values
        are 0/1, and an unassigned variable compares unequal to both.
        """
        trail, watches, clauses, assign = self.trail, self.watches, self.clauses, self.assign
        while head < len(trail):
            lit = trail[head]
            head += 1
            watching = watches.get(-lit)
            if not watching:
                continue
            i = 0
            while i < len(watching):
                ci = watching[i]
                lits = clauses[ci]
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_val = assign.get(abs(first))
                if first_val == (first > 0):
                    i += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    val = assign.get(abs(other))
                    if val is None or val == (other > 0):
                        lits[1], lits[k] = other, lits[1]
                        watching[i] = watching[-1]
                        watching.pop()
                        watches.setdefault(other, []).append(ci)
                        break
                else:
                    if first_val is not None:
                        return ci  # every literal is false
                    self._assign(first, ci)
                    i += 1
        return None

    def _analyze(self, conflict: int):
        """First-UIP resolution; returns (asserting lit, other lits, back level)."""
        cur = len(self.level_start) - 1
        others: List[int] = []
        seen = set()
        counter = 0
        lits = list(self.clauses[conflict])
        idx = len(self.trail) - 1
        while True:
            for l in lits:
                v = abs(l)
                if v in seen or self.level[v] == 0:
                    continue
                seen.add(v)
                if self.level[v] == cur:
                    counter += 1
                else:
                    others.append(l)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            uip = self.trail[idx]
            seen.discard(abs(uip))
            idx -= 1
            counter -= 1
            if counter == 0:
                back = max((self.level[abs(l)] for l in others), default=0)
                return -uip, others, back
            lits = [l for l in self.clauses[self.reason[abs(uip)]] if abs(l) != abs(uip)]

    def _backtrack(self, level: int) -> None:
        cut = self.level_start[level + 1]
        for lit in self.trail[cut:]:
            v = abs(lit)
            del self.assign[v], self.reason[v], self.level[v]
        del self.trail[cut:]
        del self.level_start[level + 1 :]

    def _final_core(self, start_lits, assume_set) -> FrozenSet[int]:
        """Resolve falsified literals back to the assumption decisions they used."""
        core = set()
        seen = set()
        stack = list(start_lits)
        while stack:
            l = stack.pop()
            v = abs(l)
            if v in seen:
                continue
            seen.add(v)
            r = self.reason.get(v)
            true_lit = l if lit_truth(l, self.assign) == 1 else -l
            if r is not None:
                stack.extend(x for x in self.clauses[r] if abs(x) != v)
            elif true_lit in assume_set:
                core.add(true_lit)
        return frozenset(core)

    def solve(self, assumptions: Sequence[int]) -> SatResult:
        if self.empty_clause:
            return SatResult(False, core=frozenset())
        for u in self.units:
            lit = self.clauses[u][0]
            if lit_truth(lit, self.assign) == 0:
                return SatResult(False, core=frozenset())
            if lit_truth(lit, self.assign) is None:
                self._assign(lit, u)
        if self._propagate(0) is not None:
            return SatResult(False, core=frozenset())
        assume_set = set(assumptions)
        avars = {abs(a) for a in assumptions}
        order = [v for v in self.vars if v not in avars]
        while True:
            decision = None
            for a in assumptions:
                val = lit_truth(a, self.assign)
                if val == 0:
                    core = self._final_core([a], assume_set) | {a}
                    return SatResult(False, core=frozenset(core))
                if val is None:
                    decision = a
                    break
            if decision is None:
                for v in order:
                    if v not in self.assign:
                        decision = -v  # default polarity 0
                        break
            if decision is None:
                return SatResult(True, model=dict(self.assign))
            self.level_start.append(len(self.trail))
            self._assign(decision, None)
            head = len(self.trail) - 1
            while True:
                ci = self._propagate(head)
                if ci is None:
                    break
                if all(self.level[abs(l)] == 0 for l in self.clauses[ci]):
                    return SatResult(False, core=frozenset())
                asserting, others, back = self._analyze(ci)
                self._backtrack(back)
                idx = self._add_clause([asserting] + sorted(others, key=lambda l: -self.level[abs(l)]))
                self._assign(asserting, idx)
                head = len(self.trail) - 1


def sat_solve(clauses: Sequence[Sequence[int]], assumptions: Sequence[int] = ()) -> SatResult:
    """Decide the CNF under the given assumption literals.

    A satisfiable result carries a total model over the clause variables
    (assumption variables included); an unsatisfiable one carries a core:
    a subset of the assumptions inconsistent with the clauses.
    """
    amap = {}
    for a in assumptions:
        if amap.get(abs(a), a) != a:
            return SatResult(False, core=frozenset({a, -a}))
        amap[abs(a)] = a
    # the solver answers SAT only once every clause and assumption variable is assigned
    return _Solver(clauses).solve([amap[v] for v in sorted(amap)])
