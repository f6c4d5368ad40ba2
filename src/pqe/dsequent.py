"""D-sequents: records of conditional clause redundancy, and their calculus.

A D-sequent ``(q, H) -> C`` asserts that clause C, cofactored by the partial
assignment q, is redundant in the quantified cofactor of every live clause
subset that still contains H and C. The structure constraint H pins the
clauses whose presence the redundancy proof relied on; it is what makes
records safe to reuse after other clauses have been proved redundant and
removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .formula import (
    Assignment,
    Clause,
    ClauseDb,
    NotResolvable,
    PqeError,
    assignments_compatible,
    assignments_resolvable,
    cofactor_clause,
    falsifying_assignment,
    resolve_assignments,
    SATISFIED,
)


class NotSatisfying(PqeError):
    pass


class NoImplication(PqeError):
    pass


class TargetNotXClause(PqeError):
    pass


class InconsistentInputs(PqeError):
    pass


class IncompatibleConditionals(PqeError):
    pass


class TargetMismatch(PqeError):
    pass


class NotInConstraint(PqeError):
    pass


CondItems = Tuple[Tuple[int, int], ...]


def _freeze_cond(q: Union[Assignment, CondItems]) -> CondItems:
    items = q.items() if isinstance(q, dict) else q
    return tuple(sorted(items))


@dataclass(frozen=True)
class DSequent:
    """Immutable record (conditional, structure constraint) -> target clause id."""

    target: int
    conditional: CondItems
    constraint: frozenset
    rule: str = "derived"

    @classmethod
    def make(
        cls,
        target: int,
        conditional: Union[Assignment, CondItems],
        constraint: Iterable[int],
        rule: str = "derived",
    ) -> "DSequent":
        cons = frozenset(constraint)
        if target in cons:
            raise InconsistentInputs(f"target {target} inside its own constraint")
        return cls(target, _freeze_cond(conditional), cons, rule)

    def cond(self) -> Assignment:
        return dict(self.conditional)

    def __repr__(self) -> str:
        q = ",".join(f"{v}={b}" for v, b in self.conditional)
        h = ",".join(str(c) for c in sorted(self.constraint))
        return f"DSequent(({q}),{{{h}}})->{self.target}[{self.rule}]"


def trace_line(ds: DSequent) -> str:
    """Text form: DS <target> Q <lit>* 0 H <clause-id>* 0 RULE <tag>."""
    qs = " ".join(str(v if b else -v) for v, b in ds.conditional)
    hs = " ".join(str(c) for c in sorted(ds.constraint))
    qpart = f"Q {qs} 0" if qs else "Q 0"
    hpart = f"H {hs} 0" if hs else "H 0"
    return f"DS {ds.target} {qpart} {hpart} RULE {ds.rule}"


# --- atomic constructors ---------------------------------------------------


def atomic_first_kind(c: Clause, v: int, b: int) -> DSequent:
    """The target is satisfied by v=b; no other clause is involved."""
    lit = c.lit_on(v)
    if lit is None or (b == 1) != (lit > 0):
        raise NotSatisfying(f"{v}={b} does not satisfy clause {c.id}")
    return DSequent.make(c.id, {v: b}, (), "atomic1")


def atomic_second_kind(c: Clause, b: Clause, q: Assignment, x_vars: Iterable[int]) -> DSequent:
    """Under q, clause b implies the target c, so c is redundant while b is present.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 4).
    """
    xs = set(x_vars)
    cq = cofactor_clause(c, q)
    if cq is SATISFIED or not any(abs(l) in xs for l in cq):
        raise TargetNotXClause(f"clause {c.id} cofactored by q has no quantified literal")
    bq = cofactor_clause(b, q)
    if bq is SATISFIED or not set(bq) <= set(cq):
        raise NoImplication(f"clause {b.id} does not imply clause {c.id} under q")
    return DSequent.make(c.id, q, {b.id}, "atomic2")


def falsified_clause_dsequent(target: Clause, b: Clause) -> DSequent:
    """Second-kind record for the subspace where b is falsified.

    The conditional is the shortest assignment falsifying b; every member
    formula is unsatisfiable there, so the target is trivially redundant.
    No quantified-literal check is needed in this degenerate case.
    """
    if b.id == target.id:
        raise NotInConstraint("a clause cannot certify its own redundancy")
    return DSequent.make(target.id, falsifying_assignment(b.lits), {b.id}, "atomic2")


def atomic_third_kind(
    c: Clause, v: int, x_vars: Collection[int], resolvable_dseqs: Sequence[DSequent]
) -> DSequent:
    """The target is blocked at quantified variable v given records for all partners."""
    if v not in x_vars or c.lit_on(v) is None:
        raise TargetNotXClause(f"{v} is not a quantified variable of clause {c.id}")
    merged: Assignment = {}
    for ds in resolvable_dseqs:
        q = ds.cond()
        if not assignments_compatible(merged, q):
            raise IncompatibleConditionals("clashing conditionals among inputs")
        merged.update(q)
    res = check_consistency(resolvable_dseqs)
    if isinstance(res, Inconsistent):
        raise InconsistentInputs(f"inputs admit no application order: {res}")
    constraint = frozenset().union(*(ds.constraint for ds in resolvable_dseqs)) if resolvable_dseqs else frozenset()
    if c.id in constraint:
        raise InconsistentInputs(f"target {c.id} occurs in a partner constraint")
    return DSequent.make(c.id, merged, constraint, "atomic3")


# --- combination rules -----------------------------------------------------


def join(s1: DSequent, s2: DSequent, v: int) -> DSequent:
    """Merge two records for one target whose conditionals clash exactly on v.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 4).
    """
    if s1.target != s2.target:
        raise TargetMismatch(f"targets {s1.target} and {s2.target} differ")
    q1, q2 = s1.cond(), s2.cond()
    if assignments_resolvable(q1, q2) != v:
        raise NotResolvable(f"conditionals do not clash exactly on {v}")
    return DSequent.make(
        s1.target, resolve_assignments(q1, q2, v), s1.constraint | s2.constraint, "join"
    )


def substitute(s1: DSequent, s2: DSequent) -> DSequent:
    """Replace a constraint clause of s1 by the support of a record proving it.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 4).
    """
    if s2.target not in s1.constraint:
        raise NotInConstraint(f"clause {s2.target} not in the constraint of {s1}")
    q1, q2 = s1.cond(), s2.cond()
    if not assignments_compatible(q1, q2):
        raise IncompatibleConditionals("conditionals clash")
    q1.update(q2)
    return DSequent.make(
        s1.target, q1, (s1.constraint - {s2.target}) | s2.constraint, "substitute"
    )


def unit_deactivating_assignment(s: DSequent, r: Assignment) -> Optional[Tuple[int, int]]:
    """If exactly one conditional assignment is missing from r, its flip."""
    missing = None
    for var, val in s.conditional:
        got = r.get(var)
        if got is None:
            if missing is not None:
                return None
            missing = (var, 1 - val)
        elif got != val:
            return None
    return missing


# --- set consistency -------------------------------------------------------


@dataclass(frozen=True)
class Consistent:
    order: Tuple[int, ...]  # indices into the input list, application order


@dataclass(frozen=True)
class Inconsistent:
    cycle: Optional[Tuple[int, ...]] = None  # indices forming a constraint cycle
    incompatible: Optional[Tuple[int, int]] = None  # indices with clashing conditionals


def check_consistency(dseqs: Sequence[DSequent]) -> Union[Consistent, Inconsistent]:
    """Is there an order applying every record while it is still applicable?

    Records must target distinct clauses. Edge i -> j whenever the target of
    j appears in the constraint of i (i must be applied first); an order
    exists iff this digraph is acyclic, and a topological order is returned.
    """
    n = len(dseqs)
    targets = [ds.target for ds in dseqs]
    if len(set(targets)) != n:
        raise ValueError("records must target distinct clauses")
    conds = [ds.cond() for ds in dseqs]
    for i in range(n):
        for j in range(i + 1, n):
            if not assignments_compatible(conds[i], conds[j]):
                return Inconsistent(incompatible=(i, j))
    pos = {t: i for i, t in enumerate(targets)}
    succs = [[pos[t] for t in sorted(ds.constraint) if t in pos] for ds in dseqs]
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    order: List[int] = []
    for root in range(n):
        if state[root]:
            continue
        stack = [(root, iter(succs[root]))]
        state[root] = 1
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    k = path.index(nxt)
                    return Inconsistent(cycle=tuple(path[k:]))
                if state[nxt] == 0:
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                path.pop()
                order.append(node)
                stack.pop()
                if stack:
                    node, _ = stack[-1]
        # post-order gives successors first; reverse at the end
    order.reverse()
    return Consistent(tuple(order))


# --- learned-record store --------------------------------------------------


class DSequentStore:
    """Learned records by target, kept as derived for targets at most
    ``learn_depth_k`` levels deep (none at k = -1). Duplicates share the
    target, the conditional and, for k >= 1, the constraint's clauses with
    a quantified literal: only those ever leave the formula."""

    def __init__(self, learn_depth_k: int):
        self.learn_depth_k = learn_depth_k
        self.by_target: Dict[int, List[DSequent]] = {}
        self._seen: Set[Tuple] = set()

    def consider(self, ds: DSequent, depth: int, x_vars: Collection[int], db: ClauseDb) -> bool:
        """Store per k; True iff an equivalent record is now retained."""
        k = self.learn_depth_k
        if k < 0 or depth > k:
            return False
        support: frozenset = frozenset()
        if k > 0:
            support = frozenset(
                cid for cid in ds.constraint if any(abs(l) in x_vars for l in db.clause(cid).lits)
            )
        key = (ds.target, ds.conditional, support)
        if key in self._seen:
            return True
        self._seen.add(key)
        self.by_target.setdefault(ds.target, []).append(ds)
        return True

    def records_for(self, target: int) -> Sequence[DSequent]:
        return self.by_target.get(target, ())
