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
from typing import Collection, Dict, Iterable, Optional, Sequence, Tuple

from .formula import (
    Assignment,
    Clause,
    PqeError,
    assignments_compatible,
    cofactor_clause,
    falsifying_assignment,
    resolve_assignments,
    SATISFIED,
)


class InvalidRule(PqeError):
    """A rule was applied to premises that do not support it; the message
    names the premise that failed."""


class InconsistentInputs(InvalidRule):
    """Partner records that cannot certify a blocked clause: one names the
    clause in its constraint (self-support), or they admit no application
    order (a cycle). The engine answers this one by its SAT fallback."""


CondItems = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class DSequent:
    """Immutable record (conditional, structure constraint) -> target clause id."""

    target: int
    conditional: CondItems
    constraint: frozenset
    rule: str

    @classmethod
    def make(
        cls, target: int, conditional: Assignment, constraint: Iterable[int], rule: str
    ) -> "DSequent":
        cons = frozenset(constraint)
        if target in cons:
            raise InconsistentInputs(f"target {target} inside its own constraint")
        return cls(target, tuple(sorted(conditional.items())), cons, rule)

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
        raise InvalidRule(f"{v}={b} does not satisfy clause {c.id}")
    return DSequent.make(c.id, {v: b}, (), "atomic1")


def atomic_second_kind(c: Clause, b: Clause, q: Assignment, x_vars: Iterable[int]) -> DSequent:
    """Under q, clause b implies the target c, so c is redundant while b is present.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 17).
    """
    xs = set(x_vars)
    cq = cofactor_clause(c, q)
    if cq is SATISFIED or not any(abs(l) in xs for l in cq):
        raise InvalidRule(f"clause {c.id} cofactored by q has no quantified literal")
    bq = cofactor_clause(b, q)
    if bq is SATISFIED or not set(bq) <= set(cq):
        raise InvalidRule(f"clause {b.id} does not imply clause {c.id} under q")
    return DSequent.make(c.id, q, {b.id}, "atomic2")


def falsified_clause_dsequent(target: Clause, b: Clause) -> DSequent:
    """Second-kind record for the subspace where b is falsified.

    The conditional is the shortest assignment falsifying b; every member
    formula is unsatisfiable there, so the target is trivially redundant.
    No quantified-literal check is needed in this degenerate case.
    """
    if b.id == target.id:
        raise InvalidRule(f"clause {b.id} cannot certify its own redundancy")
    return DSequent.make(target.id, falsifying_assignment(b.lits), {b.id}, "atomic2")


def atomic_third_kind(
    c: Clause,
    v: int,
    x_vars: Collection[int],
    resolvable_dseqs: Sequence[DSequent],
    satisfied: Assignment,
) -> DSequent:
    """The target is blocked at quantified variable v given records for all partners.

    A partner satisfied by one assignment comes as that assignment, in
    ``satisfied``, not as its ``atomic_first_kind`` record. Such a record
    has an empty constraint, so no record waits on it and it cannot close
    a cycle: it takes part in the clash check only.
    """
    if v not in x_vars or c.lit_on(v) is None:
        raise InvalidRule(f"{v} is not a quantified variable of clause {c.id}")
    merged: Assignment = dict(satisfied)
    for ds in resolvable_dseqs:
        for var, b in ds.conditional:
            if merged.setdefault(var, b) != b:
                raise InvalidRule(f"clashing conditionals among inputs: record for {ds.target} on {var}")
    check_consistency(resolvable_dseqs)
    constraint = frozenset().union(*(ds.constraint for ds in resolvable_dseqs))
    return DSequent.make(c.id, merged, constraint, "atomic3")


# --- combination rules -----------------------------------------------------


def join(s1: DSequent, s2: DSequent, v: int) -> DSequent:
    """Merge two records for one target whose conditionals clash exactly on v.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 17).
    """
    if s1.target != s2.target:
        raise InvalidRule(f"targets {s1.target} and {s2.target} differ")
    q = resolve_assignments(s1.cond(), s2.cond(), v)
    return DSequent.make(s1.target, q, s1.constraint | s2.constraint, "join")


def substitute(s1: DSequent, s2: DSequent) -> DSequent:
    """Replace a constraint clause of s1 by the support of a record proving it.

    The engine does not call it; ``perfbench/tracing.py`` patches it by name,
    so it goes when the tracer stops patching names (ROADMAP item 17).
    """
    if s2.target not in s1.constraint:
        raise InvalidRule(f"clause {s2.target} not in the constraint of {s1}")
    q1, q2 = s1.cond(), s2.cond()
    if not assignments_compatible(q1, q2):
        raise InvalidRule(f"conditionals of {s1} and {s2} clash")
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


def check_consistency(dseqs: Sequence[DSequent]) -> Tuple[int, ...]:
    """Is there an order applying every record while it is still applicable?

    Records must target distinct clauses. Record i goes before record j
    whenever the target of j appears in the constraint of i. Peeling takes
    in turn each record that no record left must go before; an order exists
    iff every record is taken, and the order taken is returned as indices
    into ``dseqs``. Clashing conditionals raise ``InvalidRule``, and a set
    with no order raises ``InconsistentInputs``.
    """
    n = len(dseqs)
    targets = [ds.target for ds in dseqs]
    if len(set(targets)) != n:
        raise ValueError("records must target distinct clauses")
    first: Dict[int, Tuple[int, int]] = {}  # var -> (first record assigning it, its value)
    for j, ds in enumerate(dseqs):
        for v, b in ds.conditional:
            i, val = first.setdefault(v, (j, b))
            if val != b:
                raise InvalidRule(f"clashing conditionals among inputs: records {i} and {j} on {v}")
    pos = {t: i for i, t in enumerate(targets)}
    waits = [0] * n  # per record, the records not yet taken that must go before it
    for ds in dseqs:
        for t in ds.constraint:
            if t in pos:
                waits[pos[t]] += 1
    order = [j for j in range(n) if not waits[j]]
    for i in order:  # grows as records are freed
        for t in dseqs[i].constraint:
            j = pos.get(t)
            if j is not None:
                waits[j] -= 1
                if not waits[j]:
                    order.append(j)
    if len(order) < n:
        stuck = tuple(j for j in range(n) if waits[j])
        raise InconsistentInputs(f"inputs admit no application order: records {stuck}")
    return tuple(order)


# --- learned-record store --------------------------------------------------


class DSequentStore:
    """Learned records by target, kept as derived for targets at most
    ``learn_depth_k`` levels deep (none at k = -1). Per target the records
    are keyed by conditional and constraint, in the order they arrived, so
    a record equal to a stored one is not stored again."""

    def __init__(self, learn_depth_k: int):
        self.learn_depth_k = learn_depth_k
        self.by_target: Dict[int, Dict[Tuple[CondItems, frozenset], DSequent]] = {}

    def consider(self, ds: DSequent, depth: int) -> None:
        """Store a record for a target ``depth`` levels deep, as k allows."""
        if depth <= self.learn_depth_k:
            self.by_target.setdefault(ds.target, {}).setdefault((ds.conditional, ds.constraint), ds)

    def records_for(self, target: int) -> Collection[DSequent]:
        return self.by_target.get(target, {}).values()
