"""Clauses, clause stores and partial assignments for quantified CNF.

Variables are positive ints, literals are signed ints (DIMACS style).
A partial assignment is a plain ``dict`` mapping var -> 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


Assignment = Dict[int, int]
Lits = Tuple[int, ...]


class PqeError(Exception):
    """Base class for errors raised by this package."""


class TautologyError(PqeError):
    """A clause contains both polarities of some variable."""


class NotResolvable(PqeError):
    """Two clauses (or assignments) do not clash on exactly one variable."""


class _Satisfied:
    def __repr__(self):
        return "SATISFIED"


#: Returned by cofactor_clause when the assignment satisfies the clause.
SATISFIED = _Satisfied()


def canonical_lits(lits: Iterable[int]) -> Lits:
    """Sort by variable, drop duplicate literals, reject tautologies and 0."""
    lits = tuple(lits)
    distinct = set(lits)
    if len({abs(l) for l in distinct}) != len(distinct):
        seen: Set[int] = set()
        for lit in lits:
            if lit == 0:
                break
            if -lit in seen:
                raise TautologyError(f"clause contains both polarities of {abs(lit)}")
            seen.add(lit)
    if 0 in distinct:
        raise ValueError("literal 0 is not allowed")
    return tuple(sorted(distinct, key=abs))


def lit_truth(lit: int, asg: Assignment) -> Optional[int]:
    """1 if satisfied, 0 if falsified, None if the variable is unassigned."""
    val = asg.get(abs(lit))
    if val is None:
        return None
    return 1 if (val == 1) == (lit > 0) else 0


def satisfying_value(lit: int) -> int:
    return 1 if lit > 0 else 0


def cofactor_clause(c: "Clause | Sequence[int]", q: Assignment):
    """Clause under q: SATISFIED, or the clause with falsified literals removed."""
    lits = c.lits if isinstance(c, Clause) else c
    out = []
    for l in lits:
        t = lit_truth(l, q)
        if t == 1:
            return SATISFIED
        if t is None:
            out.append(l)
    return tuple(out)


def clause_satisfied(lits: Sequence[int], asg: Assignment) -> bool:
    return cofactor_clause(lits, asg) is SATISFIED


def clause_falsified(lits: Sequence[int], asg: Assignment) -> bool:
    return cofactor_clause(lits, asg) == ()


def unit_literal(lits: Sequence[int], asg: Assignment) -> Optional[int]:
    """The single unassigned literal if all others are falsified, else None."""
    cq = cofactor_clause(lits, asg)
    return cq[0] if cq is not SATISFIED and len(cq) == 1 else None


def falsifying_assignment(lits: Sequence[int]) -> Assignment:
    """The shortest assignment falsifying the clause."""
    return {abs(l): 0 if l > 0 else 1 for l in lits}


def resolvable_on(lits1: Sequence[int], lits2: Sequence[int], v: int) -> bool:
    """The two clauses clash on v and on no other variable."""
    other = set(lits2)
    return [abs(l) for l in lits1 if -l in other] == [v]


def assignments_compatible(q1: Assignment, q2: Assignment) -> bool:
    for var, val in q1.items():
        if q2.get(var, val) != val:
            return False
    return True


def assignments_resolvable(q1: Assignment, q2: Assignment) -> Optional[int]:
    """The unique variable assigned opposite values, if exactly one exists."""
    clash = [var for var, val in q1.items() if q2.get(var, val) != val]
    return clash[0] if len(clash) == 1 else None


def resolve_assignments(q1: Assignment, q2: Assignment, v: int) -> Assignment:
    if assignments_resolvable(q1, q2) != v:
        raise NotResolvable(f"assignments do not clash exactly on {v}")
    out = {var: val for var, val in q1.items() if var != v}
    out.update((var, val) for var, val in q2.items() if var != v)
    return out


@dataclass(frozen=True, slots=True)
class Clause:
    """Canonicalized clause with a stable id and its block."""

    id: int
    lits: Lits
    f1_side: bool  # in F1, or derived with an F1 clause among its premises

    def lit_on(self, v: int) -> Optional[int]:
        for l in self.lits:
            if abs(l) == v:
                return l
        return None


class ClauseDb:
    """Id-addressed clause store with liveness flags; one clause per literal set.

    Clauses are never physically dropped: D-sequent structure constraints
    keep referring to ids of clauses proved redundant, and those clauses
    may return to the formula when a target level is popped. Only a clause
    taken out by ``remove``, a proved primary, never returns; it leaves the
    occurrence lists and the partner index.

    The store also keeps the search's propagation state. ``values`` is the
    current partial assignment, changed only through ``assign``,
    ``unassign`` and ``reset``. Per clause on the occurrence lists, live or
    not, the store counts the literals that assignment makes true and the
    literals it leaves non-false, and the sum of those non-false literals,
    which for a unit clause is its free literal. From the counts it keeps
    two sets of *active* ids:
    ``falsified`` (every literal false) and ``units`` (no literal true,
    exactly one unassigned). An assignment or unassignment touches only the
    two occurrence lists of its variable; ``add``, ``deactivate``,
    ``reactivate`` and ``remove`` move a clause into or out of the sets,
    and ``reset`` goes back to the empty assignment in one step. The sets
    hold exactly the active clauses for which ``clause_falsified`` and
    ``unit_literal`` would answer, so the lowest id in a set is the one a
    scan of ``active_ids()`` in id order would find first.

    ``partners`` indexes, per (clause id, literal), the ids of the clauses
    resolvable with that clause on the literal's variable. A list is built
    on its first read and then kept exact, as the counts are: ``add``
    appends a new clause to the built lists it belongs in, and ``remove``
    takes a removed one out of them. A clause's negated literals are kept
    from its first list on, so a wide clause pays for them once, not once
    per literal.
    ``open_partner`` reads a list with the counts: the lowest live partner
    the assignment leaves unsatisfied, or None when the clause is blocked.
    """

    def __init__(self) -> None:
        self._clauses: List[Optional[Clause]] = [None]  # by id (ids start at 1)
        self._active: List[bool] = [False]  # by id
        self._removed: Set[int] = set()  # ids that never return
        self._ids: Dict[Lits, int] = {}  # canonical lits -> id, live or not
        self._occ: Dict[int, List[int]] = {}  # literal -> ids containing it that can return, ascending
        self.values: Assignment = {}
        self._true: List[int] = [0]  # by id (ids start at 1): literals true under values
        self._open: List[int] = [0]  # by id: literals not false under values
        self._open_sum: List[int] = [0]  # by id: sum of the literals not false
        self._size: List[int] = [0]  # by id: _open under the empty assignment
        self._lit_sum: List[int] = [0]  # by id: _open_sum under the empty assignment
        self._short: List[int] = []  # ids of the clauses of at most one literal
        self.falsified: Set[int] = set()
        self.units: Set[int] = set()
        self._partner_ids: Dict[Tuple[int, int], List[int]] = {}  # (id, literal) -> partners, built ones
        self._negated: Dict[int, Set[int]] = {}  # id -> its negated literals, from its first partner list on

    def add(self, key: Lits, f1_side: bool) -> Clause:
        """Insert a clause given in ``canonical_lits`` form; a duplicate
        returns the stored one, live or not."""
        hit = self._ids.get(key)
        if hit is not None:
            return self._clauses[hit]
        cid = len(self._clauses)
        clause = Clause(cid, key, f1_side)
        self._clauses.append(clause)
        self._active.append(True)
        self._ids[key] = cid
        true = open_ = open_sum = 0
        values, occ = self.values, self._occ
        for l in key:
            occ.setdefault(l, []).append(cid)
            val = values.get(abs(l))
            if val is None:
                open_ += 1
                open_sum += l
            elif val == (l > 0):
                open_ += 1
                open_sum += l
                true += 1
        self._true.append(true)
        self._open.append(open_)
        self._open_sum.append(open_sum)
        self._size.append(len(key))
        self._lit_sum.append(sum(key))
        if len(key) <= 1:
            self._short.append(cid)
        # nothing is built while the formula loads, and without this test the
        # lookups alone slow set-up; the new id is the largest, so lists stay ascending
        if self._partner_ids:
            built, negated = self._partner_ids, self._negated
            for l in key:
                for other in occ.get(-l, ()):
                    ids = built.get((other, -l))
                    if ids is not None and len(negated[other].intersection(key)) == 1:
                        ids.append(cid)
        self._track(cid)
        return clause

    def _track(self, cid: int) -> None:
        """Put an active clause into the set its counts call for."""
        if not self._true[cid]:
            if self._open[cid] == 0:
                self.falsified.add(cid)
            elif self._open[cid] == 1:
                self.units.add(cid)

    def clause(self, cid: int) -> Clause:
        return self._clauses[cid]

    def is_active(self, cid: int) -> bool:
        return self._active[cid]

    def find_any(self, key: Lits) -> Optional[Clause]:
        """The stored clause, live or soft-deleted, with these literals in
        ``canonical_lits`` form."""
        cid = self._ids.get(key)
        return self._clauses[cid] if cid is not None else None

    def deactivate(self, cid: int) -> None:
        if not self._active[cid]:
            raise ValueError(f"clause {cid} already inactive")
        self._active[cid] = False
        self.falsified.discard(cid)
        self.units.discard(cid)

    def reactivate(self, cid: int) -> None:
        if self._active[cid]:
            raise ValueError(f"clause {cid} already active")
        if cid in self._removed:
            raise ValueError(f"clause {cid} was removed")
        self._active[cid] = True
        self._track(cid)

    def remove(self, cid: int) -> None:
        """Deactivate a clause for good: it leaves the occurrence lists, so
        its counts are no longer kept, and the partner index."""
        self.deactivate(cid)
        self._removed.add(cid)
        lits, occ, built = self._clauses[cid].lits, self._occ, self._partner_ids
        for l in lits:
            occ[l].remove(cid)
            built.pop((cid, l), None)
            for other in occ.get(-l, ()):
                if cid in built.get((other, -l), ()):
                    built[other, -l].remove(cid)
        self._negated.pop(cid, None)

    def active_ids(self) -> Tuple[int, ...]:
        return tuple(cid for cid, on in enumerate(self._active) if on)

    def all_ids(self) -> Tuple[int, ...]:
        return tuple(range(1, len(self._clauses)))

    def occurrences(self, lit: int) -> Sequence[int]:
        """Ids of the clauses (live or not) that can return and contain this
        literal, ascending. The store's own list: read it, do not change it."""
        return self._occ.get(lit, ())

    def partners(self, cid: int, lit: int) -> Sequence[int]:
        """Ids of the clauses (live or not) that can return and resolve with
        clause ``cid``, which can return too, on the variable of its literal
        ``lit``, ascending. The store's own list: read it, do not change it."""
        key = (cid, lit)
        ids = self._partner_ids.get(key)
        if ids is None:
            # a partner holds -lit; it resolves with the clause iff that is
            # its only clash
            clauses = self._clauses
            neg = self._negated.get(cid)
            if neg is None:
                neg = self._negated[cid] = {-l for l in clauses[cid].lits}
            occ = self._occ.get(-lit, ())
            ids = self._partner_ids[key] = [o for o in occ if len(neg.intersection(clauses[o].lits)) == 1]
        return ids

    def open_partner(self, cid: int, lit: int) -> Optional[int]:
        """The lowest id of a live clause the assignment leaves unsatisfied
        that is resolvable with clause ``cid`` on the variable of its
        literal ``lit``, or None when the clause is blocked there: what
        ``is_blocked`` finds by a scan, read from the index and the counts."""
        active, true = self._active, self._true
        for other in self.partners(cid, lit):
            if active[other] and not true[other]:
                return other
        return None

    def audit_partners(self) -> None:
        """Every built partner list equals a ``resolvable_on`` scan of the
        occurrence list it reads (a ``check_invariants`` audit)."""
        for (cid, lit), ids in self._partner_ids.items():
            lits, occ = self._clauses[cid].lits, self._occ.get(-lit, ())
            want = [o for o in occ if resolvable_on(lits, self._clauses[o].lits, abs(lit))]
            assert ids == want, f"partner list of clause {cid} on {lit}: {ids} != {want}"

    def audit_counts(self) -> None:
        """The counts of every clause that can return equal a scan under
        ``values``, the occurrence lists hold exactly those clauses, and no
        removed clause is in ``units`` or ``falsified`` (a
        ``check_invariants`` audit)."""
        values, removed = self.values, self._removed
        want: Dict[int, List[int]] = {}
        for cid in range(1, len(self._clauses)):
            if cid in removed:
                assert cid not in self.units and cid not in self.falsified, f"removed clause {cid} is tracked"
                continue
            lits = self._clauses[cid].lits
            open_ = [l for l in lits if lit_truth(l, values) != 0]
            true = sum(lit_truth(l, values) == 1 for l in lits)
            counts = (self._true[cid], self._open[cid], self._open_sum[cid])
            assert counts == (true, len(open_), sum(open_)), f"counts of clause {cid}: {counts}"
            for l in lits:
                want.setdefault(l, []).append(cid)
        for lit, ids in self._occ.items():
            assert ids == want.get(lit, []), f"occurrence list of {lit}: {ids} != {want.get(lit, [])}"

    # -- propagation state ---------------------------------------------

    def assign(self, var: int, val: int) -> None:
        """Set an unassigned variable and update the counts it touches."""
        self.values[var] = val
        lit = var if val else -var
        true, open_, active, units = self._true, self._open, self._active, self.units
        open_sum, occ = self._open_sum, self._occ
        for cid in occ.get(lit, ()):
            true[cid] += 1
            if true[cid] == 1 and open_[cid] == 1:
                units.discard(cid)
        for cid in occ.get(-lit, ()):
            open_sum[cid] += lit
            n = open_[cid] - 1
            open_[cid] = n
            if n <= 1 and not true[cid] and active[cid]:
                if n:
                    units.add(cid)
                else:
                    units.discard(cid)
                    self.falsified.add(cid)

    def unassign(self, var: int) -> None:
        """Undo ``assign`` for one variable."""
        lit = var if self.values.pop(var) else -var
        true, open_, active, units = self._true, self._open, self._active, self.units
        open_sum, occ = self._open_sum, self._occ
        for cid in occ.get(lit, ()):
            true[cid] -= 1
            if not true[cid] and open_[cid] == 1 and active[cid]:
                units.add(cid)
        for cid in occ.get(-lit, ()):
            open_sum[cid] -= lit
            n = open_[cid] + 1
            open_[cid] = n
            if n <= 2 and not true[cid] and active[cid]:
                if n == 1:
                    self.falsified.discard(cid)
                    units.add(cid)
                else:
                    units.discard(cid)

    def reset(self) -> None:
        """Go back to the empty assignment in one step: the counts, sets
        and free literals that unassigning every variable would leave.

        Only the clauses on the occurrence lists of assigned variables have
        moved from their empty-assignment counts, so the cost is that of
        those lists, as for unassigning, without the per-clause tests.
        """
        true, open_, open_sum, occ = self._true, self._open, self._open_sum, self._occ
        size, lit_sum = self._size, self._lit_sum
        for var in self.values:
            for lit in (var, -var):
                for cid in occ.get(lit, ()):
                    true[cid] = 0
                    open_[cid] = size[cid]
                    open_sum[cid] = lit_sum[cid]
        self.values.clear()
        self.units.clear()
        self.falsified.clear()
        for cid in self._short:
            if self._active[cid]:
                (self.units if self._size[cid] else self.falsified).add(cid)

    def is_satisfied(self, cid: int) -> bool:
        """Some literal of a clause that can return is true under ``values``."""
        return self._true[cid] > 0

    def is_falsified(self, cid: int) -> bool:
        """Every literal of a clause that can return is false under ``values``."""
        return self._open[cid] == 0

    def free_literal(self, cid: int) -> int:
        """The unassigned literal of a clause in ``units``.

        A unit clause has no true literal and one non-false literal, so the
        sum of its non-false literals is that literal; for a clause that is
        not unit the answer means nothing.
        """
        return self._open_sum[cid]

    def __len__(self) -> int:
        return len(self._clauses) - 1


def is_blocked(db: ClauseDb, c: Clause, v: int) -> bool:
    """True iff no live unsatisfied clause is resolvable with c on v.

    A scan of the occurrence list that evaluates each partner under the
    store's assignment: the reference that ``ClauseDb.open_partner`` is
    audited against. Clauses clashing with c on a second variable resolve
    to tautologies and never block; soft-deleted clauses are out of the
    formula in the current subspace. Assumes v is unassigned and c is not
    satisfied.
    """
    lit = c.lit_on(v)
    if lit is None:
        raise ValueError(f"variable {v} does not occur in clause {c.id}")
    for cid in db.occurrences(-lit):
        partner = db.clause(cid).lits
        live = db.is_active(cid) and not clause_satisfied(partner, db.values)
        if live and resolvable_on(c.lits, partner, v):
            return False
    return True


@dataclass(frozen=True)
class EcnfProblem:
    """An instance of taking f1 out of the quantified conjunction of f1 and f2."""

    x_vars: frozenset
    y_vars: frozenset
    f1: Tuple[Lits, ...]  # canonical (``canonical_lits``), no duplicates
    f2: Tuple[Lits, ...]

    @classmethod
    def make(
        cls,
        x_vars: Iterable[int],
        f1: Iterable[Sequence[int]],
        f2: Iterable[Sequence[int]],
    ) -> "EcnfProblem":
        """The free variables are the clause variables outside ``x_vars``;
        a quantified variable in no clause stays quantified."""
        x_vars = tuple(x_vars)
        for v in x_vars:
            if v <= 0:
                raise ValueError(f"declared variable {v} is not positive")
        xs = frozenset(x_vars)
        # each block keeps the first occurrence of each canonical clause
        c2 = tuple(dict.fromkeys(map(canonical_lits, f2)))
        # A clause present in both blocks belongs to f2; solving the reduced
        # f1 solves the original problem (the clause set f1 ∧ f2 is unchanged).
        f2set = set(c2)
        c1 = tuple(c for c in dict.fromkeys(map(canonical_lits, f1)) if c not in f2set)
        ys = frozenset(abs(l) for c in c1 + c2 for l in c) - xs
        return cls(xs, ys, c1, c2)

    def is_x_clause(self, lits: Sequence[int]) -> bool:
        return any(abs(l) in self.x_vars for l in lits)
