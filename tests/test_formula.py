import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pqe.formula import (
    ClauseDb,
    EcnfProblem,
    SATISFIED,
    TautologyError,
    assignments_resolvable,
    canonical_lits,
    clause_falsified,
    clause_satisfied,
    cofactor_clause,
    is_blocked,
    lit_truth,
    resolvable_on,
    unit_literal,
)


def lits_strategy(max_var=6, max_len=4):
    lit = st.integers(min_value=1, max_value=max_var).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(lit, min_size=0, max_size=max_len)


def assignment_strategy(max_var=6):
    return st.dictionaries(
        st.integers(min_value=1, max_value=max_var), st.integers(0, 1), max_size=max_var
    )


class TestCofactor:
    def test_satisfied(self):
        assert cofactor_clause((-1, 2), {1: 0}) is SATISFIED

    def test_one_literal_falsified(self):
        assert cofactor_clause((-1, 2), {1: 1}) == (2,)

    def test_all_falsified(self):
        assert cofactor_clause((-1, 2), {1: 1, 2: 0}) == ()

    def test_full_assignment_is_satisfied_or_empty(self, rng):
        for _ in range(200):
            raw = rng.sample([v * s for v in range(1, 5) for s in (1, -1)], rng.randint(1, 4))
            try:
                lits = canonical_lits(raw)
            except TautologyError:
                continue
            full = {abs(l): rng.randrange(2) for l in lits}
            out = cofactor_clause(lits, full)
            assert out is SATISFIED or out == ()

    @given(lits_strategy(), assignment_strategy(), assignment_strategy())
    def test_cofactor_distributes(self, lits, q, r):
        try:
            lits = canonical_lits(lits)
        except (TautologyError, ValueError):
            return
        if any(q.get(v) is not None and r.get(v) not in (None, q[v]) for v in q):
            return  # incompatible
        union = dict(q)
        union.update(r)
        once = cofactor_clause(lits, union)
        step = cofactor_clause(lits, q)
        twice = SATISFIED if step is SATISFIED else cofactor_clause(step, r)
        assert once == twice or (once is SATISFIED and twice is SATISFIED)


# every clause of 0-3 distinct-variable literals over variables 1-3, and
# every partial assignment of those variables (absent, 0 or 1 each)
ALL_CLAUSES = [
    tuple(v * s for v, s in zip(vs, signs))
    for k in range(4)
    for vs in itertools.combinations((1, 2, 3), k)
    for signs in itertools.product((1, -1), repeat=k)
]
ALL_ASSIGNMENTS = [
    {v: val for v, val in zip((1, 2, 3), vals) if val is not None}
    for vals in itertools.product((None, 0, 1), repeat=3)
]


class TestReadings:
    """Each clause reading against a definition written literal by literal."""

    @staticmethod
    def truth(lit, asg):
        if abs(lit) not in asg:
            return None
        return asg[abs(lit)] if lit > 0 else 1 - asg[abs(lit)]

    def test_every_clause_under_every_assignment(self):
        assert (len(ALL_CLAUSES), len(ALL_ASSIGNMENTS)) == (27, 27) and () in ALL_CLAUSES
        for lits in ALL_CLAUSES:
            for asg in ALL_ASSIGNMENTS:
                values = [self.truth(l, asg) for l in lits]
                assert [lit_truth(l, asg) for l in lits] == values
                open_lits = tuple(l for l, t in zip(lits, values) if t is None)
                satisfied = 1 in values
                assert (cofactor_clause(lits, asg) is SATISFIED) == satisfied
                if not satisfied:
                    assert cofactor_clause(lits, asg) == open_lits
                assert clause_satisfied(lits, asg) == satisfied
                assert clause_falsified(lits, asg) == all(t == 0 for t in values)
                unit = open_lits[0] if not satisfied and len(open_lits) == 1 else None
                assert unit_literal(lits, asg) == unit


class TestBlocked:
    def setup_method(self):
        self.db = ClauseDb()
        self.c1 = self.db.add((-1, 2), True)
        self.c2 = self.db.add((1, 3), False)
        self.c3 = self.db.add((-2, 3), False)

    def test_blocked_when_partner_satisfied(self):
        self.db.assign(3, 1)
        assert is_blocked(self.db, self.c1, 1)

    def test_not_blocked_with_open_partner(self):
        assert not is_blocked(self.db, self.c1, 1)

    def test_lone_clause_is_blocked(self):
        db = ClauseDb()
        c = db.add((-1, 2), True)
        assert is_blocked(db, c, 1)
        assert is_blocked(db, c, 2)

    def test_soft_deleted_partner_ignored(self):
        self.db.deactivate(self.c2.id)
        assert is_blocked(self.db, self.c1, 1)

    def test_double_clash_partner_ignored(self):
        db = ClauseDb()
        c = db.add((1, 2), True)
        db.add((-1, -2), False)  # resolves to a tautology
        assert is_blocked(db, c, 1)


class TestAssignments:
    def test_single_clash(self):
        assert assignments_resolvable({4: 0, 1: 0}, {4: 1, 2: 1}) == 4

    def test_compatible(self):
        assert assignments_resolvable({4: 0}, {4: 0, 2: 1}) is None

    def test_two_clashes(self):
        assert assignments_resolvable({4: 0, 1: 0}, {4: 1, 1: 1}) is None


class TestClauseDb:
    def test_tautology_rejected(self):
        with pytest.raises(TautologyError):
            canonical_lits((1, -1))

    def test_duplicate_returns_existing(self):
        db = ClauseDb()
        a = db.add(canonical_lits((2, 1)), True)
        b = db.add((1, 2), False)
        assert a.id == b.id

    def test_soft_delete_and_restore(self):
        db = ClauseDb()
        a = db.add((1, 2), True)
        db.deactivate(a.id)
        assert not db.is_active(a.id)
        assert db.find_any((1, 2)).id == a.id
        # re-adding its literals returns the stored clause, still out
        assert db.add((1, 2), False) is a
        assert not db.is_active(a.id) and len(db) == 1
        db.reactivate(a.id)
        assert db.is_active(a.id)

    def test_canonical_order(self):
        db = ClauseDb()
        c = db.add(canonical_lits((3, -1, 2)), True)
        assert c.lits == (-1, 2, 3)
        assert db.find_any(canonical_lits((2, 3, -1))) is c


class TestPropagationState:
    def test_counts_follow_assignments(self):
        db = ClauseDb()
        a = db.add((1, 2, 3), True)
        b = db.add((-1,), False)
        assert db.units == {b.id} and db.falsified == set()
        db.assign(1, 1)
        assert db.is_satisfied(a.id) and db.falsified == {b.id} and db.units == set()
        db.unassign(1)
        db.assign(1, 0)
        db.assign(2, 0)
        assert db.units == {a.id} and db.free_literal(a.id) == 3
        db.deactivate(a.id)
        assert db.units == set() and not db.is_satisfied(a.id)
        db.assign(3, 0)
        assert db.is_falsified(a.id) and db.falsified == set()
        db.reactivate(a.id)
        assert db.falsified == {a.id}
        c = db.add((2, -3), True)  # added under the current assignment
        assert db.is_satisfied(c.id) and c.id not in db.units

    def test_sets_match_a_full_scan(self):
        rng = random.Random(11)
        for _ in range(30):
            db = ClauseDb()
            nv = rng.randint(1, 6)
            order = []
            for _ in range(rng.randint(40, 120)):
                op = rng.randrange(5)
                free = [v for v in range(1, nv + 1) if v not in db.values]
                ids = db.all_ids()
                if op == 0 or not ids:
                    vs = rng.sample(range(1, nv + 1), rng.randint(0, min(3, nv)))
                    db.add(canonical_lits(v if rng.randrange(2) else -v for v in vs), True)
                elif op == 1 and free:
                    v = rng.choice(free)
                    db.assign(v, rng.randrange(2))
                    order.append(v)
                elif op == 2 and order:
                    db.unassign(order.pop())
                else:
                    cid = rng.choice(ids)
                    if db.is_active(cid):
                        db.deactivate(cid)
                    else:
                        db.reactivate(cid)
                active = db.active_ids()
                asg = db.values
                assert db.falsified == {c for c in active if clause_falsified(db.clause(c).lits, asg)}
                assert db.units == {c for c in active if unit_literal(db.clause(c).lits, asg) is not None}
                for c in db.all_ids():
                    lits = db.clause(c).lits
                    assert db.is_satisfied(c) == clause_satisfied(lits, asg)
                    for lit in lits:
                        # the lowest live partner the assignment leaves unsatisfied
                        want = next((o for o in db.occurrences(-lit)
                                     if db.is_active(o)
                                     and not clause_satisfied(db.clause(o).lits, asg)
                                     and resolvable_on(lits, db.clause(o).lits, abs(lit))), None)
                        assert db.open_partner(c, lit) == want

    @staticmethod
    def walk(db, rng, steps):
        """Random adds, assignments, unassignments, soft deletions,
        restorations and removals; yields after each step."""
        nv = 6
        for _ in range(steps):
            op = rng.randrange(6)
            free = [v for v in range(1, nv + 1) if v not in db.values]
            ids = [c for c in db.all_ids() if c not in db._removed]
            if op == 0 or not ids:
                vs = rng.sample(range(1, nv + 1), rng.randint(0, 3))
                db.add(canonical_lits(v if rng.randrange(2) else -v for v in vs), True)
            elif op == 1 and free:
                db.assign(rng.choice(free), rng.randrange(2))
            elif op == 2 and db.values:
                db.unassign(rng.choice(sorted(db.values)))
            elif op == 3:
                cid = rng.choice(ids)
                if db.is_active(cid):
                    db.remove(cid)
            else:
                cid = rng.choice(ids)
                if db.is_active(cid):
                    db.deactivate(cid)
                else:
                    db.reactivate(cid)
            yield

    @staticmethod
    def state(db):
        """The assignment, the counts of every clause that can return, the
        sets and the free literals of the units, as the store keeps them."""
        counts = {c: (db._true[c], db._open[c], db._open_sum[c])
                  for c in db.all_ids() if c not in db._removed}
        free = {c: db.free_literal(c) for c in db.units}
        return dict(db.values), counts, set(db.units), set(db.falsified), free

    @staticmethod
    def scanned(db):
        """What ``state`` must be, by a full scan."""
        asg = db.values
        counts = {}
        for c in db.all_ids():
            if c in db._removed:
                continue
            lits = db.clause(c).lits
            open_ = [l for l in lits if lit_truth(l, asg) != 0]
            counts[c] = (sum(lit_truth(l, asg) == 1 for l in lits), len(open_), sum(open_))
        active = db.active_ids()
        units = {c for c in active if unit_literal(db.clause(c).lits, asg) is not None}
        falsified = {c for c in active if clause_falsified(db.clause(c).lits, asg)}
        free = {c: unit_literal(db.clause(c).lits, asg) for c in units}
        return dict(asg), counts, units, falsified, free

    def test_reset_leaves_what_unassigning_leaves(self):
        assigned = 0
        for seed in range(40):
            one_by_one, at_once = ClauseDb(), ClauseDb()
            for db in (one_by_one, at_once):
                for _ in self.walk(db, random.Random(seed), 80):
                    pass
            assert self.state(one_by_one) == self.state(at_once)
            assigned += len(one_by_one.values) > 1
            for var in list(one_by_one.values):
                one_by_one.unassign(var)
            at_once.reset()
            assert self.state(at_once) == self.state(one_by_one) == self.scanned(at_once), seed
            # the reset counts carry on as unassigned ones would
            for _ in self.walk(at_once, random.Random(seed + 1000), 40):
                assert self.state(at_once) == self.scanned(at_once), seed
        assert assigned > 20

    def test_removed_clause_leaves_the_count_lists(self):
        removals = 0
        for seed in range(40):
            db = ClauseDb()
            frozen = {}  # removed id -> its counts when it was removed
            for _ in self.walk(db, random.Random(seed), 120):
                for c in db.all_ids():
                    if c in db._removed:
                        counts = (db._true[c], db._open[c], db._open_sum[c])
                        # assign and unassign no longer touch it
                        assert frozen.setdefault(c, counts) == counts, (seed, c)
                        assert c not in db.units and c not in db.falsified
                        for lit in db.clause(c).lits:
                            assert c not in db.occurrences(lit), (seed, c)
                assert self.state(db) == self.scanned(db), seed
                asg = db.values
                # no caller asks for the partners of a removed clause: its
                # lists went with it, and a list built for it after that
                # would not be kept
                for c in db.all_ids():
                    if c in db._removed:
                        continue
                    lits = db.clause(c).lits
                    for lit in lits:
                        partners = [o for o in db.occurrences(-lit)
                                    if resolvable_on(lits, db.clause(o).lits, abs(lit))]
                        assert list(db.partners(c, lit)) == partners
                        want = next((o for o in partners if db.is_active(o)
                                     and not clause_satisfied(db.clause(o).lits, asg)), None)
                        assert db.open_partner(c, lit) == want
            removals += len(frozen)
            for c in frozen:
                with pytest.raises(ValueError, match="removed"):
                    db.reactivate(c)
        assert removals > 40


class TestEcnfProblem:
    def test_non_positive_quantified_var_rejected(self):
        with pytest.raises(ValueError, match="-2"):
            EcnfProblem.make([1, -2], [(1, 3)], [])
        with pytest.raises(ValueError, match="variable 0 "):
            EcnfProblem.make([0], [(3,)], [])

    def test_free_vars_are_the_clause_vars_outside_x(self):
        p = EcnfProblem.make([1, 4], [(1, -2)], [(-3, 1), (2,)])
        assert p.x_vars == frozenset({1, 4})
        assert p.y_vars == frozenset({2, 3})

    def test_shared_clause_lands_in_f2(self):
        p = EcnfProblem.make([1], [(1, 2)], [(1, 2), (2,)])
        assert p.f1 == ()
        assert (1, 2) in p.f2

    def test_each_block_keeps_first_occurrences_in_order(self):
        p = EcnfProblem.make([1], [(2, 1), (3,), (1, 2)], [])
        assert p.f1 == ((1, 2), (3,))

    def test_x_clause_detection(self):
        p = EcnfProblem.make([1], [], [])
        assert p.is_x_clause((1, 2))
        assert not p.is_x_clause((2,))
        assert not p.is_x_clause(())
