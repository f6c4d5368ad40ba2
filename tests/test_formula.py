import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pqe.formula import (
    ClauseDb,
    EcnfProblem,
    NotResolvable,
    SATISFIED,
    TautologyError,
    assignments_resolvable,
    canonical_lits,
    clause_falsified,
    clause_satisfied,
    cofactor_clause,
    is_blocked,
    resolve,
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


class TestResolve:
    def test_basic(self):
        # y=3
        assert resolve((3, 1), (-1, 2), 1) == (2, 3)

    def test_no_opposite_pair(self):
        with pytest.raises(NotResolvable):
            resolve((3, 1), (3, -2), 1)

    def test_two_opposite_pairs(self):
        with pytest.raises(NotResolvable):
            resolve((1, 2), (-1, -2), 1)

    def test_resolvent_implied(self, rng):
        # truth-table check on small random resolvable pairs
        checked = 0
        while checked < 60:
            nv = rng.randint(2, 6)
            mk = lambda: tuple(
                v if rng.randrange(2) else -v
                for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv)))
            )
            try:
                c1, c2 = canonical_lits(mk()), canonical_lits(mk())
            except TautologyError:
                continue
            clash = [v for v in range(1, nv + 1) if v in map(abs, c1) and -([l for l in c1 if abs(l) == v][0]) in c2]
            if len(clash) != 1:
                continue
            r = resolve(c1, c2, clash[0])
            for bits in itertools.product((0, 1), repeat=nv):
                asg = {v: bits[v - 1] for v in range(1, nv + 1)}
                if clause_satisfied(c1, asg) and clause_satisfied(c2, asg):
                    assert clause_satisfied(r, asg) or not r
            checked += 1


class TestBlocked:
    def setup_method(self):
        self.db = ClauseDb()
        self.c1 = self.db.add((-1, 2), "f1-initial")
        self.c2 = self.db.add((3, 1), "f2-initial")
        self.c3 = self.db.add((3, -2), "f2-initial")

    def test_blocked_when_partner_satisfied(self):
        self.db.assign(3, 1)
        assert is_blocked(self.db, self.c1, 1)

    def test_not_blocked_with_open_partner(self):
        assert not is_blocked(self.db, self.c1, 1)

    def test_lone_clause_is_blocked(self):
        db = ClauseDb()
        c = db.add((-1, 2), "f1-initial")
        assert is_blocked(db, c, 1)
        assert is_blocked(db, c, 2)

    def test_soft_deleted_partner_ignored(self):
        self.db.deactivate(self.c2.id)
        assert is_blocked(self.db, self.c1, 1)

    def test_double_clash_partner_ignored(self):
        db = ClauseDb()
        c = db.add((1, 2), "f1-initial")
        db.add((-1, -2), "f2-initial")  # resolves to a tautology
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
        a = db.add((2, 1), "f1-initial")
        b = db.add((1, 2), "f2-initial")
        assert a.id == b.id

    def test_soft_delete_and_restore(self):
        db = ClauseDb()
        a = db.add((1, 2), "f1-initial")
        db.deactivate(a.id)
        assert not db.is_active(a.id)
        assert db.find_any((1, 2)).id == a.id
        # a new twin gets a fresh id while the original is out
        b = db.add((1, 2), "f2-initial")
        assert b.id != a.id
        db.deactivate(b.id)
        db.reactivate(a.id)
        assert db.is_active(a.id)

    def test_canonical_order(self):
        db = ClauseDb()
        c = db.add((3, -1, 2), "f1-initial")
        assert c.lits == (-1, 2, 3)


class TestPropagationState:
    def test_counts_follow_assignments(self):
        db = ClauseDb()
        a = db.add((1, 2, 3), "f1-initial")
        b = db.add((-1,), "f2-initial")
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
        c = db.add((2, -3), "derived-f1")  # added under the current assignment
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
                    db.add([v if rng.randrange(2) else -v for v in vs], "f1-initial")
                elif op == 1 and free:
                    v = rng.choice(free)
                    db.assign(v, rng.randrange(2))
                    order.append(v)
                elif op == 2 and order:
                    db.unassign(order.pop())
                else:
                    cid = rng.choice(ids)
                    lits = db.clause(cid).lits
                    if db.is_active(cid):
                        db.deactivate(cid)
                    elif all(db.clause(c).lits != lits for c in db.active_ids()):
                        db.reactivate(cid)
                active = db.active_ids()
                asg = db.values
                assert db.falsified == {c for c in active if clause_falsified(db.clause(c).lits, asg)}
                assert db.units == {c for c in active if unit_literal(db.clause(c).lits, asg) is not None}
                for c in db.all_ids():
                    assert db.is_satisfied(c) == clause_satisfied(db.clause(c).lits, asg)


class TestEcnfProblem:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            EcnfProblem.make([1], [1], [], [])

    def test_undeclared_var_rejected(self):
        with pytest.raises(ValueError):
            EcnfProblem.make([1], [2], [(3,)], [])

    def test_shared_clause_lands_in_f2(self):
        p = EcnfProblem.make([1], [2], [(1, 2)], [(1, 2), (2,)])
        assert p.f1 == ()
        assert (1, 2) in p.f2

    def test_x_clause_detection(self):
        p = EcnfProblem.make([1], [2], [], [])
        assert p.is_x_clause((1, 2))
        assert not p.is_x_clause((2,))
        assert not p.is_x_clause(())
