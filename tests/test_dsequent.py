import itertools

import pytest

from pqe.dsequent import (
    Consistent,
    DSequent,
    DSequentStore,
    IncompatibleConditionals,
    Inconsistent,
    NoImplication,
    NotInConstraint,
    NotSatisfying,
    TargetMismatch,
    TargetNotXClause,
    atomic_first_kind,
    atomic_second_kind,
    atomic_third_kind,
    check_consistency,
    falsified_clause_dsequent,
    join,
    substitute,
    trace_line,
    unit_deactivating_assignment,
)
from pqe.formula import Clause, ClauseDb, NotResolvable


def ds(target, cond, constraint, rule="derived"):
    return DSequent.make(target, cond, constraint, rule)


class TestAtomicFirstKind:
    C = Clause(9, (-5, 6), "f2-initial")  # x5=5 quantified, y1=6 free

    def test_free_var_side(self):
        out = atomic_first_kind(self.C, 6, 1)
        assert out.cond() == {6: 1} and out.constraint == frozenset()

    def test_quantified_side(self):
        out = atomic_first_kind(self.C, 5, 0)
        assert out.cond() == {5: 0} and out.constraint == frozenset()

    def test_wrong_polarity(self):
        with pytest.raises(NotSatisfying):
            atomic_first_kind(self.C, 5, 1)


class TestAtomicSecondKind:
    B = Clause(1, (2, 4), "f2-initial")  # y1 v x2 with y1=4, x2=2
    C = Clause(2, (2, -3), "f1-initial")  # x2 v -x3

    def test_implication_under_subspace(self):
        out = atomic_second_kind(self.C, self.B, {4: 0}, x_vars=(2, 3))
        assert out.cond() == {4: 0} and out.constraint == {self.B.id}

    def test_duplicate_self_implication(self):
        twin = Clause(3, (2, -3), "f2-initial")
        out = atomic_second_kind(self.C, twin, {}, x_vars=(2, 3))
        assert out.cond() == {} and out.constraint == {twin.id}

    def test_no_implication_without_subspace(self):
        with pytest.raises(NoImplication):
            atomic_second_kind(self.C, self.B, {}, x_vars=(2, 3))

    def test_target_must_stay_quantified(self):
        c = Clause(4, (2, 5), "f1-initial")  # x2 v y2
        b = Clause(5, (5,), "f2-initial")
        with pytest.raises(TargetNotXClause):
            atomic_second_kind(c, b, {2: 0}, x_vars=(2, 3))

    def test_falsified_form_needs_no_quantified_cofactor(self):
        c = Clause(4, (2, 5), "f1-initial")
        b = Clause(5, (2,), "f2-initial")
        out = falsified_clause_dsequent(c, b)
        assert out.cond() == {2: 0} and out.constraint == {b.id}


class TestAtomicThirdKind:
    C1 = Clause(11, (1, 2), "f1-initial")

    def test_merges_partner_records(self):
        s2 = ds(12, {3: 1}, ())
        s3 = ds(13, {2: 1}, {14})
        out = atomic_third_kind(self.C1, 1, (1, 2), [s2, s3])
        assert out.cond() == {3: 1, 2: 1}
        assert out.constraint == {14}

    def test_vacuous_union(self):
        out = atomic_third_kind(self.C1, 1, (1, 2), [])
        assert out.cond() == {} and out.constraint == frozenset()

    def test_clash_rejected(self):
        with pytest.raises(IncompatibleConditionals):
            atomic_third_kind(self.C1, 1, (1, 2), [ds(12, {3: 0}, ()), ds(13, {3: 1}, ())])


class TestJoin:
    def test_worked_example(self):
        s1 = ds(21, {4: 0, 1: 0}, {22})
        s2 = ds(21, {4: 1, 2: 1}, {23})
        out = join(s1, s2, 4)
        assert out.cond() == {1: 0, 2: 1}
        assert out.constraint == {22, 23}

    def test_unconditional_from_two_branches(self):
        out = join(ds(21, {4: 0}, ()), ds(21, {4: 1}, ()), 4)
        assert out.cond() == {} and out.constraint == frozenset()

    def test_no_clash_rejected(self):
        with pytest.raises(NotResolvable):
            join(ds(21, {4: 0}, ()), ds(21, {4: 0}, ()), 4)

    def test_target_mismatch(self):
        with pytest.raises(TargetMismatch):
            join(ds(21, {4: 0}, ()), ds(22, {4: 1}, ()), 4)


class TestUpdateSubstituteStrengthen:
    def test_substitute_empty_support(self):
        s1 = ds(30, {4: 0}, {31})
        s2 = ds(31, {1: 1}, ())
        out = substitute(s1, s2)
        assert out.cond() == {4: 0, 1: 1} and out.constraint == frozenset()

    def test_substitute_set_algebra(self):
        s1 = ds(30, {}, {31, 32})
        s2 = ds(31, {}, {33})
        out = substitute(s1, s2)
        assert out.constraint == {32, 33}

    def test_substitute_requires_membership(self):
        with pytest.raises(NotInConstraint):
            substitute(ds(30, {}, {31}), ds(99, {}, ()))

    def test_substitute_requires_compatibility(self):
        with pytest.raises(IncompatibleConditionals):
            substitute(ds(30, {1: 0}, {31}), ds(31, {1: 1}, ()))

class TestReusePredicates:
    def test_unit_deactivating(self):
        s = ds(3, {6: 0, 5: 1}, ())
        assert unit_deactivating_assignment(s, {6: 0}) == (5, 0)
        assert unit_deactivating_assignment(s, {6: 1, 5: 1}) is None
        assert unit_deactivating_assignment(ds(3, {6: 0}, ()), {6: 0}) is None
        assert unit_deactivating_assignment(s, {}) is None


def brute_force_consistency_clean(dseqs):
    """Factorial-search reference for the checker: try every order."""
    n = len(dseqs)
    for i in range(n):
        qi = dseqs[i].cond()
        for j in range(i + 1, n):
            qj = dseqs[j].cond()
            if any(qi.get(v) not in (None, b) for v, b in qj.items()):
                return "incompatible"
    targets = [d.target for d in dseqs]
    for perm in itertools.permutations(range(n)):
        removed = set()
        ok = True
        for m in perm:
            if dseqs[m].constraint & removed:
                ok = False
                break
            removed.add(targets[m])
        if ok:
            return "consistent"
    return "inconsistent"


class TestConsistency:
    def test_mutually_exclusive_duplicates(self):
        s_c = ds(2, {}, {1})
        s_b = ds(1, {}, {2})
        res = check_consistency([s_c, s_b])
        assert isinstance(res, Inconsistent)
        assert res.cycle is not None and len(res.cycle) == 2

    def test_order_witness(self):
        s1 = ds(1, {}, ())
        s2 = ds(2, {}, {1})
        res = check_consistency([s1, s2])
        assert isinstance(res, Consistent)
        assert res.order == (1, 0)  # apply s2 first, while clause 1 is present

    def test_incompatible_pair(self):
        res = check_consistency([ds(1, {5: 0}, ()), ds(2, {5: 1}, ())])
        assert isinstance(res, Inconsistent)
        assert res.incompatible == (0, 1)

    def test_order_is_valid_application_order(self, rng):
        for _ in range(100):
            k = rng.randint(1, 6)
            targets = rng.sample(range(1, 10), k)
            dseqs = []
            for t in targets:
                h = set(rng.sample(range(1, 10), rng.randint(0, 3))) - {t}
                dseqs.append(ds(t, {}, h))
            res = check_consistency(dseqs)
            want = brute_force_consistency_clean(dseqs)
            if isinstance(res, Consistent):
                assert want == "consistent"
                removed = set()
                for m in res.order:
                    assert not (dseqs[m].constraint & removed)
                    removed.add(dseqs[m].target)
            else:
                assert want == "inconsistent"

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            check_consistency([ds(1, {}, ()), ds(1, {}, ())])


class TestRetentionAndStore:
    def setup_method(self):
        self.db = ClauseDb()
        self.yc = self.db.add((5, 6), "f2-initial")  # free-only clause
        self.xc = self.db.add((1, 5), "f2-initial")
        self.tgt = self.db.add((1, 2), "f1-initial")
        self.x_vars = (1, 2)

    def test_depth_zero_strips_constraint(self):
        # at k = 0 the duplicate test ignores the constraint; the record
        # first stored is kept as derived
        store = DSequentStore(0)
        first = ds(self.tgt.id, {5: 0}, {self.xc.id, self.yc.id})
        assert store.consider(first, 0, self.x_vars, self.db)
        assert store.consider(ds(self.tgt.id, {5: 0}, ()), 0, self.x_vars, self.db)
        assert store.records_for(self.tgt.id) == [first]
        assert store.consider(ds(self.tgt.id, {5: 1}, ()), 0, self.x_vars, self.db)
        assert len(store.records_for(self.tgt.id)) == 2

    def test_deeper_than_k_dropped(self):
        store = DSequentStore(2)
        assert not store.consider(ds(self.tgt.id, {5: 0}, ()), 3, self.x_vars, self.db)
        assert store.consider(ds(self.tgt.id, {5: 0}, ()), 2, self.x_vars, self.db)
        assert len(store.records_for(self.tgt.id)) == 1

    def test_no_learning(self):
        store = DSequentStore(-1)
        assert not store.consider(ds(self.tgt.id, {5: 0}, ()), 0, self.x_vars, self.db)
        assert len(store.records_for(self.tgt.id)) == 0

    def test_free_clauses_always_stripped(self):
        # at k >= 1 the duplicate test ignores free-variable-only clauses
        store = DSequentStore(2)
        first = ds(self.tgt.id, {5: 0}, {self.xc.id})
        assert store.consider(first, 1, self.x_vars, self.db)
        assert store.consider(ds(self.tgt.id, {5: 0}, {self.xc.id, self.yc.id}), 1,
                              self.x_vars, self.db)
        assert store.records_for(self.tgt.id) == [first]
        # a clause with a quantified literal makes the record a new one
        other = ds(self.tgt.id, {5: 0}, {self.yc.id})
        assert store.consider(other, 1, self.x_vars, self.db)
        assert store.records_for(self.tgt.id) == [first, other]

    def test_store_deduplicates(self):
        store = DSequentStore(0)
        s = ds(self.tgt.id, {5: 0}, {self.yc.id})
        assert store.consider(s, 0, self.x_vars, self.db)
        # an equivalent record is already retained: reported, not re-added
        assert store.consider(s, 0, self.x_vars, self.db)
        assert len(store.records_for(self.tgt.id)) == 1
        assert store.records_for(self.tgt.id) == [s]

    def test_store_rejects_by_depth(self):
        store = DSequentStore(0)
        s = ds(self.tgt.id, {5: 0}, ())
        assert not store.consider(s, 1, self.x_vars, self.db)
        assert len(store.records_for(self.tgt.id)) == 0


def test_trace_line_format():
    s = ds(7, {3: 1, 5: 0}, {2, 4}, rule="join")
    assert trace_line(s) == "DS 7 Q 3 -5 0 H 2 4 0 RULE join"
    assert trace_line(ds(7, {}, ())) == "DS 7 Q 0 H 0 RULE derived"
