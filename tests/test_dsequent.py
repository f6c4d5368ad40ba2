import itertools

import pytest

from pqe.dsequent import (
    DSequent,
    DSequentStore,
    InconsistentInputs,
    InvalidRule,
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
from pqe.formula import Clause, NotResolvable


def ds(target, cond, constraint, rule="derived"):
    return DSequent.make(target, cond, constraint, rule)


class TestAtomicFirstKind:
    C = Clause(9, (-5, 6), False)  # x5=5 quantified, y1=6 free

    def test_free_var_side(self):
        out = atomic_first_kind(self.C, 6, 1)
        assert out.cond() == {6: 1} and out.constraint == frozenset()

    def test_quantified_side(self):
        out = atomic_first_kind(self.C, 5, 0)
        assert out.cond() == {5: 0} and out.constraint == frozenset()

    def test_wrong_polarity(self):
        with pytest.raises(InvalidRule, match="5=1 does not satisfy clause 9"):
            atomic_first_kind(self.C, 5, 1)


class TestAtomicSecondKind:
    B = Clause(1, (2, 4), False)  # y1 v x2 with y1=4, x2=2
    C = Clause(2, (2, -3), True)  # x2 v -x3

    def test_implication_under_subspace(self):
        out = atomic_second_kind(self.C, self.B, {4: 0}, x_vars=(2, 3))
        assert out.cond() == {4: 0} and out.constraint == {self.B.id}

    def test_duplicate_self_implication(self):
        twin = Clause(3, (2, -3), False)
        out = atomic_second_kind(self.C, twin, {}, x_vars=(2, 3))
        assert out.cond() == {} and out.constraint == {twin.id}

    def test_no_implication_without_subspace(self):
        with pytest.raises(InvalidRule, match="clause 1 does not imply clause 2 under q"):
            atomic_second_kind(self.C, self.B, {}, x_vars=(2, 3))

    def test_target_must_stay_quantified(self):
        c = Clause(4, (2, 5), True)  # x2 v y2
        b = Clause(5, (5,), False)
        with pytest.raises(InvalidRule, match="clause 4 cofactored by q has no quantified literal"):
            atomic_second_kind(c, b, {2: 0}, x_vars=(2, 3))

    def test_falsified_form_needs_no_quantified_cofactor(self):
        c = Clause(4, (2, 5), True)
        b = Clause(5, (2,), False)
        out = falsified_clause_dsequent(c, b)
        assert out.cond() == {2: 0} and out.constraint == {b.id}


class TestAtomicThirdKind:
    C1 = Clause(11, (1, 2), True)

    def test_merges_partner_records(self):
        s2 = ds(12, {3: 1}, ())
        s3 = ds(13, {2: 1}, {14})
        # a live partner comes as its satisfying entry, not as a record
        out = atomic_third_kind(self.C1, 1, (1, 2), [s2, s3], {4: 0})
        assert out.cond() == {4: 0, 3: 1, 2: 1}
        assert out.constraint == {14}

    def test_vacuous_union(self):
        out = atomic_third_kind(self.C1, 1, (1, 2), [], {})
        assert out.cond() == {} and out.constraint == frozenset()

    def test_clash_rejected(self):
        with pytest.raises(InvalidRule, match="clashing conditionals among inputs") as err:
            atomic_third_kind(self.C1, 1, (1, 2), [ds(12, {3: 0}, ()), ds(13, {3: 1}, ())], {})
        assert not isinstance(err.value, InconsistentInputs)  # the engine must not swallow it

    def test_clash_with_satisfied_partner_rejected(self):
        with pytest.raises(InvalidRule, match="clashing conditionals among inputs: record for 13 on 3") as err:
            atomic_third_kind(self.C1, 1, (1, 2), [ds(13, {3: 1}, ())], {3: 0})
        assert not isinstance(err.value, InconsistentInputs)

    def test_support_cycle_rejected(self):
        with pytest.raises(InconsistentInputs, match="application order"):
            atomic_third_kind(self.C1, 1, (1, 2), [ds(12, {}, {13}), ds(13, {}, {12})], {})

    def test_target_in_partner_constraint_rejected(self):
        with pytest.raises(InconsistentInputs, match="own constraint"):
            atomic_third_kind(self.C1, 1, (1, 2), [ds(12, {3: 1}, {11})], {})


# Every premise of every rule, and of the set check atomic3 runs, failed:
# (the call, its message naming the premise, whether it is the one error
# the engine recovers from). Only partner records that cannot certify a
# blocked clause, by self-support or by a cycle, reach the SAT fallback;
# any other failed premise is a defect the engine must not swallow. join's
# clash on v is the premise of ``formula.resolve_assignments``, which
# raises ``NotResolvable`` (TestJoin).
C9 = Clause(9, (-5, 6), False)
C11 = Clause(11, (1, 2), True)
FAILED_PREMISES = [
    pytest.param(lambda: atomic_first_kind(C9, 5, 1), "5=1 does not satisfy clause 9", False,
                 id="atomic1-wrong-value"),
    pytest.param(lambda: atomic_first_kind(C9, 7, 1), "7=1 does not satisfy clause 9", False,
                 id="atomic1-absent-variable"),
    pytest.param(lambda: atomic_second_kind(Clause(4, (2, 5), True), Clause(5, (5,), False), {2: 0}, (2, 3)),
                 "clause 4 cofactored by q has no quantified literal", False, id="atomic2-target-free"),
    pytest.param(lambda: atomic_second_kind(Clause(2, (2, -3), True), Clause(1, (2, 4), False), {}, (2, 3)),
                 "clause 1 does not imply clause 2 under q", False, id="atomic2-no-implication"),
    pytest.param(lambda: falsified_clause_dsequent(C9, C9), "clause 9 cannot certify its own redundancy",
                 False, id="falsified-by-itself"),
    pytest.param(lambda: atomic_third_kind(C11, 1, (2,), [], {}), "1 is not a quantified variable of clause 11",
                 False, id="atomic3-free-variable"),
    pytest.param(lambda: atomic_third_kind(C11, 3, (1, 2, 3), [], {}), "3 is not a quantified variable of clause 11",
                 False, id="atomic3-absent-variable"),
    pytest.param(lambda: atomic_third_kind(C11, 1, (1, 2), [ds(12, {3: 0}, ()), ds(13, {3: 1}, ())], {}),
                 "clashing conditionals among inputs", False, id="atomic3-clash"),
    pytest.param(lambda: check_consistency([ds(12, {3: 0}, ()), ds(13, {3: 1}, ())]),
                 "clashing conditionals among inputs: records 0 and 1 on 3", False, id="consistency-clash"),
    pytest.param(lambda: check_consistency([ds(12, {}, {13}), ds(13, {}, {12})]),
                 r"inputs admit no application order: records \(0, 1\)", True, id="consistency-cycle"),
    pytest.param(lambda: atomic_third_kind(C11, 1, (1, 2), [ds(12, {}, {13}), ds(13, {}, {12})], {}),
                 "inputs admit no application order", True, id="atomic3-cycle"),
    pytest.param(lambda: atomic_third_kind(C11, 1, (1, 2), [ds(12, {3: 1}, {11})], {}),
                 "target 11 inside its own constraint", True, id="atomic3-self-support"),
    pytest.param(lambda: ds(5, {}, {5}), "target 5 inside its own constraint", True, id="make-self-support"),
    pytest.param(lambda: join(ds(21, {4: 0}, ()), ds(22, {4: 1}, ()), 4), "targets 21 and 22 differ", False,
                 id="join-targets"),
    pytest.param(lambda: substitute(ds(30, {}, {31}), ds(99, {}, ())), "clause 99 not in the constraint", False,
                 id="substitute-membership"),
    pytest.param(lambda: substitute(ds(30, {1: 0}, {31}), ds(31, {1: 1}, ())), "conditionals of .* clash", False,
                 id="substitute-clash"),
]


@pytest.mark.parametrize("build, premise, recovered", FAILED_PREMISES)
def test_failed_premise_is_named_and_only_inconsistent_inputs_recover(build, premise, recovered):
    with pytest.raises(InvalidRule, match=premise) as err:
        build()
    assert isinstance(err.value, InconsistentInputs) == recovered


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
        with pytest.raises(NotResolvable, match="do not clash exactly on 4"):
            join(ds(21, {4: 0}, ()), ds(21, {4: 0}, ()), 4)

    def test_target_mismatch(self):
        with pytest.raises(InvalidRule, match="targets 21 and 22 differ"):
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
        with pytest.raises(InvalidRule, match="clause 99 not in the constraint"):
            substitute(ds(30, {}, {31}), ds(99, {}, ()))

    def test_substitute_requires_compatibility(self):
        with pytest.raises(InvalidRule, match="conditionals of .* clash"):
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
        with pytest.raises(InconsistentInputs, match=r"no application order: records \(0, 1\)$"):
            check_consistency([s_c, s_b])

    def test_order_witness(self):
        s1 = ds(1, {}, ())
        s2 = ds(2, {}, {1})
        # apply s2 first, while clause 1 is present
        assert check_consistency([s1, s2]) == (1, 0)

    def test_incompatible_pair(self):
        with pytest.raises(InvalidRule, match="conditionals among inputs: records 0 and 1 on 5$") as err:
            check_consistency([ds(1, {5: 0}, ()), ds(2, {5: 1}, ())])
        assert not isinstance(err.value, InconsistentInputs)

    def test_incompatible_pair_after_a_compatible_record(self):
        # record 0 clashes with neither; the clash is reported in input order
        with pytest.raises(InvalidRule, match="records 1 and 2 on 5$") as err:
            check_consistency([ds(1, {4: 0}, ()), ds(2, {5: 0, 4: 0}, ()), ds(3, {5: 1}, ())])
        assert not isinstance(err.value, InconsistentInputs)

    def test_order_is_valid_application_order(self, rng):
        for _ in range(100):
            k = rng.randint(1, 6)
            targets = rng.sample(range(1, 10), k)
            dseqs = []
            for t in targets:
                h = set(rng.sample(range(1, 10), rng.randint(0, 3))) - {t}
                dseqs.append(ds(t, {}, h))
            want = brute_force_consistency_clean(dseqs)
            try:
                order = check_consistency(dseqs)
            except InconsistentInputs:
                assert want == "inconsistent"
                continue
            assert want == "consistent" and sorted(order) == list(range(k))
            removed = set()
            for m in order:
                assert not (dseqs[m].constraint & removed)
                removed.add(dseqs[m].target)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            check_consistency([ds(1, {}, ()), ds(1, {}, ())])


class TestRetentionAndStore:
    # the store reads ids only: a target and two other clauses
    TGT, A, B = 3, 1, 2

    def test_key_is_target_conditional_and_constraint(self):
        store = DSequentStore(0)
        first = ds(self.TGT, {5: 0}, {self.A, self.B})
        store.consider(first, 0)
        # equal in target, conditional and constraint: kept once
        store.consider(ds(self.TGT, {5: 0}, {self.B, self.A}), 0)
        assert list(store.records_for(self.TGT)) == [first]
        # a record that differs only in its constraint is a second record,
        # kept after the first
        other = ds(self.TGT, {5: 0}, {self.B})
        store.consider(other, 0)
        assert list(store.records_for(self.TGT)) == [first, other]

    def test_deeper_than_k_dropped(self):
        store = DSequentStore(2)
        store.consider(ds(self.TGT, {5: 0}, ()), 3)
        assert not store.records_for(self.TGT)
        store.consider(ds(self.TGT, {5: 0}, ()), 2)
        assert len(store.records_for(self.TGT)) == 1

    def test_no_learning(self):
        store = DSequentStore(-1)
        store.consider(ds(self.TGT, {5: 0}, ()), 0)
        assert len(store.records_for(self.TGT)) == 0

    def test_store_deduplicates(self):
        store = DSequentStore(0)
        s = ds(self.TGT, {5: 0}, {self.B})
        store.consider(s, 0)
        # an equal record is already stored: not re-added
        store.consider(s, 0)
        assert list(store.records_for(self.TGT)) == [s]

    def test_store_rejects_by_depth(self):
        store = DSequentStore(0)
        store.consider(ds(self.TGT, {5: 0}, ()), 1)
        assert len(store.records_for(self.TGT)) == 0


def test_trace_line_format():
    s = ds(7, {3: 1, 5: 0}, {2, 4}, rule="join")
    assert trace_line(s) == "DS 7 Q 3 -5 0 H 2 4 0 RULE join"
    assert trace_line(ds(7, {}, ())) == "DS 7 Q 0 H 0 RULE derived"
