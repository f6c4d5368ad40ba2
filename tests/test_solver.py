"""Scripted regressions for the proof engine, including the worked learning
scenarios and the target-stack walkthrough."""

import os

import pytest

from pqe import dsequent as dsq
from pqe import harness
from pqe.dsequent import DSequent
from pqe.formula import EcnfProblem, canonical_lits
from pqe.cli import main
from pqe.io import parse_pqe
from pqe.oracle import cnf_satisfiable, enumerate_qe, verify_dsequent, verify_pqe_solution
from pqe.solver import Engine, SolverConfig, solve_pqe

GOLDEN = "p pqe 3 1 2\ne 1 2 0\n-1 2 0\n3 1 0\n3 -2 0\n"
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def make_engine(x_vars, f1, f2, **cfg):
    problem = EcnfProblem.make(x_vars, f1, f2)
    return Engine(problem, SolverConfig(**cfg))


def start_proof(engine, primary_lits):
    engine._pop_suffix(0)
    primary = engine.db.find_any(canonical_lits(primary_lits))
    engine.primary = primary.id
    engine.target = primary.id
    return primary


class TestGolden:
    def test_end_to_end(self):
        problem = parse_pqe(GOLDEN)
        res = solve_pqe(problem, SolverConfig())
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
        want = enumerate_qe([(3,)], ())
        got = enumerate_qe(res.f1_star, ())
        assert want == got

    def test_learned_clause_reaches_first_block(self):
        problem = parse_pqe(GOLDEN)
        res = solve_pqe(problem, SolverConfig())
        assert res.f1_star == ((3,),)
        assert res.stats["clauses_added_f1"] == 1
        assert res.stats["conflicts"] == 1


class TestTrivialInstances:
    def test_empty_first_block(self):
        res = solve_pqe(EcnfProblem.make([1], [], [(1, 2)]))
        assert res.f1_star == ()

    def test_free_only_first_block_passes_through(self):
        res = solve_pqe(EcnfProblem.make([1], [(2,), (-3, 2)], [(1, 2)]))
        assert res.f1_star == ((2,), (2, -3))

    def test_primary_blocked_immediately(self):
        # no resolution partner on x1 anywhere: removable outright
        problem = EcnfProblem.make([1], [(1, 2)], [(2, 3)])
        res = solve_pqe(problem)
        assert res.f1_star == ()
        assert res.stats["dseq_atomic3"] >= 1
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)

    def test_empty_clause_in_second_block(self):
        problem = EcnfProblem.make([1], [(1, 2)], [()])
        res = solve_pqe(problem)
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)

    def test_empty_clause_in_first_block_is_the_answer(self):
        problem = EcnfProblem.make([1], [(), (1,)], [])
        res = solve_pqe(problem)
        assert () in res.f1_star
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)

    def test_free_unit_target(self):
        # target becomes unit on a free variable; recovery adds the free clause
        problem = EcnfProblem.make([1], [(2, -1)], [(1,)])
        res = solve_pqe(problem)
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
        got = enumerate_qe(res.f1_star, ())
        want = enumerate_qe([(2,)], ())
        assert got == want


class TestLearnSatisfiedTarget:
    """Target satisfied through a propagated assignment."""

    def test_outcome(self):
        eng = make_engine([1, 2], f1=[(1, 2)], f2=[(3, 1)])
        target = start_proof(eng, (1, 2))
        helper = eng.db.find_any((1, 3))
        eng._apply(3, 0, None)
        eng._apply(1, 1, helper.id)
        out = eng._round_condition()
        assert isinstance(out, DSequent)
        assert out.target == target.id
        assert out.cond() == {3: 0}
        assert out.constraint == {helper.id}


class TestLearnBlockedTarget:
    """Target blocked at its unassigned quantified variable."""

    def test_outcome(self):
        eng = make_engine([1, 2, 3], f1=[(2, 3)], f2=[(4, 1), (1, -2)])
        target = start_proof(eng, (2, 3))
        c1 = eng.db.find_any((1, 4))
        eng._apply(4, 0, None)
        eng._apply(1, 1, c1.id)
        out = eng._bcp()
        assert eng.stats["dseq_atomic3"] == 1
        assert isinstance(out, DSequent)
        assert out.target == target.id
        assert out.cond() == {4: 0}
        assert out.constraint == {c1.id}


class TestLearnFalsifiedNonTarget:
    """A non-target clause falsified while a record-derived assignment matters."""

    def setup_engine(self, target_lits):
        eng = make_engine(
            [1, 2, 3, 4],
            f1=[target_lits],
            f2=[(5, -1, 2), (-1, 3), (-2, -3)],
        )
        return eng

    def test_chain_of_joins(self):
        eng = self.setup_engine((1, 4))
        target = start_proof(eng, (1, 4))
        c1 = eng.db.find_any((-1, 2, 5))
        c2 = eng.db.find_any((-1, 3))
        c3 = eng.db.find_any((-2, -3))
        stored = DSequent.make(target.id, {5: 0, 1: 0}, (), "derived")
        eng._apply(5, 0, None)
        eng._apply(1, 1, stored)
        eng._apply(2, 1, c1.id)
        eng._apply(3, 1, c2.id)
        out = eng._lrn_falsified(c3.id)
        assert isinstance(out, DSequent)
        assert out.cond() == {5: 0}
        assert out.constraint == {c1.id, c2.id, c3.id}


class TestLearnFalsifiedTarget:
    """The falsified clause is the target: a helper clause is added too."""

    def test_record_and_clause(self):
        eng = make_engine([1, 2, 3], f1=[(-2, -3)], f2=[(5, -1, 2), (-1, 3)])
        target = start_proof(eng, (-2, -3))
        c1 = eng.db.find_any((-1, 2, 5))
        c2 = eng.db.find_any((-1, 3))
        stored = DSequent.make(target.id, {5: 0, 1: 0}, (), "derived")
        eng._apply(5, 0, None)
        eng._apply(1, 1, stored)
        eng._apply(2, 1, c1.id)
        eng._apply(3, 1, c2.id)
        out = eng._lrn_falsified(target.id)
        helper = eng.db.find_any((-1, 5))
        assert helper is not None
        assert helper.f1_side
        assert isinstance(out, DSequent)
        assert out.cond() == {5: 0}
        assert out.constraint == {helper.id}


class TestLearnActivatedRecord:
    """A stored record becomes active; its conditional is rebuilt bottom-up."""

    def test_joins_through_reasons(self):
        eng = make_engine([1, 2, 4], f1=[(4,)], f2=[(3, 1), (3, 2)])
        target = start_proof(eng, (4,))
        c1 = eng.db.find_any((1, 3))
        c2 = eng.db.find_any((2, 3))
        stored = DSequent.make(target.id, {1: 1, 2: 1}, (), "derived")
        eng._apply(3, 0, None)
        eng._apply(1, 1, c1.id)
        eng._apply(2, 1, c2.id)
        out = eng._rewrite(stored)
        assert out.cond() == {3: 0}
        assert out.constraint == {c1.id, c2.id}


class TestTargetStackWalkthrough:
    """Unit-chain target levels, special backtracking, and the popping cascade."""

    def build(self):
        eng = make_engine(
            [1, 2, 3, 4],
            f1=[(5, 1)],
            f2=[(-1, 2), (-2, 3, 4), (-5, -3), (3, -4)],
        )
        ids = {lits: eng.db.find_any(canonical_lits(lits)).id for lits in
               [(5, 1), (-1, 2), (-2, 3, 4), (-5, -3), (3, -4)]}
        return eng, ids

    def test_stack_shape_and_blocked_condition(self):
        eng, ids = self.build()
        start_proof(eng, (5, 1))
        out = eng._bcp()  # branches on y5 = 0 on the way
        assert eng.stats["decisions"] == 1 and eng.trail[0].reason is None
        # two target levels, keyed by the unit chain, and the new target
        assert [(key.reason, key.var) for key in eng.tlevels] == [
            (ids[(5, 1)], 1),
            (ids[(-1, 2)], 2),
        ]
        assert eng.tlevels == [e for e in eng.trail if e.done is not None]
        live_partners = [
            tuple(cid for cid in eng.db.partners(key.reason, key.var if key.val else -key.var)
                  if eng.db.is_active(cid))
            for key in eng.tlevels
        ]
        assert live_partners == [(ids[(-1, 2)],), (ids[(-2, 3, 4)],)]
        assert eng.target == ids[(-2, 3, 4)]
        # the new target is blocked at x3: its third-kind record comes back
        assert eng.stats["dseq_atomic3"] == 1
        assert isinstance(out, DSequent) and out.target == ids[(-2, 3, 4)]
        assert [(e.var, e.val) for e in eng.trail] == [(5, 0), (1, 1), (2, 1)]

    def test_special_backtracking_sequence(self):
        eng, ids = self.build()
        start_proof(eng, (5, 1))
        out = eng._bcp()
        assert out.cond() == {5: 0} and not out.constraint
        trail_before = [(e.var, e.val) for e in eng.trail]
        # the deepest proof cannot move past its point of origin, so marking
        # it done immediately pops the top level, certifying its key clause
        res = eng._bcktr_dseq(out)
        assert trail_before == [(5, 0), (1, 1), (2, 1)]
        assert isinstance(res, DSequent)
        assert res.target == ids[(-1, 2)]
        assert res.cond() == {5: 0} and not res.constraint
        assert [(e.var, e.val) for e in eng.trail] == [(5, 0), (1, 1)]
        assert eng.db.is_active(ids[(-2, 3, 4)])
        # the popped key clause is itself done at the level below; cascade
        res2 = eng._bcktr_dseq(res)
        assert isinstance(res2, DSequent)
        assert res2.target == ids[(5, 1)]
        assert res2.cond() == {5: 0} and not res2.constraint
        assert eng.tlevels == []
        assert [(e.var, e.val, e.done) for e in eng.trail] == [(5, 0, None)]
        assert eng.db.is_active(ids[(-1, 2)])

    def test_full_proof_and_final_flip(self):
        eng, ids = self.build()
        seen = []
        eng.on_dsequent = lambda ds, live: seen.append(ds)
        final = eng.prove_redundant(ids[(5, 1)])
        assert final.cond() == {}
        conds = [(ds.target, tuple(ds.conditional)) for ds in seen]
        # the cascade certifies the chain bottom-up in the first branch
        assert conds.index((ids[(-2, 3, 4)], ((5, 0),))) < conds.index(
            (ids[(-1, 2)], ((5, 0),))
        ) < conds.index((ids[(5, 1)], ((5, 0),)))


class TestUnitOrder:
    def test_lowest_id_unit_first(self):
        # y3=0 makes (3 4) and (3 6) unit; applying y4 then makes (-4 5)
        # unit, which goes first by its lower id though (3 6) waited longer
        eng = make_engine([1], f1=[(1, 2)],
                          f2=[(3, 4), (-4, 5), (3, 6), (-1, 7)])
        start_proof(eng, (1, 2))
        eng._apply(3, 0, None)
        eng._bcp()
        # the units come first, then the branch on the lowest free variable
        assert [(e.var, e.val, e.reason) for e in eng.trail[:5]] == [
            (3, 0, None), (4, 1, 2), (5, 1, 3), (6, 1, 4), (2, 0, None)
        ]

    def test_target_unit_applied_last(self):
        # x1=0 makes the target (1 2) unit on y2, and (1 3) unit; y3 then
        # makes (-3 4) unit: both others go before the target's own unit,
        # which steers the branch at a level of its own
        eng = make_engine([1], f1=[(1, 2)], f2=[(1, 3), (-3, 4)])
        target = start_proof(eng, (1, 2))
        eng._apply(1, 0, None)
        out = eng._bcp()
        assert isinstance(out, DSequent) and out.cond() == {2: 1}
        assert [(e.var, e.val, e.reason, e.level) for e in eng.trail] == [
            (1, 0, None, 1), (3, 1, 2, 1), (4, 1, 3, 1), (2, 1, target.id, 2)
        ]


class TestStoredRecordPropagation:
    """Records consulted where the search branches (``_branch``)."""

    def branch_engine(self, *conds):
        # x5 is the next branch variable once y6 = 0 is on the trail
        eng = make_engine([5, 7], f1=[(5, 7)], f2=[(6, 5, 7)])
        target = start_proof(eng, (5, 7))
        recs = [DSequent.make(target.id, cond, (), "derived") for cond in conds]
        for rec in recs:
            eng.store.consider(rec, 0)
        eng._apply(6, 0, None)
        assert eng._round_condition() is None
        return eng, recs

    def test_unit_record_steers_branch_variable(self):
        # the unit record flips the branch variable's polarity at a new level
        eng, (rec,) = self.branch_engine({6: 0, 5: 1})
        assert eng._branch() is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason, e.level) == (5, 0, rec, 2)
        assert (eng.stats["deactivation_hints"], eng.stats["decisions"]) == (1, 0)

    def test_record_unit_off_the_branch_variable_does_not_steer(self):
        eng, _ = self.branch_engine({6: 0, 7: 1})
        assert eng._branch() is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason, e.level) == (5, 0, None, 2)
        assert (eng.stats["deactivation_hints"], eng.stats["decisions"]) == (0, 1)

    def test_first_stored_hint_gives_value_and_reason(self):
        eng, (first, _) = self.branch_engine({6: 0, 5: 1}, {5: 0})
        assert eng._branch() is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (5, 0, first)
        assert eng.stats["deactivation_hints"] == 1

    def test_later_subsumed_record_wins_over_hint(self):
        # the reuse is returned, the trail is left as it was and the hint
        # found first, never applied, is not counted
        eng, (_, reused) = self.branch_engine({6: 0, 5: 1}, {6: 0})
        assert eng._branch() is reused
        assert [(e.var, e.val) for e in eng.trail] == [(6, 0)]
        assert (eng.stats["dseq_reused"], eng.stats["deactivation_hints"]) == (1, 0)
        assert eng.stats["decisions"] == 0

    def test_active_record_reported(self):
        eng = make_engine([1, 2, 5], f1=[(1, 2)], f2=[(6, 5)])
        target = start_proof(eng, (1, 2))
        rec = DSequent.make(target.id, {6: 0}, (), "derived")
        eng.store.consider(rec, 0)
        eng._apply(6, 0, None)
        out = eng._branch()
        assert isinstance(out, DSequent)
        assert out.cond() == {6: 0}
        assert eng.stats["dseq_reused"] == 1
        assert len(eng.trail) == 1

    def test_record_skipped_when_support_inactive_though_satisfied(self):
        # a record applies only while its whole constraint is in the formula;
        # a support clause the trail satisfies does not stand in for it
        eng = make_engine([1, 4], f1=[(1, 3)], f2=[(4, -3)])
        target = start_proof(eng, (1, 3))
        helper = eng.db.find_any((-3, 4))
        rec = DSequent.make(target.id, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None)  # satisfies the helper via -3
        assert eng.db.is_satisfied(helper.id)
        assert eng._branch() is None
        assert eng.stats["dseq_reused"] == 0
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (1, 0, None)

    def test_unusable_record_skipped_when_support_gone(self):
        eng = make_engine([1], f1=[(1, 2)], f2=[(1, 3)])
        target = start_proof(eng, (1, 2))
        helper = eng.db.find_any((1, 3))
        rec = DSequent.make(target.id, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None)  # helper neither live nor satisfied
        assert eng._branch() is None
        assert eng.stats["dseq_reused"] == 0
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (2, 0, None)


class TestDecide:
    def test_free_vars_first(self):
        eng = make_engine([1, 2], f1=[(1, 3)], f2=[(2, 4)])
        start_proof(eng, (1, 3))
        assert eng._branch() is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (3, 0, None)
        assert eng.stats["decisions"] == 1

    def test_quantified_when_free_exhausted(self):
        eng = make_engine([1, 2], f1=[(1, 3)], f2=[(2,)])
        start_proof(eng, (1, 3))
        eng._apply(3, 0, None)
        assert eng._branch() is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (1, 0, None)

    def test_order_is_static(self):
        # the pick skips assigned variables, whatever order they were set in
        eng = make_engine([1, 2], f1=[(1, 3)], f2=[(2, 4)])
        start_proof(eng, (1, 3))
        eng._apply(4, 0, None)
        assert eng._pick_branch_var() == 3
        eng._apply(3, 0, None)
        eng._apply(1, 0, None)
        assert eng._pick_branch_var() == 2
        eng._pop_suffix(1)
        assert eng._pick_branch_var() == 3


class TestEagerBacktracking:
    """A backtrack applies the assignment it asserts before it returns."""

    def build(self):
        # y3 = 0, x1 = 0 and x2 = 0 decided at levels 1, 2 and 3
        eng = make_engine([1, 2], f1=[(1, 3)], f2=[(-1, 2), (-2, 3)],
                          check_invariants=True)
        target = start_proof(eng, (1, 3))
        for var in (3, 1, 2):
            eng._apply(var, 0, None)
        return eng, target

    def test_clause_applies_its_asserting_literal(self):
        eng, _ = self.build()
        clause = eng._add_derived_clause((1, 2, 3), True)
        assert eng._bcktr_clause(clause) is None
        assert [(e.var, e.val, e.reason, e.level) for e in eng.trail] == [
            (3, 0, None, 1), (1, 0, None, 2), (2, 1, clause.id, 2)
        ]

    def test_record_flip_starts_a_level(self):
        eng, target = self.build()
        ds = DSequent.make(target.id, {3: 0, 1: 0}, (), "derived")
        assert eng._bcktr_dseq(ds) is None
        assert [(e.var, e.val, e.reason, e.level) for e in eng.trail] == [
            (3, 0, None, 1), (1, 1, ds, 2)
        ]

    def test_record_flips_its_lowest_unassigned_variable(self):
        eng, target = self.build()
        eng._pop_suffix(1)  # only y3 = 0 is left
        ds = DSequent.make(target.id, {3: 0, 2: 1, 1: 1}, (), "derived")
        assert eng._bcktr_dseq(ds) is None
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason, e.level) == (1, 0, ds, 2)


class TestFreeVariableWalk:
    """A falsified target whose resolvent is stored: the walk that keeps
    free literals closes it, or the SAT fallback does."""

    def build(self, x1_reason="clause", **cfg):
        # target (-x1 v y4); y3 = 0 decided, x1 = 1 by (y3 v x1) or as given,
        # y4 = 0 flipped by a record: the target is falsified
        eng = make_engine([1], f1=[(-1, 4)], f2=[(3, 1)], **cfg)
        target = start_proof(eng, (-1, 4))
        reasons = {
            "clause": eng.db.find_any((1, 3)).id,
            "decision": None,
            "record": DSequent.make(target.id, {1: 0}, (), "derived"),
        }
        eng._apply(3, 0, None)
        eng._apply(1, 1, reasons[x1_reason])
        eng._apply(4, 0, DSequent.make(target.id, {4: 1}, (), "derived"))
        return eng, target

    def test_closes_by_search(self):
        eng, target = self.build(check_invariants=True)
        out = eng._lrn_falsified(target.id)
        assert eng.stats["duplicates"] == eng.stats["sat_calls"] == 0
        assert len(eng.trail) == 3  # the search stays where it is
        b = eng.db.find_any((3, 4))
        # the problem's clauses are ids 1..n: B was added, on the F1 side
        n = len(eng.problem.f1) + len(eng.problem.f2)
        assert b is not None and b.id > n and b.f1_side and eng.db.is_active(b.id)
        assert isinstance(out, DSequent)
        assert out.cond() == {3: 0}
        assert out.constraint == {b.id}
        # B is implied: the input and B's negation are unsatisfiable
        problem = eng.problem
        assert not cnf_satisfiable(list(problem.f1 + problem.f2) + [(-l,) for l in b.lits])

    @pytest.mark.parametrize("x1_reason", ["decision", "record"])
    def test_quantified_decision_or_record_falls_back(self, x1_reason):
        eng, target = self.build(x1_reason)
        eng._lrn_falsified(target.id)
        assert eng.stats["duplicates"] == eng.stats["sat_calls"] == 1

    def test_audit_catches_inactive_free_only_clause(self):
        # only primaries and targets are soft-deleted, and each holds a
        # quantified literal: a stored free-only resolvent is always active
        eng, target = self.build(check_invariants=True)
        eng._audit_stack()
        b = eng.db.add((3, 4), True)
        eng.db.deactivate(b.id)
        with pytest.raises(AssertionError, match="free-only"):
            eng._audit_stack()

    def test_free_unit_instance_closes_by_search(self):
        # the target's free unit is flipped by a record; the walk keeping
        # free literals resolves x1 through (x1) and learns (y2)
        problem = EcnfProblem.make([1], [(2, -1)], [(1,)])
        eng = Engine(problem, SolverConfig())
        res = eng.solve()
        assert res.f1_star == ((2,),)
        assert eng.stats["duplicates"] == eng.stats["sat_calls"] == 0
        # the problem's clauses are ids 1..n; the search added the rest
        n = len(problem.f1) + len(problem.f2)
        derived = [eng.db.clause(cid) for cid in eng.db.all_ids() if cid > n]
        assert [(c.lits, c.f1_side) for c in derived] == [((2,), True)]
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)


class TestDuplicateRecovery:
    def test_ends_levels_whose_keys_lie_below_a_free_entry(self):
        # x1 keys a level; (-1, 2) is proved at it, and y4 = 1 then lies
        # above the key. Recovery backs out of quantified entries only from
        # the top, so it ends that level by hand
        eng = make_engine([1, 2], f1=[(1, 3)], f2=[(-1, 4), (-1, 2)],
                          check_invariants=True)
        primary = start_proof(eng, (1, 3))
        proved, unit = eng.db.find_any((-1, 2)).id, eng.db.find_any((-1, 4)).id
        eng._apply(3, 0, None)
        out = eng._bcp_star(1, 1)  # applies the free unit y4 = 1 above x1
        assert [(e.var, e.reason) for e in eng.trail] == [(3, None), (1, primary.id), (4, unit)]
        assert out.target == proved
        assert eng._bcktr_dseq(out) is None  # (-1, 2) done at x1's level
        key = eng.trail[eng.pos[1]]
        assert eng.tlevels == [key] and list(key.done) == [proved]
        assert not eng.db.is_active(proved)
        eng._bcp()  # the new target's own unit reassigns y4 above the key
        assert eng.trail[-1].var == 4 and eng.tlevels == [key]
        record = eng._handle_duplicate()
        assert eng.tlevels == [] and eng.target == primary.id
        assert eng.trail[eng.pos[1]] is key and key.done is None
        assert eng.db.is_active(proved)
        live = eng.db.active_ids()
        idx = {cid: k for k, cid in enumerate(live)}
        assert record.target == primary.id
        assert verify_dsequent(
            [eng.db.clause(cid).lits for cid in live],
            eng.problem.x_vars,
            idx[record.target],
            record.cond(),
            [idx[cid] for cid in record.constraint],
        )

    @staticmethod
    def satred(seed, tmp_path, capsys):
        """``pqe gen satred --vars 12 --clauses 51 --seed <seed>``, parsed."""
        path = str(tmp_path / f"satred-{seed}.pqe")
        assert main(["gen", "satred", "--vars", "12", "--clauses", "51", "--seed", str(seed),
                     "-o", path]) == 0
        capsys.readouterr()
        with open(path, encoding="utf-8") as fh:
            return parse_pqe(fh.read())

    @staticmethod
    def recoveries(problem, monkeypatch):
        """Solve under the audits; the answer and the message of each
        ``InconsistentInputs`` the engine recovered from."""
        failed = []
        third = dsq.atomic_third_kind

        def watched(*args):
            try:
                return third(*args)
            except dsq.InconsistentInputs as err:
                failed.append(str(err))
                raise

        monkeypatch.setattr(dsq, "atomic_third_kind", watched)
        res = solve_pqe(problem, SolverConfig(check_invariants=True))
        assert res.stats["consistency_recoveries"] == len(failed)
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
        return res, failed

    def test_self_support_reaches_recovery(self, tmp_path, capsys, monkeypatch):
        # a blocked clause whose partner records cannot certify it: on this
        # instance both times because their merged constraint holds the
        # clause itself (self-support), each counted
        problem = self.satred(4, tmp_path, capsys)
        res, failed = self.recoveries(problem, monkeypatch)
        assert res.stats["duplicates"] == res.stats["sat_calls"] == 2
        assert len(failed) == 2 and all("inside its own constraint" in m for m in failed), failed

    def test_circuit_support_cycle_reaches_recovery(self, monkeypatch):
        # the perfbench circuit-cone instance of seed 1, case 231: both
        # times the partner records form a cycle with no application order
        with open(os.path.join(DATA, "cone-231.pqe"), encoding="utf-8") as fh:
            problem = parse_pqe(fh.read())
        res, failed = self.recoveries(problem, monkeypatch)
        assert res.stats["duplicates"] == res.stats["sat_calls"] == 2
        assert len(failed) == 2 and all("application order" in m for m in failed), failed
        assert len(res.f1_star) == 8

    def test_stored_resolvent_of_another_clause_reaches_recovery(self, tmp_path, capsys):
        # the last branch of _lrn_falsified: a falsified clause other than
        # the target whose conflict clause is already stored. No recovery
        # is counted, so no partner records failed, and the target is not
        # falsified, so the walk keeping free literals never ran
        problem = self.satred(38, tmp_path, capsys)
        entered = []

        class Watched(Engine):
            def _handle_duplicate(self):
                entered.append((self.db.is_falsified(self.target), set(self.db.falsified)))
                return super()._handle_duplicate()

        res = Watched(problem, SolverConfig(check_invariants=True)).solve()
        assert res.stats["duplicates"] == res.stats["sat_calls"] == 1
        assert res.stats["consistency_recoveries"] == 0
        [(target_falsified, falsified)] = entered
        assert not target_falsified and falsified
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)

    @pytest.mark.parametrize("source, recoveries", [("cone-231", 2), (4, 2), (38, 0)])
    def test_observer_leaves_recoveries_alone(self, source, recoveries, tmp_path, capsys):
        # _third_kind builds a live partner's atomic1 record only for an
        # observer: with one or without, the answer and every counter agree,
        # on two support cycles, self-support and a fallback of another kind
        if source == "cone-231":
            with open(os.path.join(DATA, "cone-231.pqe"), encoding="utf-8") as fh:
                problem = parse_pqe(fh.read())
        else:
            problem = self.satred(source, tmp_path, capsys)
        seen = []
        plain = solve_pqe(problem)
        observed = solve_pqe(problem, None, lambda ds, live: seen.append(ds))
        plain.stats.pop("wall_time_s")
        observed.stats.pop("wall_time_s")
        assert observed.f1_star == plain.f1_star
        assert observed.stats == plain.stats
        assert plain.stats["consistency_recoveries"] == recoveries
        assert len(seen) == plain.stats["dseq_generated"]
        assert sum(ds.rule == "atomic1" for ds in seen) == plain.stats["dseq_atomic1"]

    def test_satisfiable_shrink_drops_irrelevant_free_var(self):
        # (1, 4) makes y4 free, but no live clause needs y4 = 0 to hold:
        # the shrink drops it from the witness
        eng = make_engine([1], f1=[(3, 1)], f2=[(1,), (-1, -3), (1, 4)])
        target = start_proof(eng, (3, 1))
        eng._apply(3, 0, None)
        eng._apply(4, 0, None)
        out = eng._handle_duplicate()
        assert out.rule in ("sat-witness", "join")
        assert 4 not in out.cond()
        assert out.cond() == {3: 0}

    def test_unsat_subspace_adds_free_clause(self):
        eng = make_engine([1], f1=[(3, 1)], f2=[(-1,), (1, 3)])
        # live clauses: target (3 v x1), (-x1), (x1 v y)
        target = start_proof(eng, (3, 1))
        eng._apply(3, 0, None)
        out = eng._handle_duplicate()
        # under y=0 the formula is contradictory: (x1 v y) forces x1, (-x1) refutes
        assert isinstance(out, DSequent)
        added = [cid for cid in eng.f1_ids if cid > len(eng.problem.f1) + len(eng.problem.f2)]
        assert added and eng.db.clause(added[0]).lits == (3,)


class TestRegressionCorpus:
    """Instances that once drove the engine into a corner, kept pinned."""

    CASES = [
        # unit-chain target levels keyed by free variables (not allowed)
        ([1, 2, 3, 4], [(1, -4, -5), (4,), (-4, 5)], []),
        # free-variable-unit target that once forced the duplicate recovery
        ([1], [(-1,), (-1, 2)], [(-1, -2), (1, -2)]),
        # sibling branches once evicted each other's steering forever
        ([1, 2], [(-2,)], [(1,), (-2, -3, -4), (-2, 3, 4), (2, -3, -4), (1, 4), (-2, 3)]),
        # a learned record generalized off the current branch and stalled
        ([1], [(-1,), (-2, -3, -4), (1, -3)],
         [(1, -4), (-1, 3, -4), (1, 2, 3), (-1, 2, -3), (-1, 2, -4)]),
        # certificate construction once popped the satisfying assignments
        ([1, 2], [(1, 2), (-1, -2, 3)], [(-1, 3), (-1,), (1, -2, 3), (-1, -2), (-2, 3)]),
        # the primary served as a secondary target inside its own proof
        ([1, 2], [(1,)],
         [(1, -3, -5), (-3, -4, 6), (2, -4, 5), (-6,), (-1, 4, -5), (1, -4, -5), (3,), (3, -4, -6)]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_case(self, case):
        xs, f1, f2 = self.CASES[case]
        problem = EcnfProblem.make(xs, f1, f2)
        for k in (-1, 0, 2):
            res = solve_pqe(problem, SolverConfig(learn_depth_k=k, max_conflicts=10**6))
            assert verify_pqe_solution(
                problem.f1, problem.f2, problem.x_vars, res.f1_star
            ), (case, k)


class TestDeterminism:
    def test_same_seed_same_everything(self, rng):
        from pqe.harness import rand_problem

        for _ in range(10):
            problem = rand_problem(rng)
            r1 = solve_pqe(problem, SolverConfig())
            r2 = solve_pqe(problem, SolverConfig())
            assert r1.f1_star == r2.f1_star
            s1 = {k: v for k, v in r1.stats.items() if k != "wall_time_s"}
            s2 = {k: v for k, v in r2.stats.items() if k != "wall_time_s"}
            assert s1 == s2


class TestBudgets:
    def test_conflict_budget(self, rng):
        from tests.conftest import rand_x_problem

        hit = False
        for _ in range(50):
            problem = rand_x_problem(rng)
            try:
                solve_pqe(problem, SolverConfig(max_conflicts=0))
            except Exception as e:
                assert type(e).__name__ == "ResourceLimit"
                hit = True
                break
        assert hit


    def test_time_budget(self):
        from pqe.satcore import ResourceLimit

        circuit = harness.gen_circuit(1, 7, 45)
        values = harness.simulate(circuit, {v: 0 for v in circuit.inputs})
        inst = harness.circuit_to_pqe(circuit, {v: values[v] for v in circuit.outputs})
        with pytest.raises(ResourceLimit, match="time budget"):
            solve_pqe(inst.problem, SolverConfig(max_seconds=0))


class TestConfigValidation:
    @pytest.mark.parametrize("k", [-2, -7])
    def test_rejects_learn_depth_below_minus_1(self, k):
        with pytest.raises(ValueError, match="learn_depth_k"):
            SolverConfig(learn_depth_k=k)

    @pytest.mark.parametrize("seconds", [float("nan"), -5.0])
    def test_rejects_time_budget_nan_or_negative(self, seconds):
        with pytest.raises(ValueError, match="max_seconds"):
            SolverConfig(max_seconds=seconds)

    def test_rejects_negative_conflict_budget(self):
        with pytest.raises(ValueError, match="max_conflicts"):
            SolverConfig(max_conflicts=-1)
