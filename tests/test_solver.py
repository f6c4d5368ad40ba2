"""Scripted regressions for the proof engine, including the worked learning
scenarios and the target-stack walkthrough."""


import pytest

from pqe.dsequent import DSequent
from pqe.formula import EcnfProblem
from pqe.io import parse_pqe
from pqe.oracle import enumerate_qe, verify_pqe_solution
from pqe.solver import Engine, SolverConfig, solve_pqe

GOLDEN = "p pqe 3 1 2\ne 1 2 0\n-1 2 0\n3 1 0\n3 -2 0\n"


def make_engine(x_vars, y_vars, f1, f2, **cfg):
    problem = EcnfProblem.make(x_vars, y_vars, f1, f2)
    return Engine(problem, SolverConfig(**cfg))


def start_proof(engine, primary_lits):
    engine._reset_search()
    primary = engine.db.find_any(primary_lits)
    engine.primary = primary.id
    engine.target = primary.id
    return primary


class TestGolden:
    def test_end_to_end(self):
        problem = parse_pqe(GOLDEN)
        res = solve_pqe(problem, SolverConfig())
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
        want = enumerate_qe([(3,)], (), (3,))
        got = enumerate_qe(res.f1_star, (), (3,))
        assert want.rows == got.rows

    def test_learned_clause_reaches_first_block(self):
        problem = parse_pqe(GOLDEN)
        res = solve_pqe(problem, SolverConfig())
        assert res.f1_star == ((3,),)
        assert res.stats["clauses_added_f1"] == 1
        assert res.stats["conflicts"] == 1


class TestTrivialInstances:
    def test_empty_first_block(self):
        res = solve_pqe(EcnfProblem.make([1], [2], [], [(1, 2)]))
        assert res.f1_star == ()

    def test_free_only_first_block_passes_through(self):
        res = solve_pqe(EcnfProblem.make([1], [2, 3], [(2,), (-3, 2)], [(1, 2)]))
        assert res.f1_star == ((2,), (2, -3))

    def test_primary_blocked_immediately(self):
        # no resolution partner on x1 anywhere: removable outright
        problem = EcnfProblem.make([1], [2, 3], [(1, 2)], [(2, 3)])
        res = solve_pqe(problem)
        assert res.f1_star == ()
        assert res.stats["dseq_atomic3"] >= 1
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars)

    def test_empty_clause_in_second_block(self):
        problem = EcnfProblem.make([1], [2], [(1, 2)], [()])
        res = solve_pqe(problem)
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars)

    def test_empty_clause_in_first_block_is_the_answer(self):
        problem = EcnfProblem.make([1], [2], [(), (1,)], [])
        res = solve_pqe(problem)
        assert () in res.f1_star
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars)

    def test_free_unit_target(self):
        # target becomes unit on a free variable; recovery adds the free clause
        problem = EcnfProblem.make([1], [2], [(2, -1)], [(1,)])
        res = solve_pqe(problem)
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars)
        got = enumerate_qe(res.f1_star, (), (2,))
        want = enumerate_qe([(2,)], (), (2,))
        assert got.rows == want.rows


class TestLearnSatisfiedTarget:
    """Target satisfied through a propagated assignment."""

    def test_outcome(self):
        eng = make_engine([1, 2], [3], f1=[(1, 2)], f2=[(3, 1)])
        target = start_proof(eng, (1, 2))
        helper = eng.db.find_any((3, 1))
        eng._apply(3, 0, None, level_start=True)
        eng._apply(1, 1, helper.id, level_start=False)
        out = eng._round_condition()
        assert isinstance(out, DSequent)
        assert out.target == target.id
        assert out.cond() == {3: 0}
        assert out.constraint == {helper.id}


class TestLearnBlockedTarget:
    """Target blocked at its unassigned quantified variable."""

    def test_outcome(self):
        eng = make_engine([1, 2, 3], [4], f1=[(2, 3)], f2=[(4, 1), (1, -2)])
        target = start_proof(eng, (2, 3))
        c1 = eng.db.find_any((4, 1))
        eng._apply(4, 0, None, level_start=True)
        eng._apply(1, 1, c1.id, level_start=False)
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
            [5],
            f1=[target_lits],
            f2=[(5, -1, 2), (-1, 3), (-2, -3)],
        )
        return eng

    def test_chain_of_joins(self):
        eng = self.setup_engine((1, 4))
        target = start_proof(eng, (1, 4))
        c1 = eng.db.find_any((5, -1, 2))
        c2 = eng.db.find_any((-1, 3))
        c3 = eng.db.find_any((-2, -3))
        stored = DSequent.make(target.id, {5: 0, 1: 0}, (), "derived")
        eng._apply(5, 0, None, level_start=True)
        eng._apply(1, 1, stored, level_start=True)
        eng._apply(2, 1, c1.id, level_start=False)
        eng._apply(3, 1, c2.id, level_start=False)
        out = eng._lrn_falsified(c3.id)
        assert isinstance(out, DSequent)
        assert out.cond() == {5: 0}
        assert out.constraint == {c1.id, c2.id, c3.id}


class TestLearnFalsifiedTarget:
    """The falsified clause is the target: a helper clause is added too."""

    def test_record_and_clause(self):
        eng = make_engine([1, 2, 3], [5], f1=[(-2, -3)], f2=[(5, -1, 2), (-1, 3)])
        target = start_proof(eng, (-2, -3))
        c1 = eng.db.find_any((5, -1, 2))
        c2 = eng.db.find_any((-1, 3))
        stored = DSequent.make(target.id, {5: 0, 1: 0}, (), "derived")
        eng._apply(5, 0, None, level_start=True)
        eng._apply(1, 1, stored, level_start=True)
        eng._apply(2, 1, c1.id, level_start=False)
        eng._apply(3, 1, c2.id, level_start=False)
        out = eng._lrn_falsified(target.id)
        helper = eng.db.find_any((-1, 5))
        assert helper is not None
        assert helper.is_f1_side()
        assert isinstance(out, DSequent)
        assert out.cond() == {5: 0}
        assert out.constraint == {helper.id}


class TestLearnActivatedRecord:
    """A stored record becomes active; its conditional is rebuilt bottom-up."""

    def test_joins_through_reasons(self):
        eng = make_engine([1, 2, 4], [3], f1=[(4,)], f2=[(3, 1), (3, 2)])
        target = start_proof(eng, (4,))
        c1 = eng.db.find_any((3, 1))
        c2 = eng.db.find_any((3, 2))
        stored = DSequent.make(target.id, {1: 1, 2: 1}, (), "derived")
        eng._apply(3, 0, None, level_start=True)
        eng._apply(1, 1, c1.id, level_start=False)
        eng._apply(2, 1, c2.id, level_start=False)
        out = eng._rewrite(stored)
        assert out.cond() == {3: 0}
        assert out.constraint == {c1.id, c2.id}


class TestTargetStackWalkthrough:
    """Unit-chain target levels, special backtracking, and the popping cascade."""

    def build(self):
        eng = make_engine(
            [1, 2, 3, 4],
            [5],
            f1=[(5, 1)],
            f2=[(-1, 2), (-2, 3, 4), (-5, -3), (3, -4)],
        )
        ids = {lits: eng.db.find_any(lits).id for lits in
               [(5, 1), (-1, 2), (-2, 3, 4), (-5, -3), (3, -4)]}
        return eng, ids

    def test_stack_shape_and_blocked_condition(self):
        eng, ids = self.build()
        start_proof(eng, (5, 1))
        assert eng._bcp() is None
        eng._decide()
        out = eng._bcp()
        # two target levels, keyed by the unit chain, and the new target
        assert [(lv.key_clause, lv.key_var) for lv in eng.tlevels] == [
            (ids[(5, 1)], 1),
            (ids[(-1, 2)], 2),
        ]
        live_partners = [
            tuple(cid for cid in eng._partners(eng.db.clause(lv.key_clause), lv.key_var)
                  if eng.db.is_active(cid))
            for lv in eng.tlevels
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
        eng._bcp()
        eng._decide()
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
        assert [(e.var, e.val) for e in eng.trail] == [(5, 0)]
        assert eng.db.is_active(ids[(-1, 2)])

    def test_full_proof_and_final_flip(self):
        eng, ids = self.build()
        seen = []
        eng.on_dsequent = lambda ds, snap: seen.append(ds)
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
        eng = make_engine([1], [2, 3, 4, 5, 6, 7], f1=[(1, 2)],
                          f2=[(3, 4), (-4, 5), (3, 6), (-1, 7)])
        start_proof(eng, (1, 2))
        eng._apply(3, 0, None, level_start=True)
        assert eng._bcp() is None
        assert [(e.var, e.val, e.reason) for e in eng.trail] == [
            (3, 0, None), (4, 1, 2), (5, 1, 3), (6, 1, 4)
        ]

    def test_target_unit_applied_last(self):
        # x1=0 makes the target (1 2) unit on y2, and (1 3) unit; y3 then
        # makes (-3 4) unit: both others go before the target's own unit,
        # which steers the branch at a level of its own
        eng = make_engine([1], [2, 3, 4], f1=[(1, 2)], f2=[(1, 3), (-3, 4)])
        target = start_proof(eng, (1, 2))
        eng._apply(1, 0, None, level_start=True)
        out = eng._bcp()
        assert isinstance(out, DSequent) and out.cond() == {2: 1}
        assert [(e.var, e.val, e.reason, e.level) for e in eng.trail] == [
            (1, 0, None, 1), (3, 1, 2, 1), (4, 1, 3, 1), (2, 1, target.id, 2)
        ]


class TestStoredRecordPropagation:
    def test_unit_record_sets_pending_deactivation(self):
        # x5 is the next branch variable; the unit record flips its polarity
        eng = make_engine([5, 7], [6], f1=[(5, 7)], f2=[(6, 5, 7)])
        target = start_proof(eng, (5, 7))
        rec = DSequent.make(target.id, {6: 0, 5: 1}, (), "derived")
        eng.store.consider(rec, 0, eng.x_vars, eng.db)
        eng._apply(6, 0, None, level_start=True)
        assert eng._round_condition() is None
        assert eng._stored_record_check() is None
        assert eng._pending[:2] == (5, 0)
        assert eng.stats["deactivation_hints"] == 1

    def test_active_record_reported(self):
        eng = make_engine([1, 2, 5], [6], f1=[(1, 2)], f2=[(6, 5)])
        target = start_proof(eng, (1, 2))
        rec = DSequent.make(target.id, {6: 0}, (), "derived")
        eng.store.consider(rec, 0, eng.x_vars, eng.db)
        eng._apply(6, 0, None, level_start=True)
        out = eng._stored_record_check()
        assert isinstance(out, DSequent)
        assert out.cond() == {6: 0}
        assert eng.stats["dseq_reused"] == 1

    def test_record_skipped_when_support_inactive_though_satisfied(self):
        # a record applies only while its whole constraint is in the formula;
        # a support clause the trail satisfies does not stand in for it
        eng = make_engine([1, 4], [3], f1=[(1, 3)], f2=[(4, -3)])
        target = start_proof(eng, (1, 3))
        helper = eng.db.find_any((4, -3))
        rec = DSequent.make(target.id, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0, eng.x_vars, eng.db)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None, level_start=True)  # satisfies the helper via -3
        assert eng.db.is_satisfied(helper.id)
        assert eng._stored_record_check() is None
        assert eng.stats["dseq_reused"] == 0

    def test_unusable_record_skipped_when_support_gone(self):
        eng = make_engine([1], [2, 3], f1=[(1, 2)], f2=[(1, 3)])
        target = start_proof(eng, (1, 2))
        helper = eng.db.find_any((1, 3))
        rec = DSequent.make(target.id, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0, eng.x_vars, eng.db)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None, level_start=True)  # helper neither live nor satisfied
        assert eng._stored_record_check() is None
        assert eng.stats["dseq_reused"] == 0


class TestDecide:
    def test_free_vars_first(self):
        eng = make_engine([1, 2], [3, 4], f1=[(1, 3)], f2=[(2, 4)])
        start_proof(eng, (1, 3))
        eng._decide()
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (3, 0, None)

    def test_quantified_when_free_exhausted(self):
        eng = make_engine([1, 2], [3], f1=[(1, 3)], f2=[(2,)])
        start_proof(eng, (1, 3))
        eng._apply(3, 0, None, level_start=True)
        eng._decide()
        e = eng.trail[-1]
        assert (e.var, e.val, e.reason) == (1, 0, None)


class TestDuplicateRecovery:
    def test_free_unit_instance_uses_recovery(self):
        problem = EcnfProblem.make([1], [2], [(2, -1)], [(1,)])
        eng = Engine(problem, SolverConfig())
        res = eng.solve()
        assert eng.stats["duplicates"] >= 1
        assert eng.stats["sat_calls"] >= 1
        assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars)

    def test_satisfiable_shrink_drops_irrelevant_free_var(self):
        # model independent of the second free variable: it leaves the witness
        eng = make_engine([1], [3, 4], f1=[(3, 1)], f2=[(1,), (-1, -3)])
        target = start_proof(eng, (3, 1))
        eng._apply(3, 0, None, level_start=True)
        eng._apply(4, 0, None, level_start=True)
        out = eng._handle_duplicate()
        assert out.rule in ("sat-witness", "join")
        assert 4 not in out.cond()
        assert out.cond() == {3: 0}

    def test_unsat_subspace_adds_free_clause(self):
        eng = make_engine([1], [3], f1=[(3, 1)], f2=[(-1,), (1, -3, 3) if False else (1, 3)])
        # live clauses: target (3 v x1), (-x1), (x1 v y)
        target = start_proof(eng, (3, 1))
        eng._apply(3, 0, None, level_start=True)
        out = eng._handle_duplicate()
        # under y=0 the formula is contradictory: (x1 v y) forces x1, (-x1) refutes
        assert isinstance(out, DSequent)
        added = [cid for cid in eng.f1_ids if eng.db.clause(cid).origin == "derived-f1"]
        assert added and eng.db.clause(added[0]).lits == (3,)


class TestRegressionCorpus:
    """Instances that once drove the engine into a corner, kept pinned."""

    CASES = [
        # unit-chain target levels keyed by free variables (not allowed)
        ([1, 2, 3, 4], [5], [(1, -4, -5), (4,), (-4, 5)], []),
        # free-variable-unit target forcing the duplicate recovery
        ([1], [2], [(-1,), (-1, 2)], [(-1, -2), (1, -2)]),
        # sibling branches once evicted each other's steering forever
        ([1, 2], [3, 4], [(-2,)], [(1,), (-2, -3, -4), (-2, 3, 4), (2, -3, -4), (1, 4), (-2, 3)]),
        # a learned record generalized off the current branch and stalled
        ([1], [2, 3, 4], [(-1,), (-2, -3, -4), (1, -3)],
         [(1, -4), (-1, 3, -4), (1, 2, 3), (-1, 2, -3), (-1, 2, -4)]),
        # certificate construction once popped the satisfying assignments
        ([1, 2], [3], [(1, 2), (-1, -2, 3)], [(-1, 3), (-1,), (1, -2, 3), (-1, -2), (-2, 3)]),
        # the primary served as a secondary target inside its own proof
        ([1, 2], [3, 4, 5, 6], [(1,)],
         [(1, -3, -5), (-3, -4, 6), (2, -4, 5), (-6,), (-1, 4, -5), (1, -4, -5), (3,), (3, -4, -6)]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_case(self, case):
        xs, ys, f1, f2 = self.CASES[case]
        problem = EcnfProblem.make(xs, ys, f1, f2)
        for k in (-1, 0, 2):
            res = solve_pqe(problem, SolverConfig(learn_depth_k=k, max_conflicts=10**6))
            assert verify_pqe_solution(
                problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars
            ), (case, k)


class TestDeterminism:
    def test_same_seed_same_everything(self, rng):
        from tests.conftest import rand_problem

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
        from tests.conftest import rand_problem

        hit = False
        for _ in range(50):
            problem = rand_problem(rng, max_clauses=14, require_x_target=True)
            try:
                solve_pqe(problem, SolverConfig(max_conflicts=0))
            except Exception as e:
                assert type(e).__name__ == "ResourceLimit"
                hit = True
                break
        assert hit


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
