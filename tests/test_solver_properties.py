"""Randomized semantic properties of the engine, checked against the oracle."""

import itertools
import random

import pytest

from pqe import harness
from pqe.dsequent import DSequent
from pqe.formula import EcnfProblem, clause_satisfied
from pqe.oracle import cnf_satisfiable, verify_dsequent, verify_pqe_solution
from pqe.solver import Engine, SolverConfig, solve_pqe
from tests.conftest import rand_cnf, rand_problem


def benchmark_family_instances():
    """Small SAT-reduction and circuit instances, as the bench builds them."""
    rng = random.Random(4242)
    instances = []
    for _ in range(6):
        clauses = rand_cnf(rng, 7, rng.randint(14, 30))
        x = {v: rng.randrange(2) for v in range(1, 8)}
        instances.append(harness.sat_reduction_instance(clauses, x).problem)
    for seed in range(4):
        circuit = harness.gen_circuit(seed, 4, 14)
        x = {v: rng.randrange(2) for v in circuit.inputs}
        z = {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}
        instances.append(harness.circuit_to_pqe(circuit, z).problem)
    return instances


def counters(result):
    return {k: v for k, v in result.stats.items() if k != "wall_time_s"}


class TestSoundness:
    def test_solutions_verified_by_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            problem = rand_problem(rng)
            res = solve_pqe(problem, SolverConfig(max_conflicts=100000, max_seconds=10))
            assert verify_pqe_solution(
                problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars
            ), problem

    def test_learning_depths_all_sound(self):
        rng = random.Random(77)
        for k in (-1, 0, 1, 2):
            for _ in range(40):
                problem = rand_problem(rng, require_x_target=True)
                res = solve_pqe(problem, SolverConfig(learn_depth_k=k, max_seconds=10))
                assert verify_pqe_solution(
                    problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars
                ), (k, problem)


class TestDerivedClausesImplied:
    def test_every_added_clause_follows_from_the_input(self):
        rng = random.Random(5150)
        for _ in range(60):
            problem = rand_problem(rng, max_x=4, max_y=3, max_clauses=10, require_x_target=True)
            eng = Engine(problem, SolverConfig(max_seconds=10))
            eng.solve()
            initial = list(problem.f1) + list(problem.f2)
            all_vars = sorted({abs(l) for c in initial for l in c} | set(problem.all_vars()))
            derived = [
                eng.db.clause(cid).lits
                for cid in eng.db.all_ids()
                if eng.db.clause(cid).origin.startswith("derived")
            ]
            for lits in derived:
                for bits in itertools.product((0, 1), repeat=len(all_vars)):
                    asg = dict(zip(all_vars, bits))
                    if all(clause_satisfied(c, asg) for c in initial):
                        assert clause_satisfied(lits, asg) or not lits, (problem, lits)


class TestEmittedRecordsValid:
    def test_records_pass_member_formula_check(self):
        rng = random.Random(31337)
        checked = 0
        for _ in range(60):
            problem = rand_problem(rng, max_x=4, max_y=3, max_clauses=8, require_x_target=True)
            records = []
            solve_pqe(
                problem,
                SolverConfig(max_seconds=10),
                on_dsequent=lambda ds, snap: records.append((ds, snap)),
            )
            for ds, snap in records:
                ids = [cid for cid, _ in snap]
                lits = [l for _, l in snap]
                idx = {cid: i for i, cid in enumerate(ids)}
                assert ds.target in idx and all(c in idx for c in ds.constraint)
                ok = verify_dsequent(
                    lits,
                    problem.x_vars,
                    idx[ds.target],
                    ds.cond(),
                    [idx[c] for c in ds.constraint],
                    problem.y_vars,
                    subset_cap=16,
                )
                assert ok, (problem, ds, lits)
                checked += 1
        assert checked > 200


class TestSearchDiscipline:
    def test_trail_and_stack_invariants(self):
        # check_invariants audits the trail after every assignment change,
        # and the target stack and propagation state at every round
        rng = random.Random(9090)
        for _ in range(40):
            problem = rand_problem(rng, require_x_target=True)
            eng = Engine(problem, SolverConfig(max_seconds=10, check_invariants=True))
            res = eng.solve()
            assert verify_pqe_solution(
                problem.f1, problem.f2, problem.x_vars, res.f1_star, problem.y_vars
            )
            # after each proof the stack must have fully unwound
            assert eng.tlevels == []

    @pytest.mark.parametrize(
        "config",
        [
            SolverConfig(learn_depth_k=-1, check_invariants=True),
            SolverConfig(learn_depth_k=0, check_invariants=True),
        ],
        ids=["no-learn", "learn-k0"],
    )
    def test_invariants_on_benchmark_families(self, config):
        for problem in benchmark_family_instances():
            eng = Engine(problem, config)
            res = eng.solve()
            plain = solve_pqe(problem, SolverConfig(learn_depth_k=config.learn_depth_k))
            # auditing observes the search, it never changes it
            assert res.f1_star == plain.f1_star
            assert counters(res) == counters(plain)
            assert eng.tlevels == []

    @pytest.mark.parametrize("learn_k", [-1, 0, 2])
    def test_observers_do_not_change_the_search(self, learn_k):
        # records along a rewrite are built only for an observer; with or
        # without one the search, its answers and its counters are the same
        config = SolverConfig(learn_depth_k=learn_k)
        for problem in benchmark_family_instances():
            lines, records = [], []
            plain = solve_pqe(problem, config)
            traced = solve_pqe(problem, config, trace=lines.append)
            observed = solve_pqe(problem, config, on_dsequent=lambda ds, _: records.append(ds))
            assert plain.f1_star == traced.f1_star == observed.f1_star
            assert counters(plain) == counters(traced) == counters(observed)
            assert len(lines) == len(records) == plain.stats["dseq_generated"]

    def test_audit_catches_stale_propagation_state(self):
        problem = rand_problem(random.Random(1), require_x_target=True)
        eng = Engine(problem, SolverConfig(check_invariants=True))
        cid = eng.db.active_ids()[0]
        eng.db.units.symmetric_difference_update({cid})  # corrupt the unit set
        with pytest.raises(AssertionError):
            eng.solve()

    def test_audit_catches_stale_free_literal(self):
        eng = Engine(EcnfProblem.make([1], [2, 3], [(1, 2)], [(-1, 3)]),
                     SolverConfig(check_invariants=True))
        eng._apply(2, 0, None, level_start=True)  # (1 2) is unit on 1
        (cid,) = eng.db.units
        assert eng.db.free_literal(cid) == 1
        eng._audit_trail()
        eng.db._open_sum[cid] += 1  # corrupt the clause's literal sum
        with pytest.raises(AssertionError):
            eng._audit_trail()

    def test_audit_catches_assigned_pending_variable(self):
        problem = rand_problem(random.Random(1), require_x_target=True)
        eng = Engine(problem, SolverConfig(check_invariants=True))
        var = min(problem.x_vars)
        eng._apply(var, 0, None, level_start=True)
        eng._audit_stack()
        eng._pending = (var, 1, None)
        with pytest.raises(AssertionError):
            eng._audit_stack()

    def test_audit_catches_secondary_target_without_level(self):
        # with no target level on the stack the primary is the target
        problem = rand_problem(random.Random(1), require_x_target=True)
        eng = Engine(problem, SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        eng._audit_stack()
        eng.target = max(eng.db.all_ids())
        assert eng.target != eng.primary and not eng.tlevels
        with pytest.raises(AssertionError):
            eng._audit_stack()

    def test_audit_catches_dropped_partner(self):
        problem = EcnfProblem.make([1], [2, 3, 4], [(1, 2)], [(-1, 3), (-1, 4)])
        eng = Engine(problem, SolverConfig(check_invariants=True))
        target = min(eng.f1_ids)
        assert list(eng.db.partners(target, 1)) == [2, 3]
        eng.db.audit_partners()
        eng.db.partners(target, 1).pop()  # lose partner 3 from the index
        with pytest.raises(AssertionError, match="partner list"):
            eng.solve()

    def test_audit_catches_corrupt_true_count(self):
        problem = EcnfProblem.make([1], [2, 3], [(1, 2)], [(-1, 3)])
        eng = Engine(problem, SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        assert eng._blocked_var() is None  # (-1 3) is a live unsatisfied partner
        eng.db._true[2] = 1  # the partner now reads as satisfied
        with pytest.raises(AssertionError, match="blocked test"):
            eng._blocked_var()

    def test_audit_catches_k0_record_on_inactive_clause(self):
        # at k = 0 a record the engine consults never rests on an inactive clause
        eng = Engine(EcnfProblem.make([1, 4], [3], [(1, 3)], [(4, -3)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        helper = eng.db.find_any((4, -3))
        rec = DSequent.make(eng.target, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0, eng.x_vars, eng.db)
        eng._apply(3, 0, None, level_start=True)
        assert eng._stored_record_check() is rec
        eng._pop_suffix(0)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None, level_start=True)
        with pytest.raises(AssertionError, match="DSequent"):
            eng._stored_record_check()

    def test_termination_without_budget(self):
        rng = random.Random(404)
        for _ in range(200):
            problem = rand_problem(rng, max_x=5, max_y=4, max_clauses=14)
            res = solve_pqe(problem, SolverConfig(max_conflicts=10**6))
            assert res is not None


class TestSatReductionAgreement:
    def test_matches_brute_force(self):
        from pqe.harness import pqe_sat_verdict
        from tests.conftest import rand_cnf

        rng = random.Random(6)
        for _ in range(30):
            nv = rng.randint(2, 8)
            clauses = rand_cnf(rng, nv, rng.randint(3, 22))
            x = {v: rng.randrange(2) for v in range(1, nv + 1)}
            assert pqe_sat_verdict(clauses, x) == cnf_satisfiable(clauses)
