"""Randomized semantic properties of the engine, checked against the oracle."""

import random

import pytest

from pqe import harness
from pqe.dsequent import DSequent, trace_line
from pqe.formula import ClauseDb, EcnfProblem
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
            assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star), problem

    def test_learning_depths_all_sound(self):
        rng = random.Random(77)
        for k in (-1, 0, 1, 2):
            for _ in range(40):
                problem = rand_problem(rng, require_x_target=True)
                res = solve_pqe(problem, SolverConfig(learn_depth_k=k, max_seconds=10))
                assert verify_pqe_solution(
                    problem.f1, problem.f2, problem.x_vars, res.f1_star
                ), (k, problem)


class TestDerivedClausesImplied:
    def test_every_added_clause_follows_from_the_input(self):
        # the search adds the clauses past the problem's ids 1..n. One on
        # the F2 side is a resolvent of F2 clauses alone, so F2 implies it;
        # one on the F1 side (a resolvent using F1, or the negated core of a
        # SAT call) follows from F1 and F2
        rng = random.Random(6060)
        checked = {False: 0, True: 0}  # by f1_side
        for _ in range(300):
            problem = rand_problem(rng, require_x_target=True)
            n = len(problem.f1) + len(problem.f2)
            premises = {False: list(problem.f2), True: list(problem.f1 + problem.f2)}
            for check in (False, True):
                eng = Engine(problem, SolverConfig(max_seconds=10, check_invariants=check))
                eng.solve()
                for cid in eng.db.all_ids()[n:]:
                    clause = eng.db.clause(cid)
                    negated = [(-l,) for l in clause.lits]
                    assert not cnf_satisfiable(premises[clause.f1_side] + negated), (problem, clause)
                    checked[clause.f1_side] += 1
        assert checked[False] > 40 and checked[True] > 100, checked


class TestCircuitsCloseBySearch:
    def test_free_variable_walks_are_sound(self, monkeypatch):
        # small circuits reach the walk that keeps free literals; under the
        # audits every answer is right, every derived clause follows from
        # F1 and F2, and no proof needs the SAT fallback
        walks = []
        walk = Engine._conflict_walk

        def counted(self, cid, keep_free=False):
            walks.append(keep_free)
            return walk(self, cid, keep_free)

        monkeypatch.setattr(Engine, "_conflict_walk", counted)
        rng = random.Random(5)
        for seed in range(30):
            circuit = harness.gen_circuit(seed, 4, 10)
            x = {v: rng.randrange(2) for v in circuit.inputs}
            z = {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}
            problem = harness.circuit_to_pqe(circuit, z).problem
            eng = Engine(problem, SolverConfig(check_invariants=True))
            res = eng.solve()
            assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star), seed
            assert res.stats["duplicates"] == 0, seed
            premises = list(problem.f1 + problem.f2)
            for cid in eng.db.all_ids()[len(premises):]:  # the clauses the search added
                clause = eng.db.clause(cid)
                negated = [(-l,) for l in clause.lits]
                assert not cnf_satisfiable(premises + negated), (seed, clause)
        assert walks.count(True) > 30


class TestPrimaries:
    @pytest.mark.parametrize("learn_k", [-1, 0, 2])
    def test_derived_f1_clauses_become_primaries(self, learn_k):
        # every F1 clause with a quantified literal, derived ones included,
        # is proved and removed once
        rng = random.Random(31)
        problems = [rand_problem(rng, require_x_target=True) for _ in range(100)]
        derived = 0
        for problem in problems + benchmark_family_instances():
            eng = Engine(problem, SolverConfig(learn_depth_k=learn_k, check_invariants=True))
            res = eng.solve()
            primaries = {
                cid for cid in eng.f1_ids if problem.is_x_clause(eng.db.clause(cid).lits)
            }
            assert not any(eng.db.is_active(cid) for cid in primaries), problem
            assert eng.db._removed == primaries, problem
            assert res.stats["primaries_proved"] == len(primaries), problem
            derived += sum(cid > len(problem.f1) + len(problem.f2) for cid in primaries)
        assert derived > 10


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
                on_dsequent=lambda ds, live: records.append((ds, live())),
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
            assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
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
            lines = []

            def show(ds, live):
                lines.append(trace_line(ds))
                live()

            plain = solve_pqe(problem, config)
            observed = solve_pqe(problem, config, show)
            assert plain.f1_star == observed.f1_star
            assert counters(plain) == counters(observed)
            assert len(lines) == plain.stats["dseq_generated"]

    def test_live_formula_is_built_only_when_read(self, monkeypatch):
        calls = [0]
        active_ids = ClauseDb.active_ids

        def counted(db):
            calls[0] += 1
            return active_ids(db)

        monkeypatch.setattr(ClauseDb, "active_ids", counted)

        def active_ids_calls(problem, on_dsequent=None):
            calls[0] = 0
            res = solve_pqe(problem, None, on_dsequent)
            return calls[0], res.stats["dseq_generated"]

        for problem in benchmark_family_instances():
            plain, generated = active_ids_calls(problem)
            assert active_ids_calls(problem, lambda ds, live: None)[0] == plain
            read = active_ids_calls(problem, lambda ds, live: live())[0]
            assert read == plain + generated > plain

    def test_audit_catches_stale_propagation_state(self):
        problem = rand_problem(random.Random(1), require_x_target=True)
        eng = Engine(problem, SolverConfig(check_invariants=True))
        cid = eng.db.active_ids()[0]
        eng.db.units.symmetric_difference_update({cid})  # corrupt the unit set
        with pytest.raises(AssertionError):
            eng.solve()

    def test_audit_catches_stale_free_literal(self):
        eng = Engine(EcnfProblem.make([1], [(1, 2)], [(-1, 3)]),
                     SolverConfig(check_invariants=True))
        eng._apply(2, 0, None)  # (1 2) is unit on 1
        (cid,) = eng.db.units
        assert eng.db.free_literal(cid) == 1
        eng._audit_trail()
        eng.db._open_sum[cid] += 1  # corrupt the clause's literal sum
        with pytest.raises(AssertionError):
            eng._audit_trail()

    def test_audit_checks_the_level_rule(self):
        # along the trail levels never fall and rise by at most one per
        # entry, and a decision or a record's flip is one level above the
        # entry before it
        eng = Engine(EcnfProblem.make([1], [(1, 2, 3)], [(-1, 2)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        assert isinstance(eng._bcp(), DSequent)
        assert [(e.reason, e.level) for e in eng.trail] == [(None, 1), (2, 1), (eng.target, 2)]
        eng._audit_trail()
        for i, bad, match in ((1, 0, "off its level"), (2, 3, "off its level"),
                              (0, 0, "steers but does not start its level")):
            entry = eng.trail[i]
            good, entry.level = entry.level, bad
            with pytest.raises(AssertionError, match=match):
                eng._audit_trail()
            entry.level = good
        eng._audit_trail()
        # a decision at its predecessor's level
        top = eng.trail[-1]
        eng._pop_suffix(2)
        eng._apply(top.var, top.val, None)
        assert [e.level for e in eng.trail] == [1, 1, 2]
        eng.trail[-1].level = 1
        with pytest.raises(AssertionError, match="steers but does not start its level"):
            eng._audit_trail()

    def test_rewrite_audit_catches_reason_clause_not_false_below(self):
        # _rewrite joins a clause reason untested: BCP made its other
        # literals false below its entry
        eng = Engine(EcnfProblem.make([1, 2], [(1, 3)], [(-1, 2), (-2, 3)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        reason = eng.db.find_any((-1, 2)).id
        record = DSequent.make(eng.target, {1: 0}, (), "derived")
        eng._apply(2, 0, None)
        eng._apply(1, 0, reason)
        joined = eng._rewrite(record)
        assert joined.cond() == {2: 0} and joined.constraint == {reason}
        eng._pop_suffix(0)
        eng._apply(1, 0, reason)  # 2 is not false below it
        with pytest.raises(AssertionError, match="not false below"):
            eng._rewrite(record)

    def test_rewrite_audit_catches_record_reason_without_flip(self):
        # a record-derived assignment is the flip of its record's conditional
        eng = Engine(EcnfProblem.make([1, 2], [(1, 3)], [(-1, 2), (-2, 3)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        record = DSequent.make(eng.target, {1: 0}, (), "derived")
        eng._apply(1, 0, DSequent.make(eng.target, {1: 1}, (), "derived"))
        assert eng._rewrite(record).conditional == ()
        eng._pop_suffix(0)
        eng._apply(1, 0, record)  # a record asks for its own value
        with pytest.raises(AssertionError, match="does not flip"):
            eng._rewrite(record)

    def test_free_walk_audit_catches_resolvent_not_false(self, monkeypatch):
        # the walk keeping free literals must end in a clause the free
        # assignment falsifies, or the record resting on it is unfounded
        eng = Engine(EcnfProblem.make([1], [(-1, 4)], [(3, 1)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        eng._apply(3, 0, None)
        eng._apply(1, 1, eng.db.find_any((1, 3)).id)
        eng._apply(4, 0, DSequent.make(eng.target, {4: 1}, (), "derived"))
        walk = Engine._conflict_walk

        def wrong(self, cid, keep_free=False):
            return ((3, -4), True, False) if keep_free else walk(self, cid)

        monkeypatch.setattr(Engine, "_conflict_walk", wrong)
        with pytest.raises(AssertionError, match="not false"):
            eng._lrn_falsified(eng.target)

    def test_pop_suffix_ends_levels_with_their_keys(self):
        eng = Engine(EcnfProblem.make([1, 2], [(1, 3)], [(-1, 2), (-2, 3)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        eng._apply(1, 0, None)
        eng._push_tlevel()
        eng._apply(2, 0, None)
        eng._push_tlevel()
        key2 = eng.trail[-1]
        proved = max(eng.db.all_ids())
        key2.done[proved] = None
        eng.db.deactivate(proved)
        eng._pop_suffix(eng.pos[2] + 1)  # keeps key 2: both levels live
        assert [key.var for key in eng.tlevels] == [1, 2]
        eng._pop_suffix(eng.pos[2])  # unassigns key 2: its level ends
        assert [key.var for key in eng.tlevels] == [1]
        assert key2.done is None  # its mark goes with it
        assert eng.db.is_active(proved)  # restored with its level
        eng._pop_suffix(0)
        assert eng.tlevels == []

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
        problem = EcnfProblem.make([1], [(1, 2)], [(-1, 3), (-1, 4)])
        eng = Engine(problem, SolverConfig(check_invariants=True))
        target = min(eng.f1_ids)
        assert list(eng.db.partners(target, 1)) == [2, 3]
        eng.db.audit_partners()
        eng.db.partners(target, 1).pop()  # lose partner 3 from the index
        with pytest.raises(AssertionError, match="partner list"):
            eng.solve()

    def test_audit_catches_corrupt_true_count(self):
        problem = EcnfProblem.make([1], [(1, 2)], [(-1, 3)])
        eng = Engine(problem, SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        assert eng._blocked_var() is None  # (-1 3) is a live unsatisfied partner
        eng.db._true[2] = 1  # the partner now reads as satisfied
        with pytest.raises(AssertionError, match="blocked test"):
            eng._blocked_var()

    # two primaries: the first is removed, and the second proof starts from
    # the reset counts
    TWO_PRIMARIES = EcnfProblem.make([1], [(1, 2), (1, 3)], [(-1, 4), (-2, -3)])

    def test_audit_catches_remove_leaving_a_count_list(self, monkeypatch):
        remove = ClauseDb.remove

        def leaky(db, cid):
            remove(db, cid)
            first = db.clause(cid).lits[0]
            db._occ[first].append(cid)  # the first literal's list keeps it

        monkeypatch.setattr(ClauseDb, "remove", leaky)
        with pytest.raises(AssertionError, match="occurrence list"):
            solve_pqe(self.TWO_PRIMARIES, SolverConfig(check_invariants=True))

    # a partner list built by the first proof holds the first primary, and
    # the second proof audits the index
    PRIMARY_IN_A_PARTNER_LIST = EcnfProblem.make([1, 2], [(2,), (1, 3)], [(-1, 2), (-1, -2)])

    def test_audit_catches_remove_leaving_a_partner_list(self, monkeypatch):
        remove = ClauseDb.remove

        def leaky(db, cid):
            kept = [(key, list(ids)) for key, ids in db._partner_ids.items() if cid in ids]
            remove(db, cid)
            for key, ids in kept[:1]:  # one built list keeps it
                db._partner_ids[key][:] = ids

        monkeypatch.setattr(ClauseDb, "remove", leaky)
        with pytest.raises(AssertionError, match="partner list"):
            solve_pqe(self.PRIMARY_IN_A_PARTNER_LIST, SolverConfig(check_invariants=True))

    # the search derives a clause that belongs in a partner list built before
    DERIVES = EcnfProblem.make([1], [(1,)], [(2, -3), (-1, 2, 3)])

    def test_audit_catches_add_skipping_built_partner_lists(self, monkeypatch):
        add = ClauseDb.add

        def forgetful(db, key, f1_side):
            built, db._partner_ids = db._partner_ids, {}  # no built list is extended
            clause = add(db, key, f1_side)
            db._partner_ids = built
            return clause

        monkeypatch.setattr(ClauseDb, "add", forgetful)
        with pytest.raises(AssertionError, match="partner list"):
            solve_pqe(self.DERIVES, SolverConfig(check_invariants=True))

    def test_audit_catches_reset_forgetting_open_sums(self, monkeypatch):
        reset = ClauseDb.reset

        def forgetful(db):
            sums = db._open_sum.copy()
            reset(db)
            db._open_sum[:] = sums  # the sums stay as the trail left them

        monkeypatch.setattr(ClauseDb, "reset", forgetful)
        with pytest.raises(AssertionError, match="counts of clause"):
            solve_pqe(self.TWO_PRIMARIES, SolverConfig(check_invariants=True))

    def test_audit_catches_k0_record_on_inactive_clause(self):
        # at k = 0 a record the engine consults never rests on an inactive clause
        eng = Engine(EcnfProblem.make([1, 4], [(1, 3)], [(4, -3)]),
                     SolverConfig(check_invariants=True))
        eng.primary = eng.target = min(eng.f1_ids)
        helper = eng.db.find_any((-3, 4))
        rec = DSequent.make(eng.target, {3: 0}, {helper.id}, "derived")
        eng.store.consider(rec, 0)
        eng._apply(3, 0, None)
        assert eng._branch() is rec
        eng._pop_suffix(0)
        eng.db.deactivate(helper.id)
        eng._apply(3, 0, None)
        with pytest.raises(AssertionError, match="DSequent"):
            eng._branch()

    def test_termination_without_budget(self):
        rng = random.Random(404)
        for _ in range(200):
            problem = rand_problem(rng, max_x=5, max_y=4, max_clauses=14)
            res = solve_pqe(problem, SolverConfig(max_conflicts=10**6))
            assert res is not None


class TestSatReductionAgreement:
    def test_matches_brute_force(self):
        from tests.conftest import pqe_sat_verdict, rand_cnf

        rng = random.Random(6)
        for _ in range(30):
            nv = rng.randint(2, 8)
            clauses = rand_cnf(rng, nv, rng.randint(3, 22))
            x = {v: rng.randrange(2) for v in range(1, nv + 1)}
            assert pqe_sat_verdict(clauses, x) == cnf_satisfiable(clauses)
