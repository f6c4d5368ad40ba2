"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value here is either computed by the brute-force
oracle inside the test or asserted through it.
"""

import itertools
import os
import random
import time

import pytest

from pqe import harness
from pqe.dsequent import (
    DSequent,
    InconsistentInputs,
    InvalidRule,
    atomic_first_kind,
    check_consistency,
    falsified_clause_dsequent,
    join,
    substitute,
)
from pqe.formula import Clause, ClauseDb, EcnfProblem, PqeError, canonical_lits
from pqe.io import parse_pqe, write_solution
from pqe.oracle import enumerate_qe, verify_dsequent, verify_pqe_solution
from pqe.satcore import sat_solve
from pqe.solver import SolverConfig, solve_pqe
from tests.conftest import pqe_sat_verdict

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(HERE, "benchmarks", "golden_basic.pqe")


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_golden_instance():
    """Shipped two-quantified-one-free instance solves to the free unit clause."""
    t0 = time.monotonic()
    with open(GOLDEN_PATH) as fh:
        problem = parse_pqe(fh.read())
    res = solve_pqe(problem, SolverConfig())
    assert verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, res.f1_star)
    want = enumerate_qe([(3,)], ())
    got = enumerate_qe(res.f1_star, ())
    assert want == got
    assert time.monotonic() - t0 < 1.0
    report("golden-instance")


def _acceptance_instance(rng):
    nx = rng.randint(1, 8)
    ny = rng.randint(0, 6)
    xs = list(range(1, nx + 1))
    ys = list(range(nx + 1, nx + ny + 1))
    allv = xs + ys

    def block(max_n):
        out = []
        for _ in range(rng.randint(0, max_n)):
            width = rng.randint(1, min(3, len(allv)))
            vs = rng.sample(allv, width)
            out.append(tuple(v if rng.randrange(2) else -v for v in vs))
        return out

    return EcnfProblem.make(xs, block(6), block(20))


def test_oracle_equivalence_500():
    """500 pseudorandom instances, every answer certified by enumeration."""
    rng = random.Random(20260808)
    suite_start = time.monotonic()
    for i in range(500):
        problem = _acceptance_instance(rng)
        t0 = time.monotonic()
        res = solve_pqe(problem, SolverConfig(max_conflicts=10**6))
        assert verify_pqe_solution(
            problem.f1, problem.f2, problem.x_vars, res.f1_star
        ), (i, problem)
        assert time.monotonic() - t0 < 1.0, f"instance {i} too slow"
    assert time.monotonic() - suite_start < 300
    report("oracle-equivalence-500 (100%)")


def test_dsequent_validity_on_traces():
    """Every record emitted in trace mode holds at its emission state."""
    rng = random.Random(97)
    instances = checked = 0
    while instances < 100:
        nx, ny = rng.randint(1, 4), rng.randint(0, 3)
        xs = list(range(1, nx + 1))
        ys = list(range(nx + 1, nx + ny + 1))
        allv = xs + ys
        clauses = []
        for _ in range(rng.randint(2, 12)):
            vs = rng.sample(allv, rng.randint(1, min(3, len(allv))))
            clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
        cut = rng.randint(1, min(3, len(clauses)))
        problem = EcnfProblem.make(xs, clauses[:cut], clauses[cut:])
        if not any(problem.is_x_clause(c) for c in problem.f1):
            continue
        instances += 1
        records = []
        solve_pqe(
            problem,
            SolverConfig(max_conflicts=10**6),
            on_dsequent=lambda ds, live: records.append((ds, live())),
        )
        for ds, snap in records:
            ids = [cid for cid, _ in snap]
            lits = [l for _, l in snap]
            idx = {cid: k for k, cid in enumerate(ids)}
            assert ds.target in idx and all(c in idx for c in ds.constraint), ds
            assert verify_dsequent(
                lits,
                problem.x_vars,
                idx[ds.target],
                ds.cond(),
                [idx[c] for c in ds.constraint],
                subset_cap=16,
            ), (problem, ds, lits)
            checked += 1
    assert checked >= 100
    report(f"dsequent-validity-traces ({checked} records, 100%)")


class _CalculusArena:
    """A small instance plus machinery to derive and verify records on it."""

    def __init__(self, rng):
        nx, ny = rng.randint(2, 3), rng.randint(1, 3)
        self.xs = list(range(1, nx + 1))
        allv = self.xs + list(range(nx + 1, nx + ny + 1))
        self.db = ClauseDb()
        self.clauses = []
        seen = set()
        for _ in range(rng.randint(4, 6)):
            vs = rng.sample(allv, rng.randint(1, min(3, len(allv))))
            try:
                lits = canonical_lits(tuple(v if rng.randrange(2) else -v for v in vs))
            except PqeError:
                continue
            if lits in seen:
                continue
            seen.add(lits)
            self.clauses.append(lits)
            self.db.add(lits, False)
        self.x_set = set(self.xs)

    def clause(self, idx):
        return self.db.clause(idx + 1)

    def x_targets(self):
        return [i for i, c in enumerate(self.clauses) if any(abs(l) in self.x_set for l in c)]

    def verify(self, ds):
        return verify_dsequent(
            self.clauses,
            self.xs,
            ds.target - 1,
            ds.cond(),
            [c - 1 for c in ds.constraint],
            subset_cap=8,
        )

    def seed_pool(self, rng):
        pool = []
        for i in self.x_targets():
            c = self.clause(i)
            for l in c.lits:
                pool.append(atomic_first_kind(c, abs(l), 1 if l > 0 else 0))
            for j in range(len(self.clauses)):
                if j != i:
                    pool.append(falsified_clause_dsequent(c, self.clause(j)))
        rng.shuffle(pool)
        return pool


def test_calculus_closure_1000_each():
    """Randomized closure: combining valid records only yields valid records."""
    rng = random.Random(606)
    quotas = {"join": 0, "substitute": 0}
    goal = 1000
    validated = {}

    def check(arena, ds, tag):
        key = (id(arena), ds.target, ds.conditional, ds.constraint)
        if key not in validated:
            validated[key] = arena.verify(ds)
        assert validated[key], (tag, ds, arena.clauses)

    while min(quotas.values()) < goal:
        arena = _CalculusArena(rng)
        if not arena.x_targets():
            continue
        pool = arena.seed_pool(rng)
        for ds in pool:
            check(arena, ds, "parent")
        by_target = {}
        for ds in pool:
            by_target.setdefault(ds.target, []).append(ds)
        # join: branch-merge pairs for one target
        for records in by_target.values():
            for a, b in itertools.combinations(records, 2):
                if quotas["join"] >= goal:
                    break
                qa, qb = a.cond(), b.cond()
                v = None
                clash = [w for w, x in qa.items() if qb.get(w, x) != x]
                if len(clash) == 1:
                    v = clash[0]
                if v is None:
                    continue
                out = join(a, b, v)
                check(arena, out, "join")
                quotas["join"] += 1
                by_target[out.target].append(out)
        # substitute: replace one constraint clause by its record's support
        for records in list(by_target.values()):
            for s1 in records:
                for cid in sorted(s1.constraint):
                    for s2 in by_target.get(cid, []):
                        if quotas["substitute"] >= goal:
                            break
                        try:  # s2's target is in s1's constraint, so the targets differ
                            check_consistency([s1, s2])
                        except InvalidRule:  # a clash or a cycle
                            continue
                        out = substitute(s1, s2)
                        check(arena, out, "substitute")
                        quotas["substitute"] += 1
    report(f"calculus-closure ({quotas}, 100%)")


def test_consistency_checker_against_brute_force():
    """Graph formulation agrees with factorial order search; the duplicate
    pair is reported inconsistent with a two-cycle witness."""
    from tests.test_dsequent import brute_force_consistency_clean, ds

    rng = random.Random(1234)
    agree = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        targets = rng.sample(range(1, 12), k)
        dseqs = []
        for t in targets:
            h = set(rng.sample(range(1, 12), rng.randint(0, 4))) - {t}
            q = {v: rng.randrange(2) for v in rng.sample(range(20, 24), rng.randint(0, 2))}
            dseqs.append(ds(t, q, h))
        want = brute_force_consistency_clean(dseqs)
        try:
            check_consistency(dseqs)
            got = "consistent"
        except InconsistentInputs:
            got = "inconsistent"
        except InvalidRule:
            got = "incompatible"
        assert got == want
        agree += 1
    pair = [ds(2, {}, {1}), ds(1, {}, {2})]
    with pytest.raises(InconsistentInputs, match=r"application order: records \(0, 1\)"):
        check_consistency(pair)
    report(f"consistency-checker ({agree}/200 agree + duplicate-pair cycle)")


def test_worked_example_regressions():
    """The documented learning and backtracking scenarios, step for step."""
    from tests import test_solver as ws

    ws.TestLearnSatisfiedTarget().test_outcome()
    ws.TestLearnBlockedTarget().test_outcome()
    ws.TestLearnFalsifiedNonTarget().test_chain_of_joins()
    ws.TestLearnFalsifiedTarget().test_record_and_clause()
    ws.TestLearnActivatedRecord().test_joins_through_reasons()
    walk = ws.TestTargetStackWalkthrough()
    walk.test_stack_shape_and_blocked_condition()
    walk.test_special_backtracking_sequence()
    walk.test_full_proof_and_final_flip()
    report("worked-example-regressions")


def _trend_circuits(n, rng, max_inputs=6, max_gates=30):
    out = []
    while len(out) < n:
        seed = rng.randrange(10**6)
        circuit = harness.gen_circuit(seed, rng.randint(3, max_inputs), rng.randint(5, max_gates))
        x = {v: rng.randrange(2) for v in circuit.inputs}
        z = {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}
        out.append((circuit, harness.circuit_to_pqe(circuit, z), z))
    return out


def test_learning_trend():
    """Learning never generates more records, within 5% per instance.

    Counted as learned records (one per learning event), the analogue of
    counting learned clauses rather than every resolution step inside one.
    """
    t0 = time.monotonic()
    rng = random.Random(515)
    total_learn = total_nolearn = 0
    for circuit, inst, z in _trend_circuits(20, rng):
        with_learn = solve_pqe(inst.problem, SolverConfig(learn_depth_k=0)).stats
        without = solve_pqe(inst.problem, SolverConfig(learn_depth_k=-1)).stats
        total_learn += with_learn["dseq_final"]
        total_nolearn += without["dseq_final"]
        assert with_learn["dseq_final"] <= 1.05 * without["dseq_final"], (
            circuit,
            with_learn["dseq_final"],
            without["dseq_final"],
        )
    assert total_learn <= total_nolearn
    assert time.monotonic() - t0 < 120
    report(f"learning-trend (with={total_learn} <= without={total_nolearn})")


def test_circuit_sat_contract():
    """Blocked-input sets of all three methods equal the simulated fiber."""
    rng = random.Random(8711)
    for circuit, inst, z in _trend_circuits(20, rng, max_inputs=6, max_gates=25):
        want = harness.producing_inputs(circuit, z)
        for name, g in (
            ("pqe", solve_pqe(inst.problem).f1_star),
            ("m1", harness.method1_blocking(inst)),
            ("m2", harness.method2_corelift(inst)),
        ):
            assert not isinstance(g, harness.Inapplicable), name
            for c in g:
                assert harness.blocked_inputs(circuit, [c]) <= want, (name, c)
            assert harness.blocked_inputs(circuit, g) == want, name
    report("circuit-sat-contract (3 methods x 20 circuits)")


def test_baseline_trends():
    """Core lifting and elimination produce cubes at least as large as
    enumerate-and-block; lifting bails out on relational instances."""
    rng = random.Random(99)
    wins = total = 0
    for circuit, inst, z in _trend_circuits(25, rng, max_inputs=5, max_gates=18):
        g_pqe = solve_pqe(inst.problem).f1_star
        g_m1 = harness.method1_blocking(inst)
        g_m2 = harness.method2_corelift(inst)
        assert not isinstance(g_m2, harness.Inapplicable)
        total += 1
        m1_best = min(len(c) for c in g_m1)
        if min(len(c) for c in g_m2) <= m1_best and min(len(c) for c in g_pqe) <= m1_best:
            wins += 1
    assert wins >= 0.9 * total, (wins, total)

    relational = 0
    for circuit, inst, z in _trend_circuits(5, rng, max_inputs=4, max_gates=10):
        out_var = circuit.outputs[0]
        f2 = tuple(c for c in inst.problem.f2 if all(abs(l) != out_var for l in c))
        if len(f2) == len(inst.problem.f2):
            continue
        loose = harness.PqeInstance(
            EcnfProblem.make(
                inst.problem.x_vars, inst.problem.f1, f2
            ),
            {**inst.meta, "det": False},
        )
        assert isinstance(harness.method2_corelift(loose), harness.Inapplicable)
        assert not isinstance(harness.method1_blocking(loose), harness.Inapplicable)
        assert solve_pqe(loose.problem).f1_star is not None
        relational += 1
    assert relational >= 3
    report(f"baseline-trends ({wins}/{total} det wins, {relational} relational bailouts)")


def test_sat_reduction():
    """Elimination verdicts match the SAT core on random 3-CNFs."""
    rng = random.Random(321)
    for i in range(50):
        clauses = []
        for _ in range(rng.randint(8, 30)):
            vs = rng.sample(range(1, 9), 3)
            clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
        x = {v: rng.randrange(2) for v in range(1, 9)}
        assert pqe_sat_verdict(clauses, x) == sat_solve(clauses).satisfiable, i
    report("sat-reduction (50/50 agree)")


def test_full_suite_determinism():
    """A fixed batch solved twice produces byte-identical solutions and stats."""
    rng = random.Random(2718)
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        batch = [parse_pqe(fh.read())]
    for _ in range(10):
        batch.append(_acceptance_instance(rng))
    for circuit, inst, z in _trend_circuits(2, rng, max_inputs=4, max_gates=12):
        batch.append(inst.problem)

    def run():
        blobs, stats = [], []
        for problem in batch:
            res = solve_pqe(problem, SolverConfig())
            blobs.append(write_solution(res.f1_star).encode())
            stats.append({k: v for k, v in sorted(res.stats.items()) if k != "wall_time_s"})
        return blobs, stats

    b1, s1 = run()
    b2, s2 = run()
    assert b1 == b2
    assert s1 == s2
    report("determinism (byte-identical solutions and stats)")
