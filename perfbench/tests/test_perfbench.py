"""Tests for the benchmark's helpers: percentiles, cone extraction, the
reference checks, set-up determinism and the tracing wrappers.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import json
import random
from pathlib import Path

import pytest

import pqe.solver
from pqe import harness, oracle
from pqe import io as pqeio
from pqe.solver import SolverConfig, solve_pqe

from perfbench import bench, cone, reference, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert bench.highest_percentile(99) is None
    assert bench.highest_percentile(100) == 90
    assert bench.highest_percentile(999) == 90
    assert bench.highest_percentile(1000) == 99
    assert bench.highest_percentile(10_000) == 99.9
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 90) == 90  # 10 values beyond it
    assert bench.percentile([7.0], 90) == 7.0


def _fan_in_inputs(circuit, outputs):
    gate_of = {g.out: g for g in circuit.gates}
    seen, stack = set(), list(outputs)
    while stack:
        s = stack.pop()
        if s not in seen:
            seen.add(s)
            stack.extend(gate_of[s].ins if s in gate_of else ())
    return [v for v in circuit.inputs if v in seen]


@pytest.mark.parametrize("seed", range(8))
def test_cone_preserves_function_and_round_trips(seed):
    base = harness.gen_circuit(seed, 7, 40)
    rng = random.Random(seed)
    outputs = sorted(rng.sample(base.outputs, min(3, len(base.outputs))))
    c = cone.build_cone(base, outputs)
    support = _fan_in_inputs(base, outputs)
    assert len(c.inputs) == len(support)
    assert c.inputs == tuple(range(1, len(c.inputs) + 1))
    for bits in range(1 << len(support)):
        x = {v: rng.randrange(2) for v in base.inputs}
        x.update({v: (bits >> j) & 1 for j, v in enumerate(support)})
        want = [harness.simulate(base, x)[o] for o in outputs]
        got_values = harness.simulate(c, {v: (bits >> j) & 1 for j, v in enumerate(c.inputs)})
        assert [got_values[o] for o in c.outputs] == want
    z = {o: rng.randrange(2) for o in c.outputs}
    problem = harness.circuit_to_pqe(c, z).problem
    assert pqeio.parse_pqe(pqeio.write_pqe(problem)) == problem


def _vectors(table, n):
    return frozenset(tuple((i >> j) & 1 for j in range(n)) for i in range(1 << n) if table >> i & 1)


@pytest.mark.parametrize("seed", range(6))
def test_reference_tables_agree_with_harness_enumeration(seed):
    circuit = harness.gen_circuit(seed, 6, 30)
    rng = random.Random(seed)
    x = {v: rng.randrange(2) for v in circuit.inputs}
    values = harness.simulate(circuit, x)
    z = {v: values[v] for v in circuit.outputs}
    n = len(circuit.inputs)
    assert _vectors(reference.producing_table(circuit, z), n) == harness.producing_inputs(circuit, z)
    answer = solve_pqe(harness.circuit_to_pqe(circuit, z).problem).f1_star
    extra = tuple(rng.choice((v, -v)) for v in rng.sample(circuit.inputs, 2))
    for g in (answer, answer + (extra,), answer[1:], ((),), ()):
        assert _vectors(reference.blocked_table(circuit.inputs, g), n) == harness.blocked_inputs(circuit, g)


def test_reference_satisfiability_agrees_with_oracle():
    rng = random.Random(3)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(3, 8)
        clauses = [
            tuple(v if rng.randrange(2) else -v for v in rng.sample(range(1, n + 1), min(3, n)))
            for _ in range(rng.randint(1, 6 * n))
        ]
        verdict = reference.cnf_satisfiable(clauses)
        assert verdict == oracle.cnf_satisfiable(clauses)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert not reference.cnf_satisfiable([(1,), ()])


def _first_case(name, predicate):
    w = workloads.WORKLOADS[name]
    for case in workloads.setup(w, 0):
        if predicate(case):
            return w, case
    raise AssertionError(f"no {name} case fits")


def test_reference_check_rejects_corrupted_circuit_answers():
    _, case = _first_case("circuit-cone", lambda c: 4 <= c.fibre <= (1 << len(c.inputs)) // 2)
    answer = solve_pqe(pqeio.parse_pqe(case.text)).f1_star
    assert workloads.answer_ok(case, answer)
    flipped = ((-answer[0][0],) + answer[0][1:],) + answer[1:]
    outside = tuple(-v for v in case.inputs)  # blocks only the all-ones vector
    foreign = answer + ((max(case.inputs) + 1,),)  # mentions a quantified variable
    for bad in (answer[1:], flipped, foreign, ((),), ()):
        assert not workloads.answer_ok(case, bad)
    all_ones = (1 << (1 << len(case.inputs))) >> 1
    if not case.producing & all_ones:
        assert not workloads.answer_ok(case, answer + (outside,))


def test_reference_check_rejects_a_wrong_satred_verdict():
    _, case = _first_case("satred", lambda c: True)
    answer = solve_pqe(pqeio.parse_pqe(case.text)).f1_star
    assert workloads.answer_ok(case, answer)
    assert not workloads.answer_ok(case, () if answer else ((),))


def test_truncated_m1_answer_is_caught(monkeypatch):
    # harness.method1_blocking stops at its clause budget and returns the
    # partial list as if it were complete; the reference check catches it.
    # A fibre that is not a power of two is not one cube, so m1 needs more
    # than one clause for it.
    w, case = _first_case("circuit-cone", lambda c: c.fibre >= 20 and c.fibre & (c.fibre - 1))
    monkeypatch.setattr(workloads, "BASELINE_BUDGET", 1)
    results = {name: call() for name, call in workloads.baselines(w, case).items()}
    assert len(results["m1"]) == 1
    assert not workloads.answer_ok(case, results["m1"])
    assert workloads.baseline_status(case, results["m1"]) == "budget"


def test_setup_is_seeded_and_deterministic():
    for w in workloads.WORKLOADS.values():
        cases = workloads.setup(w, 5)
        assert len(cases) >= bench.MIN_INSTANCES
        assert workloads.setup(w, 5) == cases
        assert [c.text for c in workloads.setup(w, 6)] != [c.text for c in cases]


def test_every_seed_has_the_same_strata():
    sizes = workloads.CONE_GATES
    for seed in (1, 2):
        wide = workloads.setup(workloads.WORKLOADS["circuit-wide"], seed)
        assert [min(c.fibre, 3) for c in wide] == list(workloads.WIDE_FIBRES) * (len(wide) // len(workloads.WIDE_FIBRES))
        cones = workloads.setup(workloads.WORKLOADS["circuit-cone"], seed)[: 2 * len(sizes)]
        gates = [len(pqeio.parse_pqe(c.text).x_vars) for c in cones]  # the cone's gates are its X
        assert gates == list(sizes) * 2
        sat = [c.satisfiable for c in workloads.setup(workloads.WORKLOADS["satred"], seed)]
        every = workloads.SATRED_UNSAT_EVERY
        assert sat == ([True] * (every - 1) + [False]) * (len(sat) // every)


def test_runner_flags_an_answer_that_changes():
    _, case = _first_case("satred", lambda c: True)
    runner = bench.EngineRunner("satred", 0)
    assert runner.solve(case).ok and runner.solve(case).ok
    assert not runner.errors
    text, stats = runner.seen[case.cid]
    runner.seen[case.cid] = (text, stats + (("decisions", -1),))
    assert not runner.solve(case).ok
    assert runner.errors and runner.failed == 1


def test_tracer_wraps_and_restores_every_site():
    originals = [site.owner.__dict__[site.attr] for site in tracing.SITES]
    assert tracing.installed_count() == 0
    _, case = _first_case("satred", lambda c: True)
    plain = solve_pqe(pqeio.parse_pqe(case.text), SolverConfig())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_count() == len(tracing.SITES)
        traced = pqe.solver.solve_pqe(pqeio.parse_pqe(case.text), SolverConfig())
    finally:
        tracer.uninstall()
    assert tracing.installed_count() == 0
    assert [site.owner.__dict__[site.attr] for site in tracing.SITES] == originals
    plain.stats.pop("wall_time_s")
    traced.stats.pop("wall_time_s")
    assert (traced.f1_star, traced.stats) == (plain.f1_star, plain.stats)

    trace = tracer.take()
    assert [s[0] for s in trace.spans if s[3] == -1] == ["io.parse_pqe", "solver.solve_pqe"]
    leaves = trace.leaf_totals("solver.solve_pqe")
    assert leaves["formula.clause_falsified"][0] > 0
    assert leaves["dsequent.records_for"][0] > 0
    n_solve, solve_s = trace.span_totals("solver.solve_pqe")
    assert n_solve == 1 and 0 < trace.self_seconds("solver.solve_pqe") < solve_s
    assert tracer.take().spans == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in spec["per_layer"])
