import random

import pytest

from pqe import harness
from pqe.formula import EcnfProblem, canonical_lits, clause_satisfied
from pqe.oracle import cnf_satisfiable
from pqe.solver import solve_pqe
from tests.conftest import pqe_sat_verdict, rand_cnf


class TestGenCircuit:
    def test_deterministic(self):
        a = harness.gen_circuit(1, 3, 5)
        b = harness.gen_circuit(1, 3, 5)
        assert a == b

    def test_seed_changes_structure(self):
        assert harness.gen_circuit(1, 4, 8) != harness.gen_circuit(2, 4, 8)

    def test_single_gate_over_subset(self):
        c = harness.gen_circuit(1, 3, 1)
        assert len(c.gates) == 1
        assert set(c.gates[0].ins) <= set(c.inputs)
        assert c.outputs == (c.gates[0].out,)

    def test_inputs_wired_when_capacity_allows(self):
        c = harness.gen_circuit(3, 4, 10)
        used = {s for g in c.gates for s in g.ins}
        assert set(c.inputs) <= used

    def test_outputs_are_unconsumed_gates(self):
        c = harness.gen_circuit(9, 4, 12)
        consumed = {s for g in c.gates for s in g.ins}
        assert all(o not in consumed for o in c.outputs)
        assert c.outputs


class TestTseitin:
    @pytest.mark.parametrize("seed", range(6))
    def test_encoding_matches_simulation(self, seed):
        rng = random.Random(seed)
        circuit = harness.gen_circuit(seed, rng.randint(1, 4), rng.randint(1, 8))
        clauses = harness.tseitin(circuit)
        n = len(circuit.inputs)
        for bits in range(1 << n):
            x = {v: (bits >> i) & 1 for i, v in enumerate(circuit.inputs)}
            val = harness.simulate(circuit, x)
            assert all(clause_satisfied(c, val) for c in clauses)

    def test_gate_functions_forced(self):
        # the encoding admits exactly one evaluation per input
        circuit = harness.gen_circuit(4, 3, 6)
        clauses = harness.tseitin(circuit)
        gate_vars = [g.out for g in circuit.gates]
        for bits in range(1 << 3):
            x = {v: (bits >> i) & 1 for i, v in enumerate(circuit.inputs)}
            units = [(v,) if b else (-v,) for v, b in x.items()]
            want = harness.simulate(circuit, x)
            for g in gate_vars:
                forced = (
                    not cnf_satisfiable(list(clauses) + units + [(-g if want[g] else g,)])
                )
                assert forced


class TestCircuitToPqe:
    def test_one_gate_and(self):
        circuit = harness.Circuit((1, 2), (harness.Gate(3, "AND", (1, 2)),), (3,))
        inst = harness.circuit_to_pqe(circuit, {3: 1})
        g = solve_pqe(inst.problem).f1_star
        assert harness.blocked_inputs(circuit, g) == {(1, 1)}

    def test_not_gate_low(self):
        circuit = harness.Circuit((1,), (harness.Gate(2, "NOT", (1,)),), (2,))
        inst = harness.circuit_to_pqe(circuit, {2: 0})
        g = solve_pqe(inst.problem).f1_star
        assert harness.blocked_inputs(circuit, g) == {(1,)}
        m1 = harness.method1_blocking(inst)
        m2 = harness.method2_corelift(inst)
        assert harness.blocked_inputs(circuit, m1) == {(1,)}
        assert harness.blocked_inputs(circuit, m2) == {(1,)}

    def test_impossible_output_blocks_nothing(self):
        # AND gate cannot output 1 while its twin NOT-chain forces otherwise;
        # simplest impossible case: XOR of duplicated input is constant 0
        circuit = harness.Circuit((1,), (harness.Gate(2, "XOR", (1, 1)),), (2,))
        inst = harness.circuit_to_pqe(circuit, {2: 1})
        g = solve_pqe(inst.problem).f1_star
        assert harness.blocked_inputs(circuit, g) == frozenset()
        assert harness.producing_inputs(circuit, {2: 1}) == frozenset()


class TestDropClauses:
    def test_identity_at_zero(self):
        inst = harness.circuit_to_pqe(harness.gen_circuit(1, 3, 6), _z(1, 3, 6))
        assert harness.drop_clauses(inst, 0.0, 5) is inst

    def test_arithmetic(self):
        inst = harness.circuit_to_pqe(harness.gen_circuit(1, 3, 8), _z(1, 3, 8))
        n = len(inst.problem.f2)
        out = harness.drop_clauses(inst, 0.25, 5)
        assert len(out.problem.f2) == n - int(0.25 * n)
        assert out.meta["det"] is False

    def test_deterministic(self):
        inst = harness.circuit_to_pqe(harness.gen_circuit(1, 3, 8), _z(1, 3, 8))
        a = harness.drop_clauses(inst, 0.3, 9).problem
        b = harness.drop_clauses(inst, 0.3, 9).problem
        assert a == b


def _z(seed, inputs, gates):
    circuit = harness.gen_circuit(seed, inputs, gates)
    x = {v: 0 for v in circuit.inputs}
    return {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}


class TestSatReduction:
    def test_contradiction(self):
        inst = harness.sat_reduction_instance([(1,), (-1,)], {1: 1})
        assert not pqe_sat_verdict([(1,), (-1,)], {1: 1})
        assert inst.problem.y_vars == frozenset()

    def test_satisfiable(self):
        assert pqe_sat_verdict([(1, 2)], {1: 1, 2: 0})

    def test_agreement_with_satcore(self, rng):
        from pqe.satcore import sat_solve

        for _ in range(25):
            clauses = rand_cnf(rng, 8, rng.randint(5, 25))
            x = {v: rng.randrange(2) for v in range(1, 9)}
            assert pqe_sat_verdict(clauses, x) == sat_solve(clauses).satisfiable


class TestBaselineMethods:
    def test_methods_agree_on_small_circuits(self):
        for seed in range(8):
            rng = random.Random(seed)
            circuit = harness.gen_circuit(seed, rng.randint(2, 4), rng.randint(2, 10))
            x = {v: rng.randrange(2) for v in circuit.inputs}
            z = {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}
            inst = harness.circuit_to_pqe(circuit, z)
            want = harness.producing_inputs(circuit, z)
            assert x_tuple(circuit, x) in want
            for g in (
                solve_pqe(inst.problem).f1_star,
                harness.method1_blocking(inst),
                harness.method2_corelift(inst),
            ):
                assert not isinstance(g, harness.Inapplicable)
                assert harness.blocked_inputs(circuit, g) == want

    def test_method2_inapplicable_on_relational_instance(self):
        # strip every clause defining the output gate: its value floats free
        circuit = harness.Circuit(
            (1, 2), (harness.Gate(3, "AND", (1, 2)), harness.Gate(4, "OR", (3, 1))), (4,)
        )
        inst = harness.circuit_to_pqe(circuit, {4: 1})
        out_clauses = {canonical_lits(c) for c in harness.gate_clauses(circuit.gates[1])}
        f2 = tuple(c for c in inst.problem.f2 if c not in out_clauses)
        assert len(f2) < len(inst.problem.f2)

        relational = harness.PqeInstance(
            EcnfProblem.make(inst.problem.x_vars, inst.problem.f1, f2),
            {**inst.meta, "det": False},
        )
        assert isinstance(harness.method2_corelift(relational), harness.Inapplicable)
        assert not isinstance(harness.method1_blocking(relational), harness.Inapplicable)
        assert solve_pqe(relational.problem).f1_star is not None

    @pytest.mark.parametrize("method", [harness.method1_blocking, harness.method2_corelift])
    def test_guard_is_the_one_clause_first_block(self, method):
        # no meta: the baselines check only that the first block is one clause
        circuit = harness.gen_circuit(3, 3, 6)
        z = _z(3, 3, 6)
        problem = harness.circuit_to_pqe(circuit, z).problem
        g = method(harness.PqeInstance(problem))
        assert harness.blocked_inputs(circuit, g) == harness.producing_inputs(circuit, z)
        two = EcnfProblem.make(problem.x_vars, problem.f1 + problem.f2[:1], problem.f2[1:])
        assert len(two.f1) == 2
        with pytest.raises(ValueError, match="single output-vector clause"):
            method(harness.PqeInstance(two))

    def test_budget_respected(self):
        circuit = harness.gen_circuit(3, 4, 9)
        x = {v: 0 for v in circuit.inputs}
        z = {v: harness.simulate(circuit, x)[v] for v in circuit.outputs}
        inst = harness.circuit_to_pqe(circuit, z)
        g = harness.method1_blocking(inst, clause_budget=1)
        assert len(g) <= 1


def x_tuple(circuit, x):
    return tuple(x[v] for v in circuit.inputs)


def test_manifest_line():
    assert harness.manifest_line(7, 4, 12, True, "a.pqe") == "7 7 4 12 det a.pqe"
    assert harness.manifest_line(7, 4, 12, False, "a.pqe") == "7 7 4 12 nondet a.pqe"
