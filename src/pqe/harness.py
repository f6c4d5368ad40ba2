"""Benchmark generation and the two SAT-based baseline methods.

Circuit instances: a pseudorandom combinational circuit is encoded into CNF
(gate-consistency clauses); the block to take out is the single widest
clause falsified by a chosen output vector, the quantified variables are the
internal and output signals, and the free variables are the circuit inputs.
A solution's clauses then block input cubes: an input falsifying the
solution can only drive the circuit to the chosen output vector.

Each instance family is drawn here and nowhere else: ``circuit_instance``
(``pqe gen circuit``, with or without ``--drop``), ``rand_cnf`` (the CNF
that ``pqe gen satred`` splits with ``sat_reduction_instance``) and
``rand_problem`` (small random instances for ``pqe selftest``, the
contract digest and the tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .formula import Assignment, EcnfProblem, Lits, clause_falsified, clause_satisfied
from .satcore import sat_solve


@dataclass(frozen=True)
class Gate:
    out: int
    op: str  # AND | OR | NOT | XOR
    ins: Tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    inputs: Tuple[int, ...]
    gates: Tuple[Gate, ...]
    outputs: Tuple[int, ...]


@dataclass
class PqeInstance:
    problem: EcnfProblem
    meta: Dict[str, object] = field(default_factory=dict)  # "det" for circuits


_OPS = ("AND", "OR", "NOT", "XOR")


def gen_circuit(seed: int, n_inputs: int, n_gates: int) -> Circuit:
    """Deterministic pseudorandom DAG circuit; inputs are wired in first."""
    if n_inputs < 1 or n_gates < 1:
        raise ValueError("need at least one input and one gate")
    rng = random.Random(seed)
    inputs = tuple(range(1, n_inputs + 1))
    unused = list(inputs)
    rng.shuffle(unused)
    signals: List[int] = list(inputs)
    gates: List[Gate] = []
    for i in range(n_gates):
        out = n_inputs + 1 + i
        op = _OPS[rng.randrange(len(_OPS))]
        arity = 1 if op == "NOT" else 2
        ins = []
        for _ in range(arity):
            if unused:
                ins.append(unused.pop())
            else:
                ins.append(signals[rng.randrange(len(signals))])
        gates.append(Gate(out, op, tuple(ins)))
        signals.append(out)
    consumed = {s for g in gates for s in g.ins}
    outputs = tuple(g.out for g in gates if g.out not in consumed)
    return Circuit(inputs, tuple(gates), outputs)


def gate_clauses(gate: Gate) -> Tuple[Lits, ...]:
    g = gate.out
    if gate.op == "NOT":
        (a,) = gate.ins
        return ((-g, -a), (g, a))
    a, b = gate.ins
    if a == b:
        # degenerate two-input gate: a buffer, or constant false for XOR
        if gate.op == "XOR":
            return ((-g,),)
        return ((-g, a), (g, -a))
    if gate.op == "AND":
        return ((-g, a), (-g, b), (g, -a, -b))
    if gate.op == "OR":
        return ((g, -a), (g, -b), (-g, a, b))
    if gate.op == "XOR":
        return ((-g, a, b), (-g, -a, -b), (g, a, -b), (g, -a, b))
    raise ValueError(f"unknown gate op {gate.op}")


def tseitin(circuit: Circuit) -> Tuple[Lits, ...]:
    out: List[Lits] = []
    for gate in circuit.gates:
        out.extend(gate_clauses(gate))
    return tuple(out)


def simulate(circuit: Circuit, inputs: Assignment) -> Dict[int, int]:
    """Evaluate every signal under a total input assignment."""
    val = dict(inputs)
    for g in circuit.gates:
        ins = [val[i] for i in g.ins]
        if g.op == "NOT":
            val[g.out] = 1 - ins[0]
        elif g.op == "AND":
            val[g.out] = ins[0] & ins[1]
        elif g.op == "OR":
            val[g.out] = ins[0] | ins[1]
        else:
            val[g.out] = ins[0] ^ ins[1]
    return val


def circuit_to_pqe(circuit: Circuit, z: Assignment) -> PqeInstance:
    if set(z) != set(circuit.outputs):
        raise ValueError("output vector must assign every circuit output")
    cz = tuple(-v if z[v] else v for v in circuit.outputs)  # the widest clause z falsifies
    quantified = [g.out for g in circuit.gates]
    problem = EcnfProblem.make(quantified, [cz], tseitin(circuit))
    return PqeInstance(problem, {"det": True})


def drop_clauses(inst: PqeInstance, fraction: float, seed: int) -> PqeInstance:
    """Remove a fraction of the second block, making the behaviour relational."""
    if not 0 <= fraction < 1:
        raise ValueError("fraction must be in [0, 1)")
    n_drop = int(fraction * len(inst.problem.f2))
    if n_drop == 0:
        return inst
    rng = random.Random(seed)
    idx = set(rng.sample(range(len(inst.problem.f2)), n_drop))
    f2 = tuple(c for i, c in enumerate(inst.problem.f2) if i not in idx)
    problem = EcnfProblem.make(inst.problem.x_vars, inst.problem.f1, f2)
    return PqeInstance(problem, {**inst.meta, "det": False})


def sat_reduction_instance(clauses: Sequence[Lits], x: Assignment) -> PqeInstance:
    """Split a CNF by a full assignment; solving decides its satisfiability."""
    all_vars = {abs(l) for c in clauses for l in c}
    if not all_vars <= set(x):
        raise ValueError("the assignment must cover every variable")
    f1 = [c for c in clauses if clause_satisfied(c, x)]
    f2 = [c for c in clauses if not clause_satisfied(c, x)]
    return PqeInstance(EcnfProblem.make(sorted(all_vars), f1, f2))


def circuit_instance(seed: int, n_inputs: int, n_gates: int, drop: float = 0.0) -> PqeInstance:
    """The instance ``pqe gen circuit`` writes: the output vector that inputs
    drawn from ``Random(seed ^ 0x5EED)`` drive the circuit to, and with
    ``drop`` that fraction of the gate clauses removed."""
    circuit = gen_circuit(seed, n_inputs, n_gates)
    rng = random.Random(seed ^ 0x5EED)
    values = simulate(circuit, {v: rng.randrange(2) for v in circuit.inputs})
    inst = circuit_to_pqe(circuit, {v: values[v] for v in circuit.outputs})
    return drop_clauses(inst, drop, seed ^ 0xD209)


def rand_cnf(rng: random.Random, n_vars: int, n_clauses: int) -> List[Lits]:
    """Clauses of ``min(3, n_vars)`` distinct variables, each with a random sign."""
    out = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), min(3, n_vars))
        out.append(tuple(v if rng.randrange(2) else -v for v in vs))
    return out


def rand_problem(rng: random.Random, max_x: int = 5, max_y: int = 4, max_clauses: int = 14) -> EcnfProblem:
    """1 to ``max_x`` quantified and 0 to ``max_y`` free variables, 1 to
    ``max_clauses`` clauses of 1 to 3 variables, the first 0 to 4 in F1."""
    nx, ny = rng.randint(1, max_x), rng.randint(0, max_y)
    all_vars = list(range(1, nx + ny + 1))
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        vs = rng.sample(all_vars, rng.randint(1, min(3, len(all_vars))))
        clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
    cut = rng.randint(0, min(4, len(clauses)))
    return EcnfProblem.make(range(1, nx + 1), clauses[:cut], clauses[cut:])


class Inapplicable:
    """Marker: the core-lifting method met a satisfiable lift query."""

    def __repr__(self):
        return "INAPPLICABLE"


INAPPLICABLE = Inapplicable()


def circuit_parts(inst: PqeInstance):
    """(output-vector clause, its negated units, gate clauses); ValueError
    unless the first block is the one output-vector clause."""
    if len(inst.problem.f1) != 1:
        raise ValueError("expected a single output-vector clause")
    cz = inst.problem.f1[0]
    u_z = tuple((-l,) for l in cz)
    return cz, u_z, inst.problem.f2


def method1_blocking(inst: PqeInstance, clause_budget: int = 1000) -> List[Lits]:
    """Enumerate-and-block: shrink each witness input, block its cube.

    A literal is dropped only while the partial assignment (shrunk inputs
    plus the witness's internal and output values) still satisfies every
    clause on its own, so every extension of the kept cube reaches the same
    output vector. At ``clause_budget`` clauses the list is returned as it
    is, without a last SAT check, so it may be cut off.
    """
    cz, u_z, f2 = circuit_parts(inst)
    inputs = sorted(inst.problem.y_vars)
    g: List[Lits] = []
    while len(g) < clause_budget:
        base = list(f2) + list(u_z) + g
        res = sat_solve(base)
        if not res.satisfiable:
            return g
        partial = dict(res.model)
        for v in inputs:
            saved = partial.pop(v)
            if not all(clause_satisfied(c, partial) for c in base):
                partial[v] = saved
        cube = {v: partial[v] for v in inputs if v in partial}
        g.append(tuple(-v if cube[v] else v for v in sorted(cube)))
    return g


def method2_corelift(inst: PqeInstance, clause_budget: int = 1000):
    """Enumerate-and-lift via unsatisfiable cores over the input literals.

    Works only when each input drives a unique output vector; otherwise the
    lift query is satisfiable and the method reports itself inapplicable.
    At ``clause_budget`` clauses the list is returned as it is, without a
    last SAT check, so it may be cut off.
    """
    cz, u_z, f2 = circuit_parts(inst)
    inputs = sorted(inst.problem.y_vars)
    g: List[Lits] = []
    while len(g) < clause_budget:
        res = sat_solve(list(f2) + list(u_z) + g)
        if not res.satisfiable:
            return g
        assumptions = [v if res.model[v] else -v for v in inputs]
        lift = sat_solve(list(f2) + g + [cz], assumptions)
        if lift.satisfiable:
            return INAPPLICABLE
        core = sorted(lift.core, key=abs)
        g.append(tuple(-l for l in core))
    return g


def blocked_inputs(circuit: Circuit, g: Sequence[Lits]) -> frozenset:
    """All total input vectors falsifying at least one clause of g."""
    n = len(circuit.inputs)
    out = set()
    for bits in range(1 << n):
        x = {v: (bits >> i) & 1 for i, v in enumerate(circuit.inputs)}
        if any(clause_falsified(c, x) for c in g):
            out.add(tuple(x[v] for v in circuit.inputs))
    return frozenset(out)


def producing_inputs(circuit: Circuit, z: Assignment) -> frozenset:
    """All total input vectors the circuit drives to the output vector z."""
    n = len(circuit.inputs)
    out = set()
    for bits in range(1 << n):
        x = {v: (bits >> i) & 1 for i, v in enumerate(circuit.inputs)}
        val = simulate(circuit, x)
        if all(val[v] == z[v] for v in circuit.outputs):
            out.add(tuple(x[v] for v in circuit.inputs))
    return frozenset(out)


def manifest_line(seed: int, inputs: int, gates: int, det: bool, path: str) -> str:
    """The line ``pqe gen`` prints: the seed twice (index and seed columns)."""
    return f"{seed} {seed} {inputs} {gates} {'det' if det else 'nondet'} {path}"
