"""The benchmark's workloads: seeded instance sets with reference answers.

Each workload turns ``--seed`` into a fixed list of instances. The engine
only ever sees an instance's text; the reference answer is computed from
the generator's own data (the circuit, or the CNF) by ``reference``. Why
each workload exists and what it stresses is in README.md beside this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from pqe import harness
from pqe import io as pqeio
from pqe.satcore import sat_solve

from . import cone, reference

# m1 and m2 run until their answer covers the fibre or they hold this many
# clauses. At the budget m1 returns its partial list without saying so (a
# known defect of harness.method1_blocking), which the reference check
# then rejects; the benchmark counts that as a baseline failure.
BASELINE_BUDGET = 200


@dataclass(frozen=True)
class Case:
    """One instance: the text the engine reads and what its answer must be."""

    cid: int
    seed: int  # the generator seed of this instance
    text: str
    inputs: Tuple[int, ...] = ()  # circuits: the free variables, in input order
    producing: int = 0  # circuits: truth table of the inputs reaching z
    clauses: Tuple[Tuple[int, ...], ...] = ()  # satred: the CNF
    satisfiable: Optional[bool] = None  # satred: the reference verdict

    @property
    def fibre(self) -> int:
        """Circuits: how many input vectors reach the chosen output vector."""
        return self.producing.bit_count()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "circuit" or "satred"
    count: int  # instances per seed
    size: str  # the stated input size, for the report
    # (cid, instance seed) -> Case, or None when that seed gives no instance
    # of the stratum slot ``cid`` asks for
    make: Callable[[int, int], Optional[Case]]


def _circuit_case(cid: int, seed: int, circuit: harness.Circuit, rng: random.Random) -> Case:
    x = {v: rng.randrange(2) for v in circuit.inputs}
    values = harness.simulate(circuit, x)
    z = {v: values[v] for v in circuit.outputs}
    inst = harness.circuit_to_pqe(circuit, z)
    return Case(
        cid,
        seed,
        pqeio.write_pqe(inst.problem, comment=f"circuit seed={seed}"),
        inputs=circuit.inputs,
        producing=reference.producing_table(circuit, z),
    )


# Fibres (1, 2, 3 or more) the circuit-wide slots ask for in turn, 6:3:1,
# about the shares freely drawn instances have. The median solve grows
# 1.5x from fibre 1 to fibre 4, and p90 sits among the few instances with
# fibre 3 or more, so a seed drawing its own share of them would move it.
WIDE_FIBRES = (1, 1, 2, 1, 1, 2, 1, 1, 2, 3)


def _wide(cid: int, seed: int) -> Optional[Case]:
    # as `pqe gen circuit --inputs 7 --gates 45 --seed <seed>` builds it
    circuit = harness.gen_circuit(seed, 7, 45)
    case = _circuit_case(cid, seed, circuit, random.Random(seed ^ 0x5EED))
    return case if min(case.fibre, 3) == WIDE_FIBRES[cid % len(WIDE_FIBRES)] else None


# Cone sizes in gates, one per slot in turn. Solve time grows about 2.5x
# from the smallest to the largest and varies about 2x more within a size,
# so a seed drawing its own mix of sizes would move the percentiles.
CONE_GATES = (9, 10, 11, 12, 13, 14)
CONE_TRIES = 30  # output triples tried per circuit


def _cone(cid: int, seed: int) -> Optional[Case]:
    gates = CONE_GATES[cid % len(CONE_GATES)]
    base = harness.gen_circuit(seed, 8, 60)
    rng = random.Random(seed ^ 0xC0E)
    n_inputs = len(base.inputs)  # gen_circuit numbers its inputs 1..n_inputs
    for _ in range(CONE_TRIES):
        outputs = rng.sample(base.outputs, min(3, len(base.outputs)))
        if sum(s > n_inputs for s in cone.cone_signals(base, outputs)) == gates:
            return _circuit_case(cid, seed, cone.build_cone(base, outputs), rng)
    return None


# One satred slot in SATRED_UNSAT_EVERY is unsatisfiable, the rest are
# satisfiable: an unsatisfiable instance solves about 4x faster, and a seed
# drawing its own share of them would move the percentiles. Near the phase
# transition about three in four of these CNFs are satisfiable.
SATRED_UNSAT_EVERY = 4


def _satred(cid: int, seed: int) -> Optional[Case]:
    # as `pqe gen satred --vars 12 --clauses 51 --seed <seed>` builds it
    n_vars, n_clauses = 12, 51
    rng = random.Random(seed)
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
    satisfiable = reference.cnf_satisfiable(clauses)
    if satisfiable == (cid % SATRED_UNSAT_EVERY == SATRED_UNSAT_EVERY - 1):
        return None
    x = {v: rng.randrange(2) for v in range(1, n_vars + 1)}
    inst = harness.sat_reduction_instance(clauses, x)
    return Case(
        cid,
        seed,
        pqeio.write_pqe(inst.problem, comment=f"satred seed={seed}"),
        clauses=tuple(clauses),
        satisfiable=satisfiable,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("circuit-wide", "circuit", 500, "7 inputs / 45 gates", _wide),
        Workload("circuit-cone", "circuit", 1200, "3-output cones (9-14 gates) of 8 inputs / 60 gates", _cone),
        Workload("satred", "satred", 480, "12 variables / 51 clauses, 3 in 4 satisfiable", _satred),
    )
}


def setup(workload: Workload, seed: int) -> List[Case]:
    """Generate, serialise and compute reference answers for one seed.

    Each slot draws instance seeds until one gives an instance of the
    slot's stratum (fibre, cone size, satred verdict), so every seed has
    the same mix of them.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    cases = []
    for cid in range(workload.count):
        case = None
        while case is None:
            case = workload.make(cid, rng.getrandbits(31))
        cases.append(case)
    return cases


def answer_ok(case: Case, answer: Sequence[Sequence[int]]) -> bool:
    """Whether an answer (engine or baseline) is the reference answer.

    Circuits: the answer must block exactly the input vectors that reach
    the output vector. satred: the answer's verdict (an empty clause means
    unsatisfiable) must match the reference verdict.
    """
    if case.satisfiable is not None:
        return all(len(c) > 0 for c in answer) == case.satisfiable
    try:
        return reference.blocked_table(case.inputs, answer) == case.producing
    except ValueError:
        return False


def baselines(workload: Workload, case: Case) -> Dict[str, Callable[[], object]]:
    """The baseline methods of a workload, each returning its raw result.

    Circuits run enumerate-and-block (m1) and core lifting (m2) on the
    parsed instance, as `pqe compare` does. satred has no circuit, so its
    baseline decides the CNF with the CDCL core directly.
    """
    if workload.kind == "satred":
        return {"cdcl": lambda: sat_solve(case.clauses)}
    inst = harness.PqeInstance(pqeio.parse_pqe(case.text), {"kind": "circuit"})
    return {
        "m1": lambda: harness.method1_blocking(inst, BASELINE_BUDGET),
        "m2": lambda: harness.method2_corelift(inst, BASELINE_BUDGET),
    }


def baseline_status(case: Case, result: object) -> str:
    """ok, budget (reached the clause budget and rejected), inapplicable or wrong."""
    if isinstance(result, harness.Inapplicable):
        return "inapplicable"
    if case.satisfiable is not None:
        return "ok" if result.satisfiable == case.satisfiable else "wrong"
    if answer_ok(case, result):
        return "ok"
    return "budget" if len(result) >= BASELINE_BUDGET else "wrong"
