import random

import pytest

from pqe.formula import EcnfProblem
from pqe.harness import sat_reduction_instance
from pqe.solver import solve_pqe


def rand_problem(
    rng: random.Random,
    max_x: int = 5,
    max_y: int = 4,
    max_clauses: int = 14,
    max_f1: int = 4,
    min_x: int = 1,
    min_y: int = 0,
    require_x_target: bool = False,
) -> EcnfProblem:
    """A random small instance; optionally guaranteed to have work to do."""
    while True:
        nx = rng.randint(min_x, max_x)
        ny = rng.randint(min_y, max_y)
        xs = list(range(1, nx + 1))
        ys = list(range(nx + 1, nx + ny + 1))
        allv = xs + ys
        clauses = []
        for _ in range(rng.randint(1, max_clauses)):
            width = rng.randint(1, min(3, len(allv)))
            vs = rng.sample(allv, width)
            clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
        cut = rng.randint(0, min(max_f1, len(clauses)))
        problem = EcnfProblem.make(xs, clauses[:cut], clauses[cut:])
        if require_x_target and not any(problem.is_x_clause(c) for c in problem.f1):
            continue
        return problem


def rand_cnf(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3):
    out = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        out.append(tuple(v if rng.randrange(2) else -v for v in vs))
    return out


def pqe_sat_verdict(clauses, x) -> bool:
    """Satisfiability of the CNF by elimination: the answer of its SAT
    reduction instance has no empty clause."""
    return all(solve_pqe(sat_reduction_instance(clauses, x).problem).f1_star)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
