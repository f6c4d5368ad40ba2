import random

import pytest

from pqe.harness import rand_problem, sat_reduction_instance
from pqe.solver import solve_pqe


def rand_x_problem(rng: random.Random, **sizes):
    """A ``rand_problem`` draw whose F1 has a quantified clause: the draws
    without one are thrown away."""
    while True:
        problem = rand_problem(rng, **sizes)
        if any(problem.is_x_clause(c) for c in problem.f1):
            return problem


def pqe_sat_verdict(clauses, x) -> bool:
    """Satisfiability of the CNF by elimination: the answer of its SAT
    reduction instance has no empty clause."""
    return all(solve_pqe(sat_reduction_instance(clauses, x).problem).f1_star)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
