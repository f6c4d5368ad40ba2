"""Partial quantifier elimination for existentially quantified CNF.

Given a formula split into two blocks under one existential prefix, the
engine computes a quantifier-free equivalent of the first block relative to
the second, by proving the first block's quantified clauses redundant one at
a time with learned redundancy records. A brute-force oracle certifies every
result at small scale, and a benchmark harness compares the engine against
two SAT-based baselines.

The package root holds the library API. The calculus (``pqe.dsequent``),
the clause store (``pqe.formula``), the oracle (``pqe.oracle``), the SAT
core (``pqe.satcore``) and the harness (``pqe.harness``) are imported from
their modules.
"""

from .formula import EcnfProblem, PqeError
from .io import parse_pqe, parse_solution, write_pqe, write_solution
from .oracle import verify_pqe_solution
from .satcore import ResourceLimit
from .solver import PqeResult, SolverConfig, solve_pqe

__version__ = "0.1.0"

__all__ = [
    "EcnfProblem",
    "PqeError",
    "PqeResult",
    "ResourceLimit",
    "SolverConfig",
    "parse_pqe",
    "parse_solution",
    "solve_pqe",
    "verify_pqe_solution",
    "write_pqe",
    "write_solution",
]
