"""Partial quantifier elimination for existentially quantified CNF.

Given a formula split into two blocks under one existential prefix, the
engine computes a quantifier-free equivalent of the first block relative to
the second, by proving the first block's quantified clauses redundant one at
a time with learned redundancy records. A brute-force oracle certifies every
result at small scale, and a benchmark harness compares the engine against
two SAT-based baselines.
"""

from .formula import (
    Assignment,
    Clause,
    ClauseDb,
    EcnfProblem,
    NotResolvable,
    PqeError,
    SATISFIED,
    TautologyError,
    assignments_resolvable,
    cofactor_clause,
    is_blocked,
    resolve,
)
from .dsequent import (
    Consistent,
    DSequent,
    DSequentStore,
    Inconsistent,
    atomic_first_kind,
    atomic_second_kind,
    atomic_third_kind,
    check_consistency,
    is_active,
    is_applicable,
    join,
    relax_order,
    retention_filter,
    strengthen_by_satisfied,
    substitute,
    unit_deactivating_assignment,
)
from .io import parse_pqe, parse_solution, write_pqe, write_solution
from .oracle import (
    TooLarge,
    check_redundant_in_subspace,
    enumerate_qe,
    find_boundary_points,
    verify_dsequent,
    verify_pqe_solution,
)
from .satcore import ResourceLimit, SatResult, sat_solve
from .solver import Engine, PqeResult, SolverConfig, solve_pqe

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Clause",
    "ClauseDb",
    "Consistent",
    "DSequent",
    "DSequentStore",
    "EcnfProblem",
    "Engine",
    "Inconsistent",
    "NotResolvable",
    "PqeError",
    "PqeResult",
    "ResourceLimit",
    "SATISFIED",
    "SatResult",
    "SolverConfig",
    "TautologyError",
    "TooLarge",
    "atomic_first_kind",
    "atomic_second_kind",
    "atomic_third_kind",
    "assignments_resolvable",
    "check_consistency",
    "check_redundant_in_subspace",
    "cofactor_clause",
    "enumerate_qe",
    "find_boundary_points",
    "is_active",
    "is_applicable",
    "is_blocked",
    "join",
    "parse_pqe",
    "parse_solution",
    "relax_order",
    "resolve",
    "retention_filter",
    "sat_solve",
    "solve_pqe",
    "strengthen_by_satisfied",
    "substitute",
    "unit_deactivating_assignment",
    "verify_dsequent",
    "verify_pqe_solution",
    "write_pqe",
    "write_solution",
]
