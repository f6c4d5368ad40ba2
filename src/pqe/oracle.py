"""Exhaustive semantic ground truth at desk scale.

Everything here works on raw clause lists (tuples of signed ints) and is
deliberately independent of the solver's propagation machinery, so that
agreement between the two is a meaningful check. A subspace is cut out with
``formula.cofactor_clause``, a pure helper, not propagation machinery; the
bitmask enumeration is the oracle's own. Clause sets are treated
positionally: ids are list indices, and duplicate literal sets at distinct
indices are distinct clauses.

Enumeration uses bitmask encodings: an assignment to n tracked variables is
an n-bit integer, a clause is a (positive-mask, negative-mask) pair, and a
clause is satisfied iff ``pos & bits`` or ``neg & ~bits`` is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .formula import SATISFIED, Assignment, PqeError, cofactor_clause

ENUM_CAP = 24


class TooLarge(PqeError):
    """Instance exceeds the enumeration caps."""


def _check_cap(name: str, n: int) -> None:
    if n > ENUM_CAP:
        raise TooLarge(f"{name} has {n} variables, cap is {ENUM_CAP}")


def _mask_clauses(
    clauses: Sequence[Sequence[int]], index: Dict[int, int]
) -> List[Tuple[int, int]]:
    out = []
    for c in clauses:
        pos = neg = 0
        for l in c:
            bit = 1 << index[abs(l)]
            if l > 0:
                pos |= bit
            else:
                neg |= bit
        out.append((pos, neg))
    return out


def _sat_under(masks: Sequence[Tuple[int, int]], bits: int, full: int) -> bool:
    inv = bits ^ full
    for pos, neg in masks:
        if not ((pos & bits) | (neg & inv)):
            return False
    return True


def _collect_vars(clauses: Iterable[Sequence[int]]) -> Set[int]:
    out: Set[int] = set()
    for c in clauses:
        out.update(abs(l) for l in c)
    return out


class _Space:
    """Shared var indexing over the clause variables: those in X in the low
    bits, the free ones above them. An X variable in no clause changes no
    answer, so it is not enumerated and does not count against the cap."""

    def __init__(self, x_vars: Set[int], clause_vars: Set[int]):
        self.x_order = tuple(sorted(clause_vars & x_vars))
        self.y_order = tuple(sorted(clause_vars - x_vars))
        _check_cap("X", len(self.x_order))
        _check_cap("Y", len(self.y_order))
        self.nx, self.ny = len(self.x_order), len(self.y_order)
        self.index = {v: i for i, v in enumerate(self.x_order + self.y_order)}
        self.full = (1 << (self.nx + self.ny)) - 1

    def y_bits(self, j: int) -> int:
        return j << self.nx

    def exists_x(self, masks, y_part: int) -> bool:
        for i in range(1 << self.nx):
            if _sat_under(masks, y_part | i, self.full):
                return True
        return False


@dataclass
class TruthTableQe:
    """Bitset over free-variable assignments marking where the formula is satisfiable."""

    y_vars: Tuple[int, ...]
    rows: int  # bit j set iff the j-th assignment to y_vars admits a model


def enumerate_qe(clauses: Sequence[Sequence[int]], x_vars: Iterable[int]) -> TruthTableQe:
    """Quantifier elimination by enumeration over the free variables, the
    clause variables outside X."""
    sp = _Space(set(x_vars), _collect_vars(clauses))
    masks = _mask_clauses(clauses, sp.index)
    rows = 0
    for j in range(1 << sp.ny):
        if sp.exists_x(masks, sp.y_bits(j)):
            rows |= 1 << j
    return TruthTableQe(sp.y_order, rows)


def verify_pqe_solution(
    f1: Sequence[Sequence[int]],
    f2: Sequence[Sequence[int]],
    x_vars: Iterable[int],
    f1_star: Sequence[Sequence[int]],
) -> bool:
    """Check f1_star ∧ ∃X[f2] ≡ ∃X[f1 ∧ f2] by full enumeration.

    The free variables are those of f1 and f2 outside X; a solution clause
    over any other variable is a ValueError.
    """
    xs, vs = set(x_vars), _collect_vars(f1) | _collect_vars(f2)
    for c in f1_star:
        for l in c:
            if abs(l) in xs:
                raise ValueError("solution clauses must not mention quantified variables")
            if abs(l) not in vs:
                raise ValueError(f"solution variable {abs(l)} is neither quantified nor free")
    sp = _Space(xs, vs)
    m1 = _mask_clauses(tuple(f1) + tuple(f2), sp.index)
    m2 = _mask_clauses(f2, sp.index)
    mstar = _mask_clauses(f1_star, sp.index)
    for j in range(1 << sp.ny):
        yb = sp.y_bits(j)
        lhs = _sat_under(mstar, yb, sp.full) and sp.exists_x(m2, yb)
        rhs = sp.exists_x(m1, yb)
        if lhs != rhs:
            return False
    return True


def check_redundant_in_subspace(
    clauses: Sequence[Sequence[int]],
    x_vars: Iterable[int],
    c_index: int,
    q: Assignment,
) -> bool:
    """Is clause #c_index removable from the cofactor by q, projected on X?

    True iff for every assignment to the free variables (the clause
    variables outside X) unassigned in q the cofactored formula and the
    cofactored formula without the clause agree on X-satisfiability. By the
    definition of PQE, that is: the empty formula is a solution for taking
    the clause's cofactor out of the others' cofactors.
    """
    cofactors = [cofactor_clause(c, q) for c in clauses]
    target = cofactors.pop(c_index)
    if target is SATISFIED:
        return True
    others = [c for c in cofactors if c is not SATISFIED]
    return verify_pqe_solution([target], others, set(x_vars) - set(q), ())


def verify_dsequent(
    clauses: Sequence[Sequence[int]],
    x_vars: Iterable[int],
    target_index: int,
    q: Assignment,
    h_indices: Iterable[int],
    subset_cap: int = 12,
) -> bool:
    """Check a D-sequent against every member formula.

    Member formulas contain the structure constraint, the target, and every
    clause over free variables only; optional clauses are the remaining
    X-clauses. The engine only ever removes X-clauses, and the calculus
    (in particular updating after implications) does not preserve validity
    for member formulas that drop free-variable clauses, so those stay.
    Each member's free variables are its clause variables outside X.
    """
    xs = set(x_vars)
    h = set(h_indices)
    if target_index in h:
        raise ValueError("target may not appear in its own structure constraint")
    mandatory = set(h) | {target_index}
    for i, c in enumerate(clauses):
        if i not in mandatory and not any(abs(l) in xs for l in c):
            mandatory.add(i)
    optional = [i for i in range(len(clauses)) if i not in mandatory]
    if len(optional) > subset_cap:
        raise TooLarge(f"{len(optional)} optional clauses, cap is {subset_cap}")
    for pick in range(1 << len(optional)):
        w_ids = sorted(mandatory | {optional[i] for i in range(len(optional)) if pick >> i & 1})
        w = [clauses[i] for i in w_ids]
        if not check_redundant_in_subspace(w, xs, w_ids.index(target_index), q):
            return False
    return True


def cnf_satisfiable(clauses: Sequence[Sequence[int]]) -> bool:
    """Brute-force satisfiability, used as an oracle for the SAT core: with
    every variable quantified, the elimination leaves one row, true or not."""
    return enumerate_qe(clauses, _collect_vars(clauses)).rows == 1
