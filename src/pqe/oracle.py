"""Exhaustive semantic ground truth at desk scale.

Everything here works on raw clause lists (tuples of signed ints) and is
deliberately independent of the solver's propagation machinery, so that
agreement between the two is a meaningful check. Clause sets are treated
positionally: ids are list indices, and duplicate literal sets at distinct
indices are distinct clauses.

Enumeration uses bitmask encodings: an assignment to n tracked variables is
an n-bit integer, a clause is a (positive-mask, negative-mask) pair, and a
clause is satisfied iff ``pos & bits`` or ``neg & ~bits`` is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .formula import Assignment, PqeError

ENUM_CAP = 24


class TooLarge(PqeError):
    """Instance exceeds the enumeration caps."""


def _check_cap(name: str, n: int, cap: int = ENUM_CAP) -> None:
    if n > cap:
        raise TooLarge(f"{name} has {n} variables, cap is {cap}")


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
    """Shared var indexing: x variables in the low bits, tracked y above them."""

    def __init__(self, x_vars: Iterable[int], y_vars: Iterable[int]):
        self.x_order = tuple(sorted(x_vars))
        self.y_order = tuple(sorted(y_vars))
        _check_cap("X", len(self.x_order))
        _check_cap("Y", len(self.y_order))
        self.index = {v: i for i, v in enumerate(self.x_order)}
        nx = len(self.x_order)
        self.index.update({v: nx + i for i, v in enumerate(self.y_order)})
        self.nx = nx
        self.ny = len(self.y_order)
        self.full = (1 << (self.nx + self.ny)) - 1

    def y_bits(self, j: int) -> int:
        return j << self.nx

    def exists_x(self, masks, y_part: int, fixed_bits: int = 0, fixed_mask: int = 0) -> bool:
        base = y_part | fixed_bits
        for i in range(1 << self.nx):
            bits = base | (i & ~fixed_mask & ((1 << self.nx) - 1))
            if _sat_under(masks, bits, self.full):
                return True
        return False


@dataclass
class TruthTableQe:
    """Bitset over free-variable assignments marking where the formula is satisfiable."""

    y_vars: Tuple[int, ...]
    rows: int  # bit j set iff the j-th assignment to y_vars admits a model


def enumerate_qe(
    clauses: Sequence[Sequence[int]],
    x_vars: Iterable[int],
    y_vars: Optional[Iterable[int]] = None,
) -> TruthTableQe:
    """Quantifier elimination by enumeration over the free variables."""
    xs = set(x_vars)
    ys = set(y_vars) if y_vars is not None else _collect_vars(clauses) - xs
    sp = _Space(xs, ys)
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
    y_vars: Optional[Iterable[int]] = None,
) -> bool:
    """Check f1_star ∧ ∃X[f2] ≡ ∃X[f1 ∧ f2] by full enumeration."""
    xs = set(x_vars)
    ys = (
        set(y_vars)
        if y_vars is not None
        else (_collect_vars(f1) | _collect_vars(f2) | _collect_vars(f1_star)) - xs
    )
    for c in f1_star:
        for l in c:
            if abs(l) in xs:
                raise ValueError("solution clauses must not mention quantified variables")
            if abs(l) not in ys:
                raise ValueError(f"solution variable {abs(l)} is neither quantified nor free")
    sp = _Space(xs, ys)
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
    y_vars: Optional[Iterable[int]] = None,
) -> bool:
    """Is clause #c_index removable from the cofactor by q, projected on X?

    True iff for every assignment to the free variables unassigned in q the
    cofactored formula and the cofactored formula without the clause agree
    on X-satisfiability.
    """
    xs = set(x_vars)
    ys = set(y_vars) if y_vars is not None else _collect_vars(clauses) - xs
    sp = _Space(xs, ys)
    masks = _mask_clauses(clauses, sp.index)
    without = masks[:c_index] + masks[c_index + 1 :]
    fixed_bits = fixed_mask = 0
    for var, val in q.items():
        if var not in sp.index:
            continue
        bit = 1 << sp.index[var]
        fixed_mask |= bit
        if val:
            fixed_bits |= bit
    free_y = [1 << sp.index[v] for v in sp.y_order if not (fixed_mask >> sp.index[v] & 1)]
    for j in range(1 << len(free_y)):
        # yb carries the fixed bits of q (X and Y alike); exists_x only
        # enumerates X bits outside fixed_mask.
        yb = fixed_bits
        for i, bit in enumerate(free_y):
            if j >> i & 1:
                yb |= bit
        if sp.exists_x(masks, yb, 0, fixed_mask) != sp.exists_x(without, yb, 0, fixed_mask):
            return False
    return True


def verify_dsequent(
    clauses: Sequence[Sequence[int]],
    x_vars: Iterable[int],
    target_index: int,
    q: Assignment,
    h_indices: Iterable[int],
    y_vars: Optional[Iterable[int]] = None,
    subset_cap: int = 12,
) -> bool:
    """Check a D-sequent against every member formula.

    Member formulas contain the structure constraint, the target, and every
    clause over free variables only; optional clauses are the remaining
    X-clauses. The engine only ever removes X-clauses, and the calculus
    (in particular updating after implications) does not preserve validity
    for member formulas that drop free-variable clauses, so those stay.
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
        if not check_redundant_in_subspace(w, xs, w_ids.index(target_index), q, y_vars):
            return False
    return True


def cnf_satisfiable(clauses: Sequence[Sequence[int]]) -> bool:
    """Brute-force satisfiability, used as an oracle for the SAT core."""
    vs = sorted(_collect_vars(clauses))
    _check_cap("CNF", len(vs))
    index = {v: i for i, v in enumerate(vs)}
    masks = _mask_clauses(clauses, index)
    full = (1 << len(vs)) - 1
    return any(_sat_under(masks, bits, full) for bits in range(1 << len(vs)))
