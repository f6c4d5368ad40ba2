"""Reference answers by bit-parallel enumeration, independent of the engine.

Every function evaluates its formula or circuit on all input vectors at
once: bit ``i`` of a truth table is the value under input vector ``i``,
where input ``j`` (in the circuit's input order) takes bit ``j`` of ``i``.
That is the numbering ``harness.producing_inputs`` and
``harness.blocked_inputs`` use; the tests check the two agree. Neither the
engine nor ``satcore`` is involved, and the enumeration costs microseconds
where the harness's per-vector loops cost seconds.
"""

from __future__ import annotations

from typing import Dict, Sequence

from pqe import harness

MAX_VARS = 20


def _var_tables(variables: Sequence[int]) -> Dict[int, int]:
    """Truth table of each variable over all 2**len(variables) vectors."""
    n = len(variables)
    if n > MAX_VARS:
        raise ValueError(f"{n} variables is past the enumeration cap {MAX_VARS}")
    width = 1 << n
    tables = {}
    for j, v in enumerate(variables):
        half = 1 << j
        block = ((1 << half) - 1) << half  # one period: 2**j zeros, then 2**j ones
        tables[v] = block * (((1 << width) - 1) // ((1 << (2 * half)) - 1))
    return tables


def _full(n_vars: int) -> int:
    return (1 << (1 << n_vars)) - 1


def signal_tables(circuit: harness.Circuit) -> Dict[int, int]:
    """Truth table of every signal of the circuit over all input vectors."""
    full = _full(len(circuit.inputs))
    val = _var_tables(circuit.inputs)
    for g in circuit.gates:
        a = val[g.ins[0]]
        if g.op == "NOT":
            val[g.out] = full ^ a
        elif g.op == "AND":
            val[g.out] = a & val[g.ins[1]]
        elif g.op == "OR":
            val[g.out] = a | val[g.ins[1]]
        elif g.op == "XOR":
            val[g.out] = a ^ val[g.ins[1]]
        else:
            raise ValueError(f"unknown gate op {g.op}")
    return val


def producing_table(circuit: harness.Circuit, z: Dict[int, int]) -> int:
    """Input vectors the circuit drives to the output vector ``z``."""
    full = _full(len(circuit.inputs))
    val = signal_tables(circuit)
    out = full
    for v in circuit.outputs:
        out &= val[v] if z[v] else full ^ val[v]
    return out


def blocked_table(inputs: Sequence[int], clauses: Sequence[Sequence[int]]) -> int:
    """Input vectors falsifying at least one clause.

    A clause over a variable that is not an input cannot be part of a
    solution over the inputs, so it raises instead of being skipped.
    """
    full = _full(len(inputs))
    val = _var_tables(inputs)
    out = 0
    for c in clauses:
        falsified = full
        for lit in c:
            if abs(lit) not in val:
                raise ValueError(f"solution clause {tuple(c)} mentions non-input {abs(lit)}")
            falsified &= full ^ val[lit] if lit > 0 else val[-lit]
        out |= falsified
    return out


def cnf_satisfiable(clauses: Sequence[Sequence[int]]) -> bool:
    """Whether some assignment to the clauses' variables satisfies them all."""
    variables = sorted({abs(lit) for c in clauses for lit in c})
    full = _full(len(variables))
    val = _var_tables(variables)
    out = full
    for c in clauses:
        sat = 0
        for lit in c:
            sat |= val[lit] if lit > 0 else full ^ val[-lit]
        out &= sat
    return out != 0
