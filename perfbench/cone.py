"""Few-output circuit variant: the cone of influence of chosen outputs.

A generated circuit has many sink gates, so a random output vector is
reached by about one input vector and every method's answer has one or
two clauses. Keeping only the gates that feed a few outputs makes the
fibre (the input vectors reaching the chosen output vector) large, so the
answers have many clauses. Built only from the public harness API.
"""

from __future__ import annotations

from typing import Iterable, Set

from pqe import harness


def cone_signals(circuit: harness.Circuit, outputs: Iterable[int]) -> Set[int]:
    """The inputs and gate outputs that feed ``outputs``, themselves included."""
    gate_of = {g.out: g for g in circuit.gates}
    keep: Set[int] = set()
    stack = list(outputs)
    while stack:
        s = stack.pop()
        if s in keep:
            continue
        keep.add(s)
        if s in gate_of:
            stack.extend(gate_of[s].ins)
    return keep


def build_cone(circuit: harness.Circuit, outputs: Iterable[int]) -> harness.Circuit:
    """The gates that feed ``outputs``, renumbered densely.

    Cone inputs become 1..k in their original order and cone gates k+1..
    in topological order, so every variable 1..max_var occurs and
    ``write_pqe``/``parse_pqe`` round-trip the instance.
    """
    outputs = tuple(outputs)
    keep = cone_signals(circuit, outputs)
    inputs = [v for v in circuit.inputs if v in keep]
    gates = [g for g in circuit.gates if g.out in keep]
    new = {v: i for i, v in enumerate(inputs + [g.out for g in gates], start=1)}
    return harness.Circuit(
        tuple(new[v] for v in inputs),
        tuple(harness.Gate(new[g.out], g.op, tuple(new[s] for s in g.ins)) for g in gates),
        tuple(sorted(new[v] for v in outputs)),
    )
