"""Command line entry point.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import List, Optional

from . import harness, io as pqeio, oracle
from .formula import EcnfProblem, PqeError
from .satcore import ResourceLimit
from .solver import SolverConfig, solve_pqe

GOLDEN_INSTANCE = """c two quantified variables, one free
p pqe 3 1 2
e 1 2 0
-1 2 0
3 1 0
3 -2 0
"""


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        learn_depth_k=args.learn_k,
        max_conflicts=args.max_conflicts,
        max_seconds=args.max_seconds,
    )


def _read_problem(path: str) -> EcnfProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return pqeio.parse_pqe(fh.read())


def _emit_stats(stats: dict, mode: str, out) -> None:
    for key in sorted(stats):
        if key == "wall_time_s":
            continue
        print(f"{key}={stats[key]}", file=out)
    if mode == "full":
        print(f"wall_time_ms={stats.get('wall_time_s', 0.0) * 1000:.3f}", file=out)


def _cmd_solve(args) -> int:
    problem = _read_problem(args.file)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    result = solve_pqe(problem, _config_from_args(args), trace=trace)
    sys.stdout.write(pqeio.write_solution(result.f1_star))
    if args.stats is not None:
        _emit_stats(result.stats, args.stats, sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    problem = _read_problem(args.file)
    with open(args.solution, "r", encoding="utf-8") as fh:
        solution = pqeio.parse_solution(fh.read())
    for c in solution:
        if problem.is_x_clause(c):
            print("verify: solution clause mentions a quantified variable", file=sys.stderr)
            return 1
    ok = oracle.verify_pqe_solution(
        problem.f1, problem.f2, problem.x_vars, solution, problem.y_vars
    )
    print("verify: OK" if ok else "verify: FAILED")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    if args.kind == "circuit":
        circuit = harness.gen_circuit(args.seed, args.inputs, args.gates)
        rng = random.Random(args.seed ^ 0x5EED)
        x = {v: rng.randrange(2) for v in circuit.inputs}
        values = harness.simulate(circuit, x)
        z = {v: values[v] for v in circuit.outputs}
        inst = harness.circuit_to_pqe(circuit, z)
        if args.drop:
            inst = harness.drop_clauses(inst, args.drop, args.seed ^ 0xD209)
        text = pqeio.write_pqe(inst.problem, comment=f"circuit seed={args.seed}")
        det = bool(inst.meta.get("det", True))
        line = harness.manifest_line(args.seed, args.seed, args.inputs, args.gates, det, args.output)
    else:
        if args.vars < 1:
            raise ValueError(f"--vars must be 1 or more, not {args.vars}")
        if args.clauses < 0:
            raise ValueError(f"--clauses must be 0 or more, not {args.clauses}")
        rng = random.Random(args.seed)
        clauses = []
        for _ in range(args.clauses):
            width = min(3, args.vars)
            vs = rng.sample(range(1, args.vars + 1), width)
            clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
        x = {v: rng.randrange(2) for v in range(1, args.vars + 1)}
        inst = harness.sat_reduction_instance(clauses, x)
        text = pqeio.write_pqe(inst.problem, comment=f"satred seed={args.seed}")
        line = harness.manifest_line(args.seed, args.seed, args.vars, args.clauses, True, args.output)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(line)
    return 0


def _cmd_compare(args) -> int:
    # reject bad arguments before any method runs or prints a row
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("--methods names no method; choose from pqe, m1, m2")
    for name in methods:
        if name not in ("pqe", "m1", "m2"):
            raise ValueError(f"unknown method {name!r}; choose from pqe, m1, m2")
    if args.budget < 1:
        raise ValueError(f"--budget must be 1 or more, not {args.budget}")
    problem = _read_problem(args.file)
    inst = harness.PqeInstance(problem, {"kind": "circuit"})
    if "m1" in methods or "m2" in methods:
        harness.circuit_parts(inst)  # the baselines run on circuit instances only
    print(f"{'method':8} {'clauses':>8} {'shortest':>9} {'seconds':>9}")
    for name in methods:
        t0 = time.monotonic()
        if name == "pqe":
            g = harness.pqe_blocking(inst, _config_from_args(args))
        elif name == "m1":
            g = harness.method1_blocking(inst, args.budget)
        else:
            g = harness.method2_corelift(inst, args.budget)
        dt = time.monotonic() - t0
        if isinstance(g, harness.Inapplicable):
            print(f"{name:8} {'-':>8} {'inapplicable':>9} {dt:9.3f}")
        else:
            shortest = min((len(c) for c in g), default="-")
            print(f"{name:8} {len(g):>8} {shortest!s:>9} {dt:9.3f}")
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    problem = pqeio.parse_pqe(GOLDEN_INSTANCE)
    result = solve_pqe(problem, SolverConfig())
    check(
        "golden-solve",
        oracle.verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, result.f1_star),
    )
    want = oracle.enumerate_qe([(3,)], x_vars=(), y_vars=(3,))
    got = oracle.enumerate_qe(result.f1_star, x_vars=(), y_vars=(3,))
    check("golden-equivalent", want.rows == got.rows)

    rng = random.Random(7)
    ok = True
    for _ in range(25):
        nx, ny = rng.randint(1, 4), rng.randint(1, 3)
        xs = list(range(1, nx + 1))
        ys = list(range(nx + 1, nx + ny + 1))
        clauses = []
        for _ in range(rng.randint(1, 8)):
            vs = rng.sample(xs + ys, rng.randint(1, min(3, nx + ny)))
            clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
        cut = rng.randint(0, min(2, len(clauses)))
        prob = EcnfProblem.make(xs, ys, clauses[:cut], clauses[cut:])
        res = solve_pqe(prob, SolverConfig())
        if not oracle.verify_pqe_solution(prob.f1, prob.f2, prob.x_vars, res.f1_star, prob.y_vars):
            ok = False
            break
    check("random-oracle-agreement", ok)

    circuit = harness.gen_circuit(3, 3, 6)
    x = {v: 0 for v in circuit.inputs}
    values = harness.simulate(circuit, x)
    z = {v: values[v] for v in circuit.outputs}
    inst = harness.circuit_to_pqe(circuit, z)
    g_pqe = harness.pqe_blocking(inst)
    g_m1 = harness.method1_blocking(inst)
    g_m2 = harness.method2_corelift(inst)
    want_set = harness.producing_inputs(circuit, z)
    check(
        "circuit-methods-agree",
        not isinstance(g_m2, harness.Inapplicable)
        and harness.blocked_inputs(circuit, g_pqe) == want_set
        and harness.blocked_inputs(circuit, g_m1) == want_set
        and harness.blocked_inputs(circuit, g_m2) == want_set,
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqe", description="Partial quantifier elimination")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--learn-k", type=int, default=0, dest="learn_k")
        p.add_argument("--max-conflicts", type=int, default=None, dest="max_conflicts")
        p.add_argument("--max-seconds", type=float, default=None, dest="max_seconds")

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("file")
    add_solver_flags(p)
    p.add_argument("--stats", nargs="?", const="full", choices=("full", "kv"), default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution against the semantics")
    p.add_argument("file")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    gsub = p.add_subparsers(dest="kind", required=True)
    pc = gsub.add_parser("circuit")
    pc.add_argument("--inputs", type=int, required=True)
    pc.add_argument("--gates", type=int, required=True)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--drop", type=float, default=0.0)
    pc.add_argument("-o", "--output", required=True)
    pc.set_defaults(func=_cmd_gen)
    ps = gsub.add_parser("satred")
    ps.add_argument("--vars", type=int, default=8)
    ps.add_argument("--clauses", type=int, default=25)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("-o", "--output", required=True)
    ps.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compare", help="compare methods on a circuit instance")
    p.add_argument("file")
    p.add_argument("--methods", default="pqe,m1,m2")
    p.add_argument("--budget", type=int, default=1000)
    add_solver_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("selftest", help="run the built-in smoke checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except (PqeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
