"""Time the path `pqe solve` runs, check every answer, report the metrics.

One process, one caller, no threads: a closed loop in which each solve
starts when the previous answer is back. See README.md beside this file
for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from pqe import io as pqeio
from pqe import solver
from pqe.satcore import ResourceLimit

from . import tracing, workloads
from .workloads import Case, Workload

# The fixed per-instance budget. The largest instance of any workload needs
# well under a second and under a thousand conflicts; these only stop a
# runaway solve, which then counts as failed.
CONFIG = solver.SolverConfig(max_conflicts=100_000, max_seconds=20.0)

SETUP_REPEATS = 3
MIN_INSTANCES = 100  # a p90 with 10 samples beyond it
# The first solves in a fresh process run slower; the first WARMUP
# instances warm it before timing starts.
WARMUP = 30
# The baselines and the traced run take the first instances of the set.
BASELINE_INSTANCES = 100
TRACED_INSTANCES = 120

# The gated end-to-end metrics and their units; the report prints more.
END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "formula.clause_checks",
    "formula.active_ids_calls",
    "formula.checks_per_decision",
    "formula.s",
    "formula.clauses_added",
    "dsequent.generated",
    "dsequent.final",
    "dsequent.reused",
    "dsequent.hints",
    "dsequent.lookups",
    "dsequent.reuse_ratio",
    "dsequent.s",
    "satcore.calls",
    "satcore.s",
    "satcore.baseline_calls",
    "satcore.baseline_s",
    "solver.self_s",
    "solver.decisions",
    "solver.conflicts",
    "solver.primaries",
    "solver.max_target_depth",
    "solver.consistency_recoveries",
    "solver.sat_fallbacks",
    "solver.sat_witness",
    "solver.sat_fallbacks_per_primary",
    "io.parse_s",
    "harness.gen_s",
    "oracle.check_s",
    "trace.overhead_ratio",
)

TRACE_DIR = ".perfbench"


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p (at most one decimal) among n values."""
    return max(1, -(-n * round(p * 10) // 1000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(len(ordered), p) - 1]


def highest_percentile(n: int) -> Optional[float]:
    """The highest of p90, p99, p99.9 with at least 10 of n samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n - _rank(n, p) >= 10:
            best = p
    return best


@dataclass
class Solve:
    seconds: float
    ok: bool  # an answer came back and the reference accepted it


@dataclass
class EngineRunner:
    """Runs the timed path and checks each answer and its determinism."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)  # wrong, crashed or nondeterministic
    notes: List[str] = field(default_factory=list)  # resource limits
    seen: Dict[int, Tuple[str, tuple]] = field(default_factory=dict)  # cid -> (answer, stats)
    answer_sizes: Dict[int, int] = field(default_factory=dict)
    stats: Dict[int, dict] = field(default_factory=dict)

    def solve(self, case: Case) -> Solve:
        """parse -> solve -> write, as `pqe solve FILE` does; only that is timed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            problem = pqeio.parse_pqe(case.text)
            result = solver.solve_pqe(problem, CONFIG)
            text = pqeio.write_solution(result.f1_star)
        except ResourceLimit as e:
            self.notes.append(self._where(case, f"resource limit: {e}"))
            return self._failed(t0)
        except Exception as e:  # a crash fails this solve; the run reports it and goes on
            self.errors.append(self._where(case, "raised " + traceback.format_exception_only(e)[-1].strip()))
            return self._failed(t0)
        seconds = time.perf_counter() - t0
        answer = pqeio.parse_solution(text)
        if not workloads.answer_ok(case, answer):
            self.errors.append(self._where(case, "answer rejected by the reference"))
            self.failed += 1
            return Solve(seconds, False)
        stats = {k: v for k, v in result.stats.items() if k != "wall_time_s"}
        key = (text, tuple(sorted(stats.items())))
        if self.seen.setdefault(case.cid, key) != key:
            self.errors.append(self._where(case, "answer or stats differ from an earlier solve"))
            self.failed += 1
            return Solve(seconds, False)
        self.answer_sizes[case.cid] = len(answer)
        self.stats[case.cid] = stats
        return Solve(seconds, True)

    def _failed(self, t0: float) -> Solve:
        self.failed += 1
        return Solve(time.perf_counter() - t0, False)

    def _where(self, case: Case, what: str) -> str:
        return f"{self.workload} seed {self.seed} instance {case.cid} (generator seed {case.seed}): {what}"

    def fingerprint(self) -> str:
        """Digest of every distinct instance's answer and stats (wall time excluded)."""
        blob = json.dumps([[cid, *self.seen[cid]] for cid in sorted(self.seen)])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def counter_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for stats in self.stats.values():
            for k, v in stats.items():
                totals[k] = totals.get(k, 0) + v
        return dict(sorted(totals.items()))


def warm_up(runner: EngineRunner, cases: Sequence[Case]) -> None:
    for case in cases[:WARMUP]:
        runner.solve(case)


def setup(workload: Workload, seed: int) -> Tuple[List[Case], List[float]]:
    """Set up SETUP_REPEATS times; every repeat must build the same instances."""
    cases: List[Case] = []
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = workloads.setup(workload, seed)
        times.append(time.perf_counter() - t0)
        if cases and again != cases:
            raise RuntimeError(f"{workload.name} seed {seed}: set-up is not deterministic")
        cases = again
    if len(cases) < MIN_INSTANCES:
        raise RuntimeError(f"{workload.name}: {len(cases)} instances, fewer than {MIN_INSTANCES}")
    return cases, times


def timed_solves(runner: EngineRunner, cases: Sequence[Case], seconds: float) -> Tuple[List[float], float, int]:
    """Solve the cases in order, round and round, until ``seconds`` have gone by.

    Returns the times of accepted solves, the time of all timed solves and
    the number of solves.
    """
    samples: List[float] = []
    spent = 0.0
    solves = 0
    start = time.perf_counter()
    while solves == 0 or time.perf_counter() - start < seconds:
        s = runner.solve(cases[solves % len(cases)])
        spent += s.seconds
        solves += 1
        if s.ok:
            samples.append(s.seconds)
    return samples, spent, solves


@dataclass
class BaselineTally:
    seconds: Dict[str, List[float]] = field(default_factory=dict)
    status: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return sum(sum(c.values()) for c in self.status.values())

    @property
    def failed(self) -> int:
        return sum(n for c in self.status.values() for s, n in c.items() if s != "ok")


def run_baselines(workload: Workload, seed: int, cases: Sequence[Case]) -> BaselineTally:
    tally = BaselineTally()
    for case in cases:
        for name, call in workloads.baselines(workload, case).items():
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as e:  # reported as a wrong baseline answer
                result, status = None, "wrong"
                tally.errors.append(f"{workload.name} seed {seed} instance {case.cid}: {name} raised {e!r}")
            seconds = time.perf_counter() - t0
            if result is not None:
                status = workloads.baseline_status(case, result)
                if status == "wrong":
                    tally.errors.append(
                        f"{workload.name} seed {seed} instance {case.cid} (generator seed {case.seed}): "
                        f"{name} answer rejected by the reference"
                    )
            tally.seconds.setdefault(name, []).append(seconds)
            counts = tally.status.setdefault(name, {})
            counts[status] = counts.get(status, 0) + 1
    return tally


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:34} {shown:>12} {unit:6} {note}".rstrip()


def _header(workload: Workload, seed: int, cases: Sequence[Case], traced: bool) -> List[str]:
    lines = [
        f"perfbench workload={workload.name} seed={seed} trace={int(traced)}",
        f"  instances {len(cases)} x {workload.size}; 1 process, 1 caller, closed loop, no threads",
    ]
    if workload.kind == "circuit":
        fibres = sorted(c.fibre for c in cases)
        lines.append(
            f"  fibre (input vectors reaching z): median {statistics.median(fibres)}, max {fibres[-1]}"
        )
    return lines


def run_untraced(workload: Workload, seed: int, seconds: float) -> Tuple[dict, List[str], EngineRunner, List[str]]:
    if tracing.installed_count():
        raise RuntimeError("tracing wrappers installed before an untraced run")
    cases, setup_times = setup(workload, seed)
    runner = EngineRunner(workload.name, seed)
    warm_up(runner, cases)
    samples, spent, solves = timed_solves(runner, cases, seconds)
    base = run_baselines(workload, seed, cases[:BASELINE_INSTANCES])
    wrapped = tracing.installed_count()
    if wrapped:
        raise RuntimeError(f"{wrapped} tracing wrappers installed during an untraced run")

    n = len(samples)
    if not n:
        raise RuntimeError(f"{workload.name} seed {seed}: no timed solve was accepted")
    top = highest_percentile(n)
    values = {
        "solve_s_p50": statistics.median(samples),
        "solve_s_p90": percentile(samples, 90),
        "solves_per_s": n / spent,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = _header(workload, seed, cases, traced=False)
    beyond = "" if top else " (fewer than 10 samples beyond p90)"
    lines += [
        _line("solve_s_p50", values["solve_s_p50"], "s", f"n={n}"),
        _line("solve_s_p90", values["solve_s_p90"], "s", f"n={n}{beyond}"),
    ]
    if top and top > 90:
        lines.append(_line(f"solve_s_p{top:g}", percentile(samples, top), "s", f"n={n}"))
    lines += [
        _line("solves_per_s", values["solves_per_s"], "1/s", f"{n} answers in {spent:.3f} s, {workload.size}"),
        _line(
            "failed_ratio",
            runner.failed / runner.attempted,
            "ratio",
            f"{runner.failed}/{runner.attempted} engine solves (warm-up included)",
        ),
        _line("sol_clauses", sum(runner.answer_sizes.values()), "count", f"{len(runner.answer_sizes)} instances"),
    ]
    for name, secs in base.seconds.items():
        lines.append(_line(f"{name}_s_p50", statistics.median(secs), "s", f"n={len(secs)}"))
    outcome = ", ".join(f"{m} {dict(sorted(c.items()))}" for m, c in base.status.items())
    lines += [
        _line("baseline_failed_ratio", base.failed / base.runs, "ratio", f"{base.failed}/{base.runs}: {outcome}"),
        _line("setup_s", values["setup_s"], "s", f"median of {SETUP_REPEATS}"),
        _line("peak_rss_mb", values["peak_rss_mb"], "MB"),
        f"  timed: {solves} solves of {len(cases)} instances; tracing wrappers installed: {wrapped}",
    ]
    return values, lines, runner, base.errors


def layer_metrics(
    runner_stats: Sequence[dict],
    solve: tracing.Trace,
    setup_trace: tracing.Trace,
    base: tracing.Trace,
    n_cases: int,
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; counts and seconds are per solve."""
    n = len(runner_stats)

    def stat(key):
        return sum(s.get(key, 0) for s in runner_stats)

    leaves = solve.leaf_totals("solver.solve_pqe")

    def calls(*names):
        return sum(leaves.get(name, (0, 0.0))[0] for name in names)

    def layer_secs(prefix):
        return sum(v[1] for name, v in leaves.items() if name.startswith(prefix))

    checks = calls("formula.clause_falsified", "formula.unit_literal", "formula.clause_satisfied")
    lookups = calls("dsequent.records_for")
    sat_calls, sat_s = solve.span_totals("satcore.engine")
    base_calls, base_s = base.span_totals("satcore.baseline")
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "formula.clause_checks": checks / n,
        "formula.active_ids_calls": calls("formula.active_ids") / n,
        "formula.checks_per_decision": ratio(checks, stat("decisions")),
        "formula.s": layer_secs("formula.") / n,
        "formula.clauses_added": (stat("clauses_added_f1") + stat("clauses_added_f2")) / n,
        "dsequent.generated": stat("dseq_generated") / n,
        "dsequent.final": stat("dseq_final") / n,
        "dsequent.reused": stat("dseq_reused") / n,
        "dsequent.hints": stat("deactivation_hints") / n,
        "dsequent.lookups": lookups / n,
        "dsequent.reuse_ratio": ratio(stat("dseq_reused") + stat("deactivation_hints"), lookups),
        "dsequent.s": layer_secs("dsequent.") / n,
        "satcore.calls": sat_calls / n,
        "satcore.s": sat_s / n,
        "satcore.baseline_calls": base_calls / n_cases,
        "satcore.baseline_s": base_s / n_cases,
        "solver.self_s": solve.self_seconds("solver.solve_pqe") / n,
        "solver.decisions": stat("decisions") / n,
        "solver.conflicts": stat("conflicts") / n,
        "solver.primaries": stat("primaries_proved") / n,
        "solver.max_target_depth": stat("max_target_depth") / n,
        "solver.consistency_recoveries": stat("consistency_recoveries") / n,
        "solver.sat_fallbacks": stat("duplicates") / n,
        "solver.sat_witness": stat("dseq_sat_witness") / n,
        "solver.sat_fallbacks_per_primary": ratio(stat("duplicates"), stat("primaries_proved")),
        "io.parse_s": solve.span_totals("io.parse_pqe")[1] / n,
        "harness.gen_s": setup_trace.layer_seconds("harness"),
        "oracle.check_s": setup_trace.layer_seconds("oracle"),
        "trace.overhead_ratio": overhead,
    }


def layer_unit(name: str) -> str:
    if name.endswith("ratio") or name.endswith("per_decision") or name.endswith("per_primary"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run_traced(workload: Workload, seed: int, root: Path) -> Tuple[dict, List[str], EngineRunner, List[str]]:
    """An untraced pass, then the same pass traced; counters must agree."""
    if tracing.installed_count():
        raise RuntimeError("tracing wrappers installed before the untraced pass")
    cases = workloads.setup(workload, seed)
    timed = cases[:TRACED_INSTANCES]
    runner = EngineRunner(workload.name, seed)
    warm_up(runner, timed)
    untraced = sum(runner.solve(case).seconds for case in timed)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        if workloads.setup(workload, seed) != cases:
            raise RuntimeError(f"{workload.name} seed {seed}: traced set-up built other instances")
        setup_trace = tracer.take()
        traced_runner = EngineRunner(workload.name, seed, seen=runner.seen)
        traced = 0.0
        for case in timed:
            tracer.instance = case.cid
            traced += traced_runner.solve(case).seconds
        tracer.instance = None
        solve_trace = tracer.take()
        base_cases = timed[:BASELINE_INSTANCES]
        base = run_baselines(workload, seed, base_cases)
        base_trace = tracer.take()
    finally:
        tracer.uninstall()
    if tracing.installed_count():
        raise RuntimeError("tracing wrappers left installed")

    stats = [traced_runner.stats[c.cid] for c in timed if c.cid in traced_runner.stats]
    values = layer_metrics(stats, solve_trace, setup_trace, base_trace, len(base_cases), traced / untraced - 1)
    out = root / TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    payload = {"workload": workload.name, "seed": seed}
    for phase, trace in (("setup", setup_trace), ("solve", solve_trace), ("baselines", base_trace)):
        payload[phase] = trace.to_json()
    out.write_text(json.dumps(payload))

    lines = _header(workload, seed, cases, traced=True)
    lines += [_line(name, values[name], layer_unit(name)) for name in PER_LAYER]
    lines.append(f"  per solve over {len(stats)} traced solves; spans written to {out.relative_to(root)}")
    runner.attempted += traced_runner.attempted
    runner.failed += traced_runner.failed
    runner.errors += traced_runner.errors
    runner.notes += traced_runner.notes
    return values, lines, runner, base.errors


def _args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]], root: Path) -> int:
    args = _args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, lines, runner, base_errors = run_traced(workload, args.seed, root)
        units = {n: layer_unit(n) for n in PER_LAYER}
    else:
        values, lines, runner, base_errors = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END
    lines.append(f"  fingerprint {runner.fingerprint()} over {len(runner.seen)} instances (answers and stats)")
    lines.append("  counters " + " ".join(f"{k}={v}" for k, v in runner.counter_totals().items()))
    errors = runner.errors + base_errors
    for msg in runner.notes + errors:
        lines.append("  FAILED " + msg)
    print("\n".join(lines))
    result = {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1
