"""Time this checkout's engine against another checkout's, solve by solve.

Run from the root of a checkout:

    python3 tools/ab_time.py OTHER_CHECKOUT [--instances K] [--reps R]

Both ``src/pqe`` trees are copied into a temporary directory under distinct
package names (the package imports itself relatively, so each copy reads
its own modules) and loaded side by side in one process. Each instance of
the perfbench workload is then solved with both, parse + solve + write as
``pqe solve`` runs it, the one going first alternating from instance to
instance and from repetition to repetition. Speed drift of the machine
then falls on both sides alike, which two separate benchmark runs cannot
promise. A first, untimed pass solves the first 30 instances with both.

It times every workload ``BENCHMARK.json`` gates, each on its first K
instances at seed 1, built by this checkout's ``perfbench.workloads``.

Report-only: per workload it prints the total time and the per-solve p50
and p90 of each side (nearest rank, as the benchmark's gate reads them), and
their ratio, this checkout over the other (below 1 means faster here). It
exits 1 if, on any instance, the answer text or the stats (``wall_time_s``
aside) of the two differ, and 2 if OTHER_CHECKOUT has no ``src/pqe``. Run
against its own checkout it checks only that it runs.
"""

import argparse
import dataclasses
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.bench import percentile  # noqa: E402

WARMUP = 30
SEED = 1
SIDES = ("here", "other")


def load(tmp: Path, name: str, checkout: Path):
    """The ``io`` and ``solver`` modules of a checkout's package, copied as ``name``."""
    shutil.copytree(checkout / "src" / "pqe", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.io"), importlib.import_module(f"{name}.solver")


def run(engine, text: str):
    """Seconds, answer text and stats of one parse + solve + write."""
    io, solver = engine
    t0 = time.perf_counter()
    result = solver.solve_pqe(io.parse_pqe(text))
    answer = io.write_solution(result.f1_star)
    seconds = time.perf_counter() - t0
    return seconds, answer, {k: v for k, v in result.stats.items() if k != "wall_time_s"}


def compare(engines, name: str, count: int, reps: int) -> bool:
    """Time one workload; False if the two sides answered differently."""
    first = dataclasses.replace(workloads.WORKLOADS[name], count=count)
    cases = workloads.setup(first, SEED)
    times = {side: [] for side in SIDES}
    for rep in range(-1, reps):  # rep -1 is the untimed warm-up
        for case in cases[:WARMUP] if rep < 0 else cases:
            order = SIDES if (case.cid + rep) % 2 else SIDES[::-1]
            out = {side: run(engines[side], case.text) for side in order}
            if out["here"][1:] != out["other"][1:]:
                print(f"{name} seed {SEED} instance {case.cid}: answers or stats differ", file=sys.stderr)
                return False
            if rep >= 0:
                for side in SIDES:
                    times[side].append(out[side][0])
    total = {side: sum(times[side]) for side in SIDES}
    p50 = {side: percentile(times[side], 50) for side in SIDES}
    p90 = {side: percentile(times[side], 90) for side in SIDES}
    print(f"{name} seed {SEED}: {len(cases)} instances x {reps} reps, same answers and stats")
    for label, value in (("total", total), ("p50", p50), ("p90", p90)):
        print(f"  {label:5} here {value['here']:.6f} s  other {value['other']:.6f} s"
              f"  ratio {value['here'] / value['other']:.3f}")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare against")
    ap.add_argument("--instances", type=int, default=300)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "pqe" / "__init__.py").is_file():
        print(f"ab_time: no program source at {other / 'src' / 'pqe'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        engines = {"here": load(Path(tmp), "pqe_ab_here", ROOT), "other": load(Path(tmp), "pqe_ab_other", other)}
        for name in names:
            if not compare(engines, name, args.instances, args.reps):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
