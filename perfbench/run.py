"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload circuit-wide --seed 1 --seconds 15 --trace 0

Prints a report, then one JSON line with the metrics. Exits 1 if any
answer is wrong, 2 if the program's source is not beside the benchmark.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    package = ROOT / "src" / "pqe"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pqe

    if Path(pqe.__file__).resolve().parent != package:
        print(f"perfbench: imported pqe from {pqe.__file__}, not {package}", file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
