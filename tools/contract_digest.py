"""Digest of the engine's observable behaviour on a fixed batch.

Run from the root of a checkout:

    python3 tools/contract_digest.py

Prints ``<pairs> <sha256>``: the number of instance/config pairs solved and
the SHA-256 of every pair's answer, ``--stats=kv`` lines (made by
``pqe.cli.stats_kv``, as ``pqe solve`` makes them) and ``DS`` trace lines.
Two commits whose engines answer, count and learn alike print the same
digest, so a refactor that must not change behaviour is checked by running
this script on both commits. Sixteen lines follow, one per batch
section and config, ``<section> <config> <pairs> <sha256>``, each hashing
the same text for that section's pairs alone: a diff of two outputs names
the sections a change moved.

Each pair is solved twice: with an ``on_dsequent`` observer that formats
each record's ``DS`` line and reads the live formula (``live()``) it was
derived in, and with no observer. The script exits 1 if the answers or
counters of the two runs differ, since an observer must not steer the
search. It also exits 1 on a wrong answer, naming the instance
and config: a workload answer is checked against the perfbench reference
(``workloads.answer_ok``), a random one by the enumeration oracle
(``oracle.verify_pqe_solution``). A digest that prints is therefore one of
right answers, not only of unchanged ones.

Batch: the first 120 instances of the perfbench workloads circuit-wide,
circuit-cone and satred at seed 13, and 300 ``pqe.harness.rand_problem``
instances drawn from ``Random(2024)``, each under the four configs of
CONFIGS. It takes about 50 seconds on one core and needs no test
dependencies.
"""

import dataclasses
import functools
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from pqe import dsequent  # noqa: E402
from pqe import io as pqeio  # noqa: E402
from pqe import oracle  # noqa: E402
from pqe.cli import stats_kv  # noqa: E402
from pqe.harness import rand_problem  # noqa: E402
from pqe.solver import SolverConfig, solve_pqe  # noqa: E402

SEED = 13
PER_WORKLOAD = 120
RANDOM_INSTANCES = 300

CONFIGS = {
    "default": SolverConfig(),
    "learn-k=-1": SolverConfig(learn_depth_k=-1),
    "learn-k=1": SolverConfig(learn_depth_k=1),
    "learn-k=2": SolverConfig(learn_depth_k=2),
}


def _oracle_ok(problem, answer) -> bool:
    return oracle.verify_pqe_solution(problem.f1, problem.f2, problem.x_vars, answer)


def batch():
    """(name, problem, check) for every instance of the batch, in a fixed
    order; ``check(answer)`` tells whether an answer is right."""
    for name in ("circuit-wide", "circuit-cone", "satred"):
        # setup draws slot by slot, so a shorter workload gives its first slots
        first = dataclasses.replace(workloads.WORKLOADS[name], count=PER_WORKLOAD)
        for case in workloads.setup(first, SEED):
            check = functools.partial(workloads.answer_ok, case)
            yield f"{name}:{case.cid}", pqeio.parse_pqe(case.text), check
    rng = random.Random(2024)
    for i in range(RANDOM_INSTANCES):
        problem = rand_problem(rng)
        yield f"random:{i}", problem, functools.partial(_oracle_ok, problem)


def observable(problem, config, on_dsequent=None):
    """The answer, and its text with the ``--stats=kv`` lines, of one solve."""
    res = solve_pqe(problem, config, on_dsequent)
    return res.f1_star, pqeio.write_solution(res.f1_star) + stats_kv(res.stats)


def main() -> int:
    digest = hashlib.sha256()
    sections = {}  # (section, config) -> [pairs, sha256], in batch order
    pairs = 0
    for name, problem, check in batch():
        section = name.split(":")[0]
        for label, config in CONFIGS.items():
            lines = []

            def show(ds, live):
                lines.append(dsequent.trace_line(ds))
                live()

            answer, traced = observable(problem, config, show)
            if not check(answer):
                print(f"{name} {label}: wrong answer", file=sys.stderr)
                return 1
            if observable(problem, config)[1] != traced:
                print(f"{name} {label}: the observer changed the search", file=sys.stderr)
                return 1
            ds = "".join(line + "\n" for line in lines)
            text = f"{name} {label}\n{traced}{ds}".encode()
            digest.update(text)
            part = sections.setdefault((section, label), [0, hashlib.sha256()])
            part[0] += 1
            part[1].update(text)
            pairs += 1
    print(pairs, digest.hexdigest())
    for (section, label), (n, part_digest) in sections.items():
        print(section, label, n, part_digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
