"""Pinned answers and search counters on a fixed batch.

The determinism tests compare two runs of the same code, so a change that
moves a counter passes them. This test compares against values recorded
once, through the command line as a user runs it: `pqe gen` builds each
instance and `pqe solve FILE --stats=kv --trace` solves it. `trace_sha256`
is the SHA-256 of the `DS` trace lines, each ended by a newline, so the
order and content of every D-sequent are pinned too. The same answers and
counters are pinned for the solve without `--trace`, where the engine
builds no record it does not keep. A change that moves any answer, counter
or trace line here must say why and re-record the file.

Batch: the shipped golden instance, `gen circuit --inputs 7 --gates 45` and
`gen satred --vars 12 --clauses 51`, each with seeds 1-5, and the circuits
of seeds 83 and 96, which each learn an F2-side conflict clause (the
F2-side path, `clauses_added_f2`) under most option sets, and
`gen circuit --inputs 5 --gates 10 --seed 694 --drop 0.2` (key `drop-694`),
whose one SAT fallback (`_handle_duplicate`) assumes free-variable entries
that lie above quantified ones: the only entry that pins which free
assignments a fallback keeps, and `gen satred --vars 12 --clauses 51 --seed
38` (key `satred-38`), whose one fallback under the default options is the
last branch of `_lrn_falsified`: a falsified clause other than the target
whose conflict clause is already stored, and `tests/data/cone-231.pqe` (key
`cone-231`, the perfbench circuit-cone instance of seed 1, case 231,
checked in because no `pqe gen` command builds a cone), whose two
fallbacks under the default options, `learn-k=-1` and `learn-k=2` are
consistency recoveries from a support cycle: partner records that admit no
application order. Each instance is pinned under the
default options (key: the instance name) and under each option set of
CONFIGS (key: instance name, a space, the CONFIGS label).

One wide instance, `gen circuit --inputs 20 --gates 2000 --seed 0`, is
pinned under the default options only (key `wide-0`). The batch above has
short conditionals; this one joins 1,597 times, so it pins the order in
which `_rewrite` eliminates a wide conditional's assignments.

The entries labelled `polarity=1` were recorded when the engine could try
value 1 first at each decision. Branching now always tries value 0 first, so
these entries solve the mirrored instance, every literal negated, and negate
the literals of the answer and of each `DS` conditional back. The mirrored
search makes exactly the choices of the value-1-first search on the original,
so these entries pin that the engine treats both signs of a variable alike.
"""

import hashlib
import json
import os

import pytest

from pqe.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(os.path.dirname(HERE), "benchmarks", "golden_basic.pqe")

with open(os.path.join(HERE, "data", "golden_counters.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)

GEN = {
    "circuit": ["circuit", "--inputs", "7", "--gates", "45"],
    "satred": ["satred", "--vars", "12", "--clauses", "51"],
    "wide": ["circuit", "--inputs", "20", "--gates", "2000"],
    "drop": ["circuit", "--inputs", "5", "--gates", "10", "--drop", "0.2"],
}

F2_SIDE = {"circuit-83", "circuit-96"}

FALLBACK = {"drop-694", "satred-38", "cone-231"}

CHECKED_IN = {"cone-231"}  # instance files in tests/data

WIDE = {"wide-0"}  # default options only

CONFIGS = {
    "learn-k=-1": ["--learn-k", "-1"],
    "learn-k=2": ["--learn-k", "2"],
    "polarity=1": [],
}

MIRRORED = {"polarity=1"}


def _negate(tokens):
    return [str(-int(t)) for t in tokens]


def _mirror_instance(path, tmp_path):
    """Write the instance at ``path`` with every literal negated; return the new path."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = [line if line[:1] in ("c", "p", "e") else " ".join(_negate(line.split()[:-1]) + ["0"])
           for line in lines if line.strip()]
    mirrored = str(tmp_path / "mirrored.pqe")
    with open(mirrored, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return mirrored


def _mirror_ds(line):
    toks = line.split()
    q, h = toks.index("Q"), toks.index("H")
    return " ".join(toks[: q + 1] + _negate(toks[q + 1 : h - 1]) + toks[h - 1 :])


def _mirror_solution(text):
    header, *clauses = text.splitlines()
    return "".join(line + "\n" for line in
                   [header, *(" ".join(_negate(c.split()[:-1]) + ["0"]) for c in clauses)])


def _instance(name, tmp_path, capsys):
    if name == "golden":
        return GOLDEN_PATH
    if name in CHECKED_IN:
        return os.path.join(HERE, "data", f"{name}.pqe")
    kind, seed = name.split("-")
    path = str(tmp_path / f"{name}.pqe")
    assert main(["gen", *GEN[kind], "--seed", seed, "-o", path]) == 0
    capsys.readouterr()
    return path


def test_batch_is_complete():
    names = {"golden"} | {f"{k}-{s}" for k in ("circuit", "satred") for s in range(1, 6)}
    names |= F2_SIDE | FALLBACK
    assert set(PINNED) == names | {f"{n} {c}" for n in names for c in CONFIGS} | WIDE
    assert all(PINNED[n]["stats"]["clauses_added_f2"] == 1 for n in F2_SIDE)
    assert all(PINNED[n]["stats"]["sat_calls"] >= 1 for n in FALLBACK)


def _solve(name, tmp_path, capsys, *flags):
    """Solution text, kv stats and DS lines of ``pqe solve`` on a pinned entry."""
    instance, _, config = name.partition(" ")
    path = _instance(instance, tmp_path, capsys)
    mirrored = config in MIRRORED
    if mirrored:
        path = _mirror_instance(path, tmp_path)
    assert main(["solve", path, *(CONFIGS[config] if config else []), "--stats=kv", *flags]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    ds_lines = [line for line in lines if line.startswith("DS ")]
    if mirrored:
        ds_lines = [_mirror_ds(line) for line in ds_lines]
    ds = "".join(line + "\n" for line in ds_lines)
    stats = {k: int(v) for k, v in (line.split("=", 1) for line in lines if not line.startswith("DS "))}
    return _mirror_solution(captured.out) if mirrored else captured.out, stats, ds


@pytest.mark.parametrize("name", sorted(PINNED))
def test_answer_and_counters_pinned(name, tmp_path, capsys):
    solution, stats, ds = _solve(name, tmp_path, capsys, "--trace")
    assert solution == PINNED[name]["solution"]
    assert stats == PINNED[name]["stats"]
    assert hashlib.sha256(ds.encode()).hexdigest() == PINNED[name]["trace_sha256"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_untraced_answer_and_counters_pinned(name, tmp_path, capsys):
    solution, stats, ds = _solve(name, tmp_path, capsys)
    assert ds == ""
    assert solution == PINNED[name]["solution"]
    assert stats == PINNED[name]["stats"]
