import os

import pytest

from pqe import harness
from pqe.cli import GOLDEN_INSTANCE, main


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.pqe"
    path.write_text(GOLDEN_INSTANCE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_solution_on_stdout(self, capsys, golden_file):
        code, out, _ = run(capsys, "solve", golden_file)
        assert code == 0
        assert out == "s pqe 1\n3 0\n"

    def test_deterministic_output(self, capsys, golden_file):
        _, out1, _ = run(capsys, "solve", golden_file)
        _, out2, _ = run(capsys, "solve", golden_file)
        assert out1 == out2

    def test_stats_kv_stable(self, capsys, golden_file):
        code, out, err1 = run(capsys, "solve", golden_file, "--stats=kv")
        assert code == 0
        _, _, err2 = run(capsys, "solve", golden_file, "--stats=kv")
        assert err1 == err2
        assert "decisions=1" in err1
        assert "wall_time" not in err1

    def test_stats_full_includes_time(self, capsys, golden_file):
        _, _, err = run(capsys, "solve", golden_file, "--stats")
        assert "wall_time_ms=" in err

    def test_trace_emitted(self, capsys, golden_file):
        code, out, err = run(capsys, "solve", golden_file, "--trace")
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("DS ")]
        assert lines and all(" RULE " in l for l in lines)

    def test_no_learn_flag(self, capsys, golden_file):
        code, out, _ = run(capsys, "solve", golden_file, "--learn-k", "-1")
        assert code == 0 and out == "s pqe 1\n3 0\n"

    def test_learn_k_below_minus_1_rejected(self, capsys, golden_file):
        code, out, err = run(capsys, "solve", golden_file, "--learn-k", "-7")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "learn_depth_k" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--max-seconds", "nan", "max_seconds"),
            ("--max-seconds", "-5", "max_seconds"),
            ("--max-conflicts", "-1", "max_conflicts"),
        ],
    )
    def test_bad_budget_rejected(self, capsys, golden_file, flag, value, field):
        code, out, err = run(capsys, "solve", golden_file, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("flag, value", [("--order", "activity"), ("--polarity", "1")])
    def test_removed_branching_flags_rejected(self, capsys, golden_file, flag, value):
        code, out, _ = run(capsys, "solve", golden_file, flag, value)
        assert (code, out) == (2, "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.pqe")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.pqe"
        bad.write_text("p cnf 1 1\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2

    def test_resource_limit_exit_code(self, capsys, tmp_path):
        import random

        from pqe.io import write_pqe
        from tests.conftest import rand_problem

        rng = random.Random(1)
        for _ in range(40):
            problem = rand_problem(rng, require_x_target=True)
            path = tmp_path / "hard.pqe"
            path.write_text(write_pqe(problem))
            code, _, _ = run(capsys, "solve", str(path), "--max-conflicts", "0")
            if code == 3:
                return
        pytest.fail("never hit the conflict budget")


class TestVerify:
    def test_accepts_valid(self, capsys, golden_file, tmp_path):
        code, out, _ = run(capsys, "solve", golden_file)
        sol = tmp_path / "sol.txt"
        sol.write_text(out)
        code, out, _ = run(capsys, "verify", golden_file, str(sol))
        assert code == 0 and "OK" in out

    def test_accepts_equivalent_not_identical(self, capsys, golden_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("s pqe 2\n3 0\n3 3 0\n".replace("3 3", "3"))
        # two copies of the same clause: equivalent, not byte-identical
        sol.write_text("s pqe 2\n3 0\n3 0\n")
        code, out, _ = run(capsys, "verify", golden_file, str(sol))
        assert code == 0

    def test_rejects_corrupted(self, capsys, golden_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("s pqe 0\n")
        code, out, _ = run(capsys, "verify", golden_file, str(sol))
        assert code == 1 and "FAILED" in out

    def test_rejects_quantified_clause(self, capsys, golden_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("s pqe 1\n1 0\n")
        code, _, err = run(capsys, "verify", golden_file, str(sol))
        assert code == 1

    def test_undeclared_variable_is_input_error(self, capsys, golden_file, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("s pqe 1\n3 99 0\n")
        code, _, err = run(capsys, "verify", golden_file, str(sol))
        assert code == 2
        assert err.startswith("error: ") and "99" in err


class TestGen:
    def test_circuit_manifest_and_solvable(self, capsys, tmp_path):
        out_file = tmp_path / "c.pqe"
        code, out, _ = run(
            capsys, "gen", "circuit", "--inputs", "3", "--gates", "5", "--seed", "2",
            "-o", str(out_file),
        )
        assert code == 0
        fields = out.split()
        assert len(fields) == 6 and fields[4] == "det" and fields[5] == str(out_file)
        code, out, _ = run(capsys, "solve", str(out_file))
        assert code == 0

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.pqe", tmp_path / "b.pqe"
        run(capsys, "gen", "circuit", "--inputs", "3", "--gates", "5", "--seed", "2", "-o", str(a))
        run(capsys, "gen", "circuit", "--inputs", "3", "--gates", "5", "--seed", "2", "-o", str(b))
        assert a.read_text() == b.read_text()

    def test_gen_circuit_simulates_once(self, capsys, tmp_path, monkeypatch):
        # every sink is an output, so one simulation per output would make
        # generation quadratic in the gate count
        calls = []
        simulate = harness.simulate

        def counting(circuit, inputs):
            calls.append(len(circuit.outputs))
            return simulate(circuit, inputs)

        monkeypatch.setattr(harness, "simulate", counting)
        code, _, _ = run(capsys, "gen", "circuit", "--inputs", "4", "--gates", "12",
                         "-o", str(tmp_path / "c.pqe"))
        assert code == 0
        assert len(calls) == 1 and calls[0] > 1

    def test_gen_satred(self, capsys, tmp_path):
        out_file = tmp_path / "s.pqe"
        code, out, _ = run(
            capsys, "gen", "satred", "--vars", "6", "--clauses", "12", "--seed", "4",
            "-o", str(out_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", str(out_file))
        assert code == 0
        assert out in ("s pqe 0\n", "s pqe 1\n0\n")

    @pytest.mark.parametrize(
        "flag, value",
        [("--vars", "0"), ("--vars", "-3"), ("--clauses", "-2")],
    )
    def test_gen_satred_rejects_bad_sizes(self, capsys, tmp_path, flag, value):
        out_file = tmp_path / "s.pqe"
        sizes = {"--vars": "6", "--clauses": "3", flag: value}
        args = [a for kv in sizes.items() for a in kv]
        code, out, err = run(capsys, "gen", "satred", *args, "-o", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err
        assert not out_file.exists()

    def test_gen_satred_accepts_no_clauses(self, capsys, tmp_path):
        out_file = tmp_path / "s.pqe"
        code, _, _ = run(capsys, "gen", "satred", "--vars", "1", "--clauses", "0",
                         "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "solve", str(out_file))
        assert code == 0

    def test_gen_drop_marks_nondet(self, capsys, tmp_path):
        out_file = tmp_path / "d.pqe"
        code, out, _ = run(
            capsys, "gen", "circuit", "--inputs", "3", "--gates", "8", "--seed", "2",
            "--drop", "0.3", "-o", str(out_file),
        )
        assert code == 0 and out.split()[4] == "nondet"


class TestCompare:
    def test_table_rows(self, capsys, tmp_path):
        out_file = tmp_path / "c.pqe"
        run(capsys, "gen", "circuit", "--inputs", "3", "--gates", "4", "--seed", "1",
            "-o", str(out_file))
        code, out, _ = run(capsys, "compare", str(out_file), "--methods", "pqe,m1,m2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + three rows
        assert lines[1].startswith("pqe") and lines[2].startswith("m1")

    def test_inapplicable_row(self, capsys, tmp_path):
        # output gate completely unconstrained: the lift query is satisfiable
        text = "p pqe 4 1 2\ne 3 4 0\n-4 0\n-1 3 0\n-2 3 0\n"
        path = tmp_path / "nondet.pqe"
        path.write_text(text)
        code, out, _ = run(capsys, "compare", str(path), "--methods", "m2")
        assert code == 0
        assert "inapplicable" in out

    def test_unknown_method(self, capsys, golden_file):
        code, _, err = run(capsys, "compare", golden_file, "--methods", "zz")
        assert code == 2

    @pytest.mark.parametrize("methods", ["pqe,zz", ","])
    def test_bad_methods_rejected_before_any_method_runs(self, capsys, golden_file, methods):
        code, out, err = run(capsys, "compare", golden_file, "--methods", methods)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("methods", ["pqe,m1,m2", "m2"])
    def test_non_circuit_rejected_before_any_row(self, capsys, tmp_path, methods):
        path = tmp_path / "s.pqe"
        run(capsys, "gen", "satred", "--vars", "6", "--clauses", "20", "--seed", "2",
            "-o", str(path))
        code, out, err = run(capsys, "compare", str(path), "--methods", methods)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "output-vector" in err
        code, out, _ = run(capsys, "compare", str(path), "--methods", "pqe")
        assert code == 0 and out.splitlines()[1].startswith("pqe")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_bad_budget_rejected(self, capsys, golden_file, budget):
        code, out, err = run(capsys, "compare", golden_file, "--budget", budget)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--budget" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "golden-solve: PASS" in out
        assert "FAIL" not in out


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2


def test_shipped_golden_file_matches_embedded():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "benchmarks", "golden_basic.pqe")) as fh:
        assert fh.read() == GOLDEN_INSTANCE
