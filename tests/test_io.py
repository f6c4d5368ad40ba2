import gc
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import pqe.formula
import pqe.io
from pqe.formula import canonical_lits
from pqe.io import (
    PositionedError,
    parse_pqe,
    parse_solution,
    write_pqe,
    write_solution,
)

GOLDEN = "p pqe 3 1 2\ne 1 2 0\n-1 2 0\n3 1 0\n3 -2 0\n"
VALID = [
    GOLDEN,
    "c two blocks\np pqe 6 2 2\ne 1 2 6 0\n1 -3 0\n0\n-2 4 5 0\nc mid\n2 -5 0\n",
    "p pqe 0 0 0\ne 0\n",
]


@st.composite
def mutated_instances(draw):
    """A valid instance file after one to three of: a flipped bit in a
    character, a truncation, a number replaced by a huge one, a long line.
    Positions are drawn uniformly, not from Hypothesis's small-value bias."""
    rnd = draw(st.randoms(use_true_random=False))
    text = rnd.choice(VALID)
    for _ in range(rnd.randint(1, 3)):
        kind = rnd.choice(["flip", "truncate", "huge", "long"])
        if kind == "flip" and text:
            i = rnd.randrange(len(text))
            text = text[:i] + chr(ord(text[i]) ^ 1 << rnd.randrange(8)) + text[i + 1:]
        elif kind == "truncate":
            text = text[: rnd.randint(0, len(text))]
        elif kind == "huge":
            numbers = list(re.finditer(r"\d+", text))
            if numbers:
                m = rnd.choice(numbers)
                big = rnd.choice(["9" * 11, str(2**63), "1" * 5000])
                text = text[: m.start()] + big + text[m.end():]
        else:
            lines = text.split("\n")
            lit = rnd.choice(["1", "-2", "x"])
            line = " ".join([lit] * rnd.randint(1000, 20000)) + " 0"
            lines.insert(rnd.randint(min(2, len(lines)), len(lines)), line)
            text = "\n".join(lines)
    return text


# three shapes whose size grows with n: many clause lines, one long clause,
# and one long quantifier line
SCALED = {
    "clause-lines": lambda n: (
        f"p pqe {n + 1} 1 {n - 1}\ne 1 0\n" + "".join(f"{i} -{i + 1} 0\n" for i in range(1, n + 1))
    ),
    "long-clause": lambda n: f"p pqe {n} 1 0\ne 1 0\n" + " ".join(map(str, range(1, n + 1))) + " 0\n",
    "long-e-line": lambda n: (
        f"p pqe {n + 1} 1 0\ne " + " ".join(map(str, range(1, n + 1))) + f" 0\n1 {n + 1} 0\n"
    ),
}


def _parse_peak(text):
    # a full collection empties the free lists, which would otherwise serve
    # a varying share of a small parse's allocations untraced
    gc.collect()
    tracemalloc.start()
    try:
        parse_pqe(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _parse_best_time(text, runs=3):
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        parse_pqe(text)
        best = min(best, time.perf_counter() - t0)
    return best


class TestParse:
    def test_golden(self):
        p = parse_pqe(GOLDEN)
        assert sorted(p.x_vars) == [1, 2]
        assert sorted(p.y_vars) == [3]
        assert p.f1 == ((-1, 2),)
        assert p.f2 == ((1, 3), (-2, 3))

    def test_empty_problem(self):
        p = parse_pqe("p pqe 0 0 0\ne 0\n")
        assert p.f1 == () and p.f2 == () and not p.x_vars and not p.y_vars

    def test_comments_and_missing_final_newline(self):
        text = "c hello\np pqe 2 1 0\nc mid\ne 1 0\n1 -2 0"
        p = parse_pqe(text)
        assert p.f1 == ((1, -2),)

    def test_tautology_rejected(self):
        # positioned at the clashing literal
        with pytest.raises(PositionedError, match="both polarities of 1") as e:
            parse_pqe("p pqe 1 1 0\ne 1 0\n1 -1 0\n")
        assert (e.value.line, e.value.col) == (3, 3)

    @pytest.mark.parametrize(
        "line, message",
        [("1 -1 x 0", "tautological clause"), ("1 x -1 0", "expected an integer")],
        ids=["tautology-first", "non-integer-first"],
    )
    def test_first_fault_in_token_order_is_reported(self, line, message):
        with pytest.raises(PositionedError, match=message) as e:
            parse_pqe(f"p pqe 1 1 0\ne 1 0\n{line}\n")
        assert (e.value.line, e.value.col) == (3, 3)

    def test_clause_line_read_as_written_is_canonicalised(self):
        # a leading + is accepted, as DIMACS readers such as MiniSat accept it
        p = parse_pqe("p pqe 3 2 0\ne 1 0\n3 -1 3 0\n+3 2 0\n")
        assert p.f1 == ((-1, 3), (2, 3))

    def test_each_clause_line_is_canonicalised_once(self, monkeypatch):
        calls = []

        def counting(lits):
            calls.append(lits)
            return canonical_lits(lits)

        monkeypatch.setattr(pqe.formula, "canonical_lits", counting)
        monkeypatch.setattr(pqe.io, "canonical_lits", counting)
        parse_pqe("p pqe 4 2 3\ne 1 2 0\n-1 2 0\n3 1 0\n3 -2 0\n4 -3 0\n0\n")
        assert len(calls) == 5

    def test_var_out_of_range(self):
        with pytest.raises(PositionedError, match="variable 3 out of range") as e:
            parse_pqe("p pqe 2 1 0\ne 1 0\n1 -3 0\n")
        assert e.value.line == 3 and e.value.col == 3

    def test_duplicate_quantifier(self):
        with pytest.raises(PositionedError, match="duplicate quantifier for 1") as e:
            parse_pqe("p pqe 2 0 0\ne 1 1 0\n")
        assert e.value.line == 2

    def test_bad_header(self):
        with pytest.raises(PositionedError, match="expected header 'p pqe") as e:
            parse_pqe("p cnf 3 1\n")
        assert e.value.line == 1

    def test_unterminated_clause(self):
        with pytest.raises(PositionedError, match="clause line must end with 0") as e:
            parse_pqe("p pqe 2 1 0\ne 1 0\n1 -2\n")
        assert e.value.line == 3

    def test_wrong_clause_count(self):
        with pytest.raises(PositionedError, match="expected 2 clause lines, found 1"):
            parse_pqe("p pqe 2 2 0\ne 1 0\n1 0\n")

    def test_empty_clause_line(self):
        p = parse_pqe("p pqe 2 1 0\ne 1 0\n0\n")
        assert p.f1 == ((),)

    def test_non_integer(self):
        with pytest.raises(PositionedError, match="expected an integer, got 'x'") as e:
            parse_pqe("p pqe 2 1 0\ne 1 0\n1 x 0\n")
        assert (e.value.line, e.value.col) == (3, 3)

    @pytest.mark.parametrize(
        "text, where",
        [("p pqe 2 1 0\ne 1 0\n1 x 0\n", (3, 3)),
         ("p pqe 2 1 0\ne 1 0\n1 -3 0\n", (3, 3)),
         ("p pqe 2 1 0\ne 1 0\n1 0 2 0\n", (3, 3)),
         ("p pqe 2 -1 0\ne 0\n", (1, 1))],
        ids=["syntax", "semantic", "zero-literal", "negative-count"],
    )
    def test_errors_share_a_positioned_base(self, text, where):
        with pytest.raises(PositionedError) as e:
            parse_pqe(text)
        assert (e.value.line, e.value.col) == where
        assert str(e.value) == f"line {where[0]}, col {where[1]}: {e.value.message}"

    @pytest.mark.parametrize(
        "text, where",
        [("p pqe 10 1 1\ne 1 0\n1_0 0\n-1 2 0\n", (3, 1)),
         ("p pqe 2 1 0\ne 1 0\n1  \u0661 0\n", (3, 4)),
         ("p pqe 1_0 0 0\ne 0\n", (1, 7)),
         ("p pqe 3 0 0\ne 1 \uff13 0\n", (2, 5))],
        ids=["clause-underscore", "clause-arabic-indic", "header-count", "e-line-fullwidth"],
    )
    def test_only_ascii_decimal_integers(self, text, where):
        with pytest.raises(PositionedError, match="expected an integer") as e:
            parse_pqe(text)
        assert (e.value.line, e.value.col) == where

    def test_duplicate_quantifier_column(self):
        with pytest.raises(PositionedError, match="duplicate quantifier for 22") as e:
            parse_pqe("p pqe 30 0 0\ne  1 22  3 22 0\n")
        assert (e.value.line, e.value.col) == (2, 12)

    def test_long_quantifier_line_keeps_every_variable(self):
        # its cost per byte is test_cost_per_byte_does_not_grow's long-e-line
        n = 20000
        text = f"p pqe {n + 1} 1 0\ne " + " ".join(map(str, range(1, n + 1))) + f" 0\n1 {n + 1} 0\n"
        p = parse_pqe(text)
        assert p.x_vars == frozenset(range(1, n + 1)) and p.y_vars == frozenset({n + 1})

    def test_free_vars_are_the_clause_vars_outside_x(self):
        # max_var only bounds literals; 7 is quantified though in no clause
        p = parse_pqe("p pqe 1000 1 1\ne 1 7 0\n1 2 0\n-1 5 0\n")
        assert p.x_vars == frozenset({1, 7})
        assert p.y_vars == frozenset({2, 5})

    def test_huge_max_var_costs_no_memory(self):
        text = "p pqe 1000000 1 1\ne 1 0\n1 2 0\n-1 3 0\n"
        assert _parse_peak(text) < 1_000_000
        assert parse_pqe(text).y_vars == frozenset({2, 3})

    @pytest.mark.parametrize("shape", sorted(SCALED))
    def test_cost_per_byte_does_not_grow(self, shape):
        # at 1x, 4x and 16x the size: peak memory per input byte may grow by
        # a quarter at most, best-of-three time per byte at most 3x (timing
        # is noisy at these sizes; both fall with size when parsing is linear)
        texts = [SCALED[shape](500 * m) for m in (1, 4, 16)]
        peaks = [_parse_peak(t) / len(t) for t in texts]
        times = [_parse_best_time(t) / len(t) for t in texts]
        assert max(peaks[1:]) <= 1.25 * peaks[0], peaks
        assert max(times[1:]) <= 3 * times[0], times

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mutated_instances())
    def test_mutated_file_parses_or_raises_positioned(self, text):
        try:
            parse_pqe(text)
        except PositionedError:
            pass


class TestRoundTrip:
    def test_golden_round_trip(self):
        p = parse_pqe(GOLDEN)
        assert parse_pqe(write_pqe(p)) == p

    def test_random_round_trip(self, rng):
        from pqe.harness import rand_problem

        for _ in range(50):
            p = rand_problem(rng)
            assert parse_pqe(write_pqe(p)) == p

    def test_comment_embedding(self):
        p = parse_pqe(GOLDEN)
        text = write_pqe(p, comment="generated for a test")
        assert text.startswith("c generated for a test\n")
        assert parse_pqe(text) == p


class TestSolution:
    def test_single_clause(self):
        assert write_solution([(3,)]) == "s pqe 1\n3 0\n"

    def test_constant_true(self):
        assert write_solution([]) == "s pqe 0\n"

    def test_constant_false(self):
        assert write_solution([()]) == "s pqe 1\n0\n"

    def test_round_trip(self):
        # a solution file declares no variable bound, so none is imposed
        for sol in ([], [(3,)], [()], [(1, -2), (4,)], [(1, -2_000_000_001), (10**30,)]):
            assert parse_solution(write_solution(sol)) == tuple(
                tuple(sorted(c, key=abs)) for c in sol
            )

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=9).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                max_size=4,
                unique_by=abs,
            ),
            max_size=6,
        )
    )
    def test_round_trip_property(self, sol):
        clauses = [tuple(sorted(c, key=abs)) for c in sol]
        assert parse_solution(write_solution(clauses)) == tuple(clauses)

    @pytest.mark.parametrize(
        "line, message",
        [("1 0 2 0", "literal 0 inside a clause line"), ("1 x 0", "expected an integer"),
         ("1 2_0 0", "expected an integer")],
        ids=["literal-0", "non-integer", "underscore"],
    )
    def test_bad_literal_positioned(self, line, message):
        with pytest.raises(PositionedError, match=message) as e:
            parse_solution(f"s pqe 1\n{line}\n")
        assert (e.value.line, e.value.col) == (2, 3)

    def test_clause_line_is_canonicalised(self):
        assert parse_solution("s pqe 1\n2 -1 2 0\n") == ((-1, 2),)

    def test_bad_header(self):
        with pytest.raises(PositionedError, match="expected header 's pqe"):
            parse_solution("v 1 0\n")

    def test_negative_count_rejected(self):
        with pytest.raises(PositionedError, match="solution count must be non-negative") as e:
            parse_solution("s pqe -1\n")
        assert (e.value.line, e.value.col) == (1, 1)

    @pytest.mark.parametrize("text", ["", "c a comment only\n"], ids=["empty", "comments-only"])
    def test_empty_text(self, text):
        with pytest.raises(PositionedError, match="missing solution header") as e:
            parse_solution(text)
        assert (e.value.line, e.value.col) == (1, 1)

    def test_clause_count_mismatch(self):
        with pytest.raises(PositionedError, match="expected 2 clause lines, found 1") as e:
            parse_solution("c header on line 2\ns pqe 2\n1 0\n")
        assert (e.value.line, e.value.col) == (2, 1)
