"""Parsing and writing of instance and solution files.

Instance format (a small extension of DIMACS conventions):

    c optional comments anywhere
    p pqe <max_var> <n_f1> <n_f2>
    e <quantified-var>* 0
    <n_f1 clause lines, each: lit* 0>      (the block to take out)
    <n_f2 clause lines, each: lit* 0>

Every literal's variable is in 1..max_var. The ``e`` line lists X, the
quantified variables; the free variables Y are the other variables of the
clauses, so parsing is linear in the text whatever ``max_var`` says.
Solution format: ``s pqe <n_clauses>`` followed by clause lines; a line
containing only ``0`` is the empty clause. UTF-8, LF; a trailing newline
is written and tolerated when absent on read.

Every input error, whether the text is not in the format or states an
impossible instance, raises ``PositionedError`` with its line and column.
"""

from __future__ import annotations

from typing import List, NoReturn, Sequence, Tuple

from .formula import EcnfProblem, Lits, PqeError, TautologyError, canonical_lits


class PositionedError(PqeError):
    """An input error at a 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


def _content_lines(text: str):
    for ln, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c"):
            continue
        yield ln, raw, stripped


def _parse_int(tok: str, ln: int, raw: str, idx: int) -> int:
    """The idx-th token of line ``raw`` as an int."""
    try:
        return int(tok)
    except ValueError:
        raise PositionedError(ln, _token_col(raw, idx), f"expected an integer, got {tok!r}") from None


def _token_col(raw: str, idx: int) -> int:
    """1-based column of the idx-th whitespace-separated token.

    Linear in the line length: call it only to position an error.
    """
    pos = 0
    for k, tok in enumerate(raw.split()):
        pos = raw.index(tok, pos)
        if k == idx:
            return pos + 1
        pos += len(tok)
    return max(1, len(raw))


def _raise_bad_literal(raw: str, toks: List[str], ln: int, max_var: float) -> NoReturn:
    """Raise the positioned error for the first bad literal token of a
    clause line (not an integer, 0, or out of range)."""
    for i, tok in enumerate(toks[:-1]):
        lit = _parse_int(tok, ln, raw, i)
        if lit == 0:
            raise PositionedError(ln, _token_col(raw, i), "literal 0 inside a clause line")
        if abs(lit) > max_var:
            raise PositionedError(ln, _token_col(raw, i), f"variable {abs(lit)} out of range")
    raise AssertionError("no bad literal on the line")


def _parse_clause_line(raw: str, stripped: str, ln: int, max_var: float) -> Lits:
    toks = stripped.split()
    if toks[-1] != "0":
        raise PositionedError(ln, _token_col(raw, len(toks) - 1), "clause line must end with 0")
    lits: List[int] = []
    for tok in toks[:-1]:
        try:
            lit = int(tok)
        except ValueError:
            lit = 0
        if not (lit and -max_var <= lit <= max_var):
            _raise_bad_literal(raw, toks, ln, max_var)
        lits.append(lit)
    try:
        return canonical_lits(lits)
    except TautologyError as e:
        raise PositionedError(ln, 1, f"tautological clause: {e}") from None


def parse_pqe(text: str) -> EcnfProblem:
    """Parse an instance; every input error is a ``PositionedError``."""
    lines = list(_content_lines(text))
    if not lines:
        raise PositionedError(1, 1, "missing header line")
    ln, raw, stripped = lines[0]
    toks = stripped.split()
    if len(toks) != 5 or toks[0] != "p" or toks[1] != "pqe":
        raise PositionedError(ln, 1, "expected header 'p pqe <max_var> <n_f1> <n_f2>'")
    max_var = _parse_int(toks[2], ln, raw, 2)
    n_f1 = _parse_int(toks[3], ln, raw, 3)
    n_f2 = _parse_int(toks[4], ln, raw, 4)
    if max_var < 0 or n_f1 < 0 or n_f2 < 0:
        raise PositionedError(ln, 1, "header counts must be non-negative")

    if len(lines) < 2:
        raise PositionedError(ln + 1, 1, "missing quantifier line")
    ln, raw, stripped = lines[1]
    toks = stripped.split()
    if toks[0] != "e":
        raise PositionedError(ln, 1, "expected quantifier line 'e <var>* 0'")
    if toks[-1] != "0":
        raise PositionedError(ln, _token_col(raw, len(toks) - 1), "quantifier line must end with 0")
    x_vars: List[int] = []
    x_set = set()
    for i, tok in enumerate(toks[1:-1], start=1):
        v = _parse_int(tok, ln, raw, i)
        if v <= 0:
            raise PositionedError(ln, _token_col(raw, i), "quantified variables are positive ints")
        if v > max_var:
            raise PositionedError(ln, _token_col(raw, i), f"variable {v} out of range")
        if v in x_set:
            raise PositionedError(ln, _token_col(raw, i), f"duplicate quantifier for {v}")
        x_vars.append(v)
        x_set.add(v)

    body = lines[2:]
    if len(body) != n_f1 + n_f2:
        raise PositionedError(
            body[-1][0] if body else ln,
            1,
            f"expected {n_f1 + n_f2} clause lines, found {len(body)}",
        )
    clauses = [_parse_clause_line(raw, stripped, l, max_var) for l, raw, stripped in body]
    return EcnfProblem.make(x_vars, clauses[:n_f1], clauses[n_f1:])


def write_pqe(problem: EcnfProblem, comment: str = "") -> str:
    """Instance text; parse(write(p)) == p."""
    max_var = max(problem.x_vars | problem.y_vars, default=0)
    out = []
    if comment:
        for line in comment.split("\n"):
            out.append(f"c {line}")
    out.append(f"p pqe {max_var} {len(problem.f1)} {len(problem.f2)}")
    out.append("e " + " ".join(str(v) for v in sorted(problem.x_vars)) + " 0"
               if problem.x_vars else "e 0")
    for c in problem.f1 + problem.f2:
        out.append(" ".join(str(l) for l in c) + " 0" if c else "0")
    return "\n".join(out) + "\n"


def write_solution(f1_star: Sequence[Sequence[int]]) -> str:
    """Solution text; ``s pqe 0`` encodes the constant-true solution."""
    out = [f"s pqe {len(f1_star)}"]
    for c in f1_star:
        out.append(" ".join(str(l) for l in c) + " 0" if c else "0")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> Tuple[Lits, ...]:
    lines = list(_content_lines(text))
    if not lines:
        raise PositionedError(1, 1, "missing solution header")
    ln, raw, stripped = lines[0]
    toks = stripped.split()
    if len(toks) != 3 or toks[0] != "s" or toks[1] != "pqe":
        raise PositionedError(ln, 1, "expected header 's pqe <n_clauses>'")
    n = _parse_int(toks[2], ln, raw, 2)
    if n < 0:
        raise PositionedError(ln, 1, "solution count must be non-negative")
    body = lines[1:]
    if len(body) != n:
        raise PositionedError(ln, 1, f"expected {n} clause lines, found {len(body)}")
    out = []
    for l, raw, stripped in body:
        out.append(_parse_clause_line(raw, stripped, l, max_var=float("inf")))
    return tuple(out)
