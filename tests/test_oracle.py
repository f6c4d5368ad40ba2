import itertools

import pytest

from pqe.oracle import (
    TooLarge,
    check_redundant_in_subspace,
    cnf_satisfiable,
    enumerate_qe,
    verify_dsequent,
    verify_pqe_solution,
)

# the running two-quantified-one-free instance: x1=1, x2=2, y=3
C1 = (-1, 2)
C2 = (3, 1)
C3 = (3, -2)
C4 = (3,)
X = (1, 2)


class TestEnumerateQe:
    def test_basic_rows(self):
        tt = enumerate_qe([C1, C2, C3], X)
        # bit j is the j-th assignment to y_vars: bit 0 is y3=0, bit 1 is y3=1
        assert tt.y_vars == (3,)
        assert tt.rows == 0b10

    def test_empty_formula(self):
        # no clause mentions a free variable: one row, the empty assignment
        tt = enumerate_qe([], X)
        assert tt.y_vars == () and tt.rows == 0b1

    def test_empty_clause(self):
        tt = enumerate_qe([()], X)
        assert tt.rows == 0

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_qe([tuple(range(1, 30))], range(1, 30))

    def test_unused_quantified_variables_not_counted(self):
        # 29 declared quantified variables, one of them in a clause
        qe = enumerate_qe([(1, 31)], range(1, 30))
        assert qe.y_vars == (31,) and qe.rows == 0b11


class TestVerifySolution:
    def test_golden_solution_accepted(self):
        assert verify_pqe_solution([C1], [C2, C3], X, [C4])

    def test_empty_solution_rejected(self):
        assert not verify_pqe_solution([C1], [C2, C3], X, [])

    def test_trivial(self):
        assert verify_pqe_solution([], [], X, [])

    def test_x_clause_in_solution_rejected(self):
        with pytest.raises(ValueError):
            verify_pqe_solution([C1], [C2, C3], X, [(1,)])

    def test_undeclared_variable_in_solution_rejected(self):
        with pytest.raises(ValueError, match="variable 99"):
            verify_pqe_solution([C1], [C2, C3], X, [(3, 99)])


class TestSubspaceRedundancy:
    def test_redundant_in_satisfying_subspace(self):
        assert check_redundant_in_subspace([C1, C2, C3, C4], X, 0, {3: 1})

    def test_not_redundant_without_cover(self):
        assert not check_redundant_in_subspace([C1, C2, C3], X, 0, {3: 0})

    def test_implied_free_clause_redundant(self):
        # (3) is implied once (3) is, trivially, present twice positionally
        assert check_redundant_in_subspace([C4, C4], X, 0, {})

    def test_falsified_target(self):
        # (3) under y3=0 is the empty clause: redundant only where the rest
        # of the cofactor is unsatisfiable too
        assert not check_redundant_in_subspace([C4, C1], X, 0, {3: 0})
        assert check_redundant_in_subspace([C4, C1, C2, C3], X, 0, {3: 0})

    def test_q_on_a_quantified_variable(self):
        # under x1=1, C1 is (2): it forces x2, and with it y3 through C3,
        # which C4 already says
        assert not check_redundant_in_subspace([C1, C2, C3], X, 0, {1: 1})
        assert check_redundant_in_subspace([C1, C2, C3, C4], X, 0, {1: 1})

    @staticmethod
    def by_definition(clauses, xs, c_index, q):
        """For each total assignment of the free variables outside q,
        ∃X F|q agrees with ∃X (F∖C)|q; each formula read under a total
        assignment, clause by clause."""
        cvars = {abs(l) for c in clauses for l in c} - set(q)
        inner = sorted(cvars & set(xs))
        free = sorted(cvars - set(xs))
        without = clauses[:c_index] + clauses[c_index + 1 :]

        def exists_x(cnf, outer):
            return any(
                all(any(asg[abs(l)] == (l > 0) for l in c) for c in cnf)
                for asg in ({**outer, **dict(zip(inner, bits))}
                            for bits in itertools.product((0, 1), repeat=len(inner)))
            )

        return all(
            exists_x(clauses, asg) == exists_x(without, asg)
            for asg in ({**q, **dict(zip(free, bits))}
                        for bits in itertools.product((0, 1), repeat=len(free)))
        )

    def test_matches_definition(self, rng):
        # q ranges over X, the free variables and variables in no clause;
        # clauses may be empty or repeated
        verdicts = set()
        for _ in range(300):
            nv = rng.randint(1, 6)
            clauses = []
            for _ in range(rng.randint(1, 6)):
                vs = rng.sample(range(1, nv + 1), rng.randint(0, min(3, nv)))
                clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
            if rng.randrange(5) == 0:
                clauses.append(rng.choice(clauses))
            xs = rng.sample(range(1, nv + 1), rng.randint(0, nv))
            q = {v: rng.randrange(2) for v in rng.sample(range(1, nv + 3), rng.randint(0, 3))}
            c_index = rng.randrange(len(clauses))
            expected = self.by_definition(clauses, xs, c_index, q)
            assert check_redundant_in_subspace(clauses, xs, c_index, q) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestVerifyDsequent:
    def test_satisfied_target_record(self):
        # first-kind semantics: conditional satisfies the target
        assert verify_dsequent([C1, C2, C3], X, 0, {2: 1}, [])

    def test_duplicate_pair_individually_valid(self):
        dup = (1, 2)
        assert verify_dsequent([dup, dup], (1, 2), 0, {}, [1])
        assert verify_dsequent([dup, dup], (1, 2), 1, {}, [0])

    def test_fabricated_record_rejected(self):
        assert not verify_dsequent([C1, C2, C3], X, 0, {}, [])

    def test_golden_final_record(self):
        assert verify_dsequent([C1, C2, C3, C4], X, 0, {}, [3])

    def test_cap(self):
        clauses = [(1, i) for i in range(2, 18)]
        with pytest.raises(TooLarge):
            verify_dsequent(clauses, range(1, 18), 0, {}, [])


class TestInternalAgreement:
    def test_qe_matches_solution_check(self, rng):
        # enumerate_qe agrees with verify_pqe_solution given a known QE result
        for _ in range(30):
            nx, ny = rng.randint(1, 3), rng.randint(1, 3)
            xs = list(range(1, nx + 1))
            ys = list(range(nx + 1, nx + ny + 1))
            clauses = []
            for _ in range(rng.randint(1, 8)):
                vs = rng.sample(xs + ys, rng.randint(1, min(3, nx + ny)))
                clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
            tt = enumerate_qe(clauses, xs)
            # build a crude clausal form of the truth table and check it
            sol = []
            for j in range(1 << len(tt.y_vars)):
                if not (tt.rows >> j & 1):
                    sol.append(tuple(-v if (j >> i) & 1 else v for i, v in enumerate(tt.y_vars)))
            assert verify_pqe_solution(clauses, [], xs, sol)

    def test_monotonicity_logged_not_fatal(self, rng):
        # subspace redundancy usually persists in smaller subspaces; the
        # exceptions are counted, never fatal
        violations = 0
        samples = 0
        for _ in range(40):
            nx, ny = rng.randint(1, 3), rng.randint(1, 2)
            xs = list(range(1, nx + 1))
            ys = list(range(nx + 1, nx + ny + 1))
            clauses = []
            for _ in range(rng.randint(2, 7)):
                vs = rng.sample(xs + ys, rng.randint(1, min(3, nx + ny)))
                clauses.append(tuple(v if rng.randrange(2) else -v for v in vs))
            c = rng.randrange(len(clauses))
            if not any(abs(l) in xs for l in clauses[c]):
                continue
            q = {ys[0]: rng.randrange(2)} if rng.randrange(2) else {}
            if not check_redundant_in_subspace(clauses, xs, c, q):
                continue
            r = dict(q)
            for v in xs + ys:
                if v not in r and rng.randrange(2):
                    r[v] = rng.randrange(2)
            if len(r) == len(q):
                continue
            samples += 1
            if not check_redundant_in_subspace(clauses, xs, c, r):
                violations += 1
        assert samples > 0
        # the simplifying assumption can fail in principle; log the rate only
        print(f"monotonicity violations: {violations}/{samples}")


def test_cnf_satisfiable_smoke():
    assert cnf_satisfiable([(1, 2)])
    assert not cnf_satisfiable([(1,), (-1,)])
