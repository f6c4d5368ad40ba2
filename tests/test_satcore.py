from hypothesis import given, settings, strategies as st

from pqe.oracle import cnf_satisfiable
from pqe.satcore import sat_solve
from tests.conftest import rand_cnf


def model_satisfies(clauses, model):
    return all(any((l > 0) == (model[abs(l)] == 1) for l in c) for c in clauses)


class TestBasics:
    def test_contradiction(self):
        res = sat_solve([(1,), (-1,)])
        assert not res.satisfiable and res.core == frozenset()

    def test_sat_under_assumption(self):
        res = sat_solve([(1, 2)], assumptions=[-1])
        assert res.satisfiable
        assert res.model[1] == 0 and res.model[2] == 1

    def test_core_over_assumptions(self):
        res = sat_solve([(-3, 1), (-4, -1)], assumptions=[3, 4])
        assert not res.satisfiable
        assert res.core <= {3, 4}
        assert not cnf_satisfiable([(-3, 1), (-4, -1)] + [(a,) for a in res.core])

    def test_contradictory_assumptions(self):
        res = sat_solve([(1, 2)], assumptions=[5, -5])
        assert not res.satisfiable and res.core == {5, -5}

    def test_empty_clause(self):
        assert not sat_solve([()]).satisfiable

    def test_empty_formula(self):
        res = sat_solve([], assumptions=[2])
        assert res.satisfiable and res.model[2] == 1

    def test_tautology_variables_in_model(self):
        assert sat_solve([(1, -1)]).model == {1: 0}


class TestAgainstEnumeration:
    def test_plain(self, rng):
        for _ in range(250):
            clauses = rand_cnf(rng, rng.randint(1, 9), rng.randint(1, 22))
            res = sat_solve(clauses)
            assert res.satisfiable == cnf_satisfiable(clauses)
            if res.satisfiable:
                assert model_satisfies(clauses, res.model)

    def test_with_assumptions(self, rng):
        for _ in range(250):
            nv = rng.randint(1, 8)
            clauses = rand_cnf(rng, nv, rng.randint(1, 18))
            k = rng.randint(0, min(3, nv))
            assume = [v if rng.randrange(2) else -v for v in rng.sample(range(1, nv + 1), k)]
            res = sat_solve(clauses, assume)
            want = cnf_satisfiable(list(clauses) + [(a,) for a in assume])
            assert res.satisfiable == want
            if res.satisfiable:
                assert model_satisfies(clauses, res.model)
                assert all((a > 0) == (res.model[abs(a)] == 1) for a in assume)
            else:
                assert set(res.core) <= set(assume)
                assert not cnf_satisfiable(list(clauses) + [(a,) for a in res.core])


_literal = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))


class TestAgainstEnumerationProperty:
    # duplicate literals, tautologies and empty clauses all appear: the
    # solver drops tautologies and flags an empty clause while it sets up
    @settings(max_examples=300, deadline=None)
    @given(
        clauses=st.lists(st.lists(_literal, max_size=5), max_size=12),
        assumptions=st.lists(_literal, max_size=4),
    )
    def test_answer_model_and_core(self, clauses, assumptions):
        res = sat_solve(clauses, assumptions)
        units = [(a,) for a in assumptions]
        assert res.satisfiable == cnf_satisfiable(clauses + units)
        if res.satisfiable:
            variables = {abs(l) for c in clauses for l in c} | {abs(a) for a in assumptions}
            assert set(res.model) == variables
            assert model_satisfies(clauses + units, res.model)
        else:
            assert res.core <= set(assumptions)
            assert not cnf_satisfiable(clauses + [(a,) for a in res.core])
