import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_wcnf
from ttsat.cnf import (
    Clause,
    CnfError,
    Model,
    OutputStatus,
    WcnfFormula,
    parse_dimacs,
    parse_solver_output,
    write_dimacs,
)

# the running micro example: hard (x | ~y), (~x | z); soft (y | z):3, (~z):4
WEIGHTED_EXAMPLE = WcnfFormula(
    3,
    (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 3), Clause((-3,), 4)),
)


class TestClause:
    def test_hard_by_default(self):
        assert Clause((1, -2)).is_hard
        assert not Clause((1,), 5).is_hard

    def test_rejects_empty(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause(()),))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause((1, 2, 1)),))

    def test_rejects_tautology(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause((1, -1)),))

    def test_rejects_zero_literal(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause((1, 0)),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause((1,), 0),))


class TestFormula:
    def test_default_top_is_soft_sum_plus_one(self):
        assert WEIGHTED_EXAMPLE.top == 8

    def test_empty_soft_set_top_is_one(self):
        f = WcnfFormula(2, (Clause((1, 2)),))
        assert f.top == 1

    def test_rejects_literal_beyond_num_vars(self):
        with pytest.raises(CnfError):
            WcnfFormula(2, (Clause((3,)),))

    def test_rejects_top_not_above_soft_sum(self):
        with pytest.raises(CnfError):
            WcnfFormula(1, (Clause((1,), 3), Clause((-1,), 4)), top=7)

    def test_cost_evaluation(self):
        all_false = {1: False, 2: False, 3: False}
        assert WEIGHTED_EXAMPLE.hard_satisfied(all_false)
        assert WEIGHTED_EXAMPLE.falsified_weight(all_false) == 3


class TestWriteDimacs:
    def test_weighted_example_exact_bytes(self):
        expected = "p wcnf 3 4 8\n8 1 -2 0\n8 -1 3 0\n3 2 3 0\n4 -3 0\n"
        assert write_dimacs(WEIGHTED_EXAMPLE) == expected

    def test_comments_prefixed(self):
        text = write_dimacs(WEIGHTED_EXAMPLE, comments=("tool 1.0",))
        assert text.startswith("c tool 1.0\np wcnf 3 4 8\n")

    def test_lf_endings_only(self):
        assert "\r" not in write_dimacs(WEIGHTED_EXAMPLE)


class TestParseDimacs:
    def test_roundtrip_of_example(self):
        f = parse_dimacs(write_dimacs(WEIGHTED_EXAMPLE))
        assert f == WEIGHTED_EXAMPLE
        assert len(f.hard_clauses) == 2
        assert len(f.soft_clauses) == 2

    def test_single_hard_unit(self):
        f = parse_dimacs("p wcnf 1 1 2\n2 1 0\n")
        assert f.num_vars == 1
        assert f.clauses == (Clause((1,)),)

    def test_weight_at_or_above_top_is_hard(self):
        f = parse_dimacs("p wcnf 2 2 10\n99 1 0\n3 2 0\n")
        assert f.clauses[0].is_hard
        assert f.clauses[1].weight == 3

    def test_clause_count_mismatch(self):
        with pytest.raises(CnfError, match="declares 3"):
            parse_dimacs("p wcnf 2 3 5\n5 1 0\n1 2 0\n")

    def test_missing_terminator(self):
        with pytest.raises(CnfError, match="terminating 0"):
            parse_dimacs("p wcnf 1 1 2\n2 1\n")

    def test_literal_beyond_header(self):
        with pytest.raises(CnfError, match="exceeds"):
            parse_dimacs("p wcnf 1 1 2\n2 5 0\n")

    def test_malformed_header(self):
        with pytest.raises(CnfError, match="header"):
            parse_dimacs("p cnf 2 1\n1 2 0\n")

    def test_comments_skipped(self):
        f = parse_dimacs("c hello\np wcnf 1 1 2\nc mid\n2 1 0\n")
        assert len(f.clauses) == 1

    def test_h_marker_format_accepted(self):
        f = parse_dimacs("h 1 2 0\n3 -1 0\n")
        assert f.num_vars == 2
        assert f.clauses[0].is_hard
        assert f.clauses[1].weight == 3

    def test_roundtrip_random_formulas(self):
        rng = random.Random(2024)
        for i in range(100):
            f = random_wcnf(rng, max_vars=12, max_clauses=30)
            text = write_dimacs(f)
            again = parse_dimacs(text)
            assert again == f, f"round trip broke at formula {i}"
            assert write_dimacs(again) == text, f"round trip broke at formula {i}"


class TestModel:
    def test_checked_recomputes_cost(self):
        m = Model.checked(WEIGHTED_EXAMPLE, {1: False, 2: False, 3: False})
        assert m.cost == 3

    def test_checked_rejects_wrong_report(self):
        with pytest.raises(CnfError, match="does not match"):
            Model.checked(WEIGHTED_EXAMPLE, {1: False, 2: False, 3: False}, reported_cost=2)


class TestParseSolverOutput:
    def test_optimum_with_model(self):
        out = parse_solver_output("o 3\ns OPTIMUM FOUND\nv -1 -2 -3 0\n")
        assert out.status is OutputStatus.OPTIMUM
        assert out.cost == 3
        assert out.model == {1: False, 2: False, 3: False}

    def test_unsat_has_no_model(self):
        out = parse_solver_output("s UNSATISFIABLE\n")
        assert out.status is OutputStatus.UNSAT
        assert out.model is None

    def test_last_objective_line_wins(self):
        out = parse_solver_output("o 10\no 4\ns OPTIMUM FOUND\nv 1 -2 0")
        assert out.cost == 4
        assert out.model == {1: True, 2: False}

    def test_binary_model_string(self):
        out = parse_solver_output("s OPTIMUM FOUND\no 0\nv 0110\n", num_vars=4)
        assert out.model == {1: False, 2: True, 3: True, 4: False}

    def test_missing_status_is_unknown(self):
        assert parse_solver_output("o 1\n").status is OutputStatus.UNKNOWN

    def test_model_beyond_num_vars_rejected(self):
        with pytest.raises(CnfError, match="beyond"):
            parse_solver_output("s OPTIMUM FOUND\nv 9 0\n", num_vars=3)

    def test_unmentioned_vars_default_false(self):
        out = parse_solver_output("s OPTIMUM FOUND\nv 2 0\n", num_vars=3)
        assert out.model == {1: False, 2: True, 3: False}

    def test_multiline_model(self):
        out = parse_solver_output("s OPTIMUM FOUND\nv 1 -2\nv 3 0\n")
        assert out.model == {1: True, 2: False, 3: True}


def well_formed(entry, num_vars):
    """A clause WcnfFormula must accept, stated directly from the format."""
    if not isinstance(entry, Clause):
        return False
    variables = sorted(abs(l) for l in entry.literals)
    return (
        len(variables) > 0
        and variables[0] >= 1
        and variables[-1] <= num_vars
        and all(a != b for a, b in zip(variables, variables[1:]))
        and (entry.weight is None or entry.weight >= 1)
    )


@st.composite
def well_formed_formulas(draw):
    n = draw(st.integers(1, 12))
    clauses = []
    for _ in range(draw(st.integers(0, 20))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
        weight = draw(st.none() | st.integers(1, 20))
        clauses.append(Clause(tuple(v if s else -v for v, s in zip(variables, signs)), weight))
    soft_sum = sum(c.weight for c in clauses if not c.is_hard)
    top = draw(st.none() | st.integers(soft_sum + 1, soft_sum + 5))
    return WcnfFormula(n, tuple(clauses), top)


ANY_CLAUSE = st.builds(
    Clause,
    st.lists(st.integers(-6, 6), max_size=4).map(tuple),
    st.none() | st.integers(-1, 5),
)
DIMACS_LIKE = st.text(alphabet="0123456789 -hpwcnfosv\n", max_size=80)


class TestProperties:
    @settings(deadline=None)
    @given(st.text(max_size=80) | DIMACS_LIKE)
    def test_parse_dimacs_raises_only_cnf_error(self, text):
        try:
            parse_dimacs(text)
        except CnfError:
            pass

    @settings(deadline=None)
    @given(st.text(max_size=80) | DIMACS_LIKE, st.none() | st.integers(1, 8))
    def test_parse_solver_output_raises_only_cnf_error(self, text, num_vars):
        try:
            parse_solver_output(text, num_vars)
        except CnfError:
            pass

    @settings(deadline=None)
    @given(well_formed_formulas())
    def test_dimacs_round_trip(self, formula):
        text = write_dimacs(formula)
        assert parse_dimacs(text) == formula
        assert write_dimacs(parse_dimacs(text)) == text

    @settings(deadline=None)
    @given(st.integers(1, 6), st.lists(ANY_CLAUSE | st.tuples(st.integers(1, 6)), max_size=6))
    def test_formula_accepts_exactly_well_formed_clauses(self, num_vars, entries):
        expected = all(well_formed(e, num_vars) for e in entries)
        try:
            formula = WcnfFormula(num_vars, tuple(entries))
        except CnfError:
            assert not expected
            return
        assert expected
        assert formula.hard_clauses == tuple(c for c in entries if c.is_hard)
        assert formula.soft_clauses == tuple(c for c in entries if not c.is_hard)
        assert formula.soft_weight_sum == sum(c.weight for c in formula.soft_clauses)
