import gc
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_wcnf
from ttsat import cnf
from ttsat.cnf import (
    Clause,
    CnfError,
    OutputStatus,
    WcnfFormula,
    parse_dimacs,
    parse_solver_output,
    write_dimacs,
)
from ttsat.solver import solve_maxsat

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

    @pytest.mark.parametrize("lits", [(1, 2.5), (1.0,), ("1",)])
    def test_rejects_non_integer_literal(self, lits):
        # the solver indexes its arrays by literal: 2.5 would not read as 2
        with pytest.raises(CnfError, match="not an integer"):
            WcnfFormula(3, (Clause(lits),))

    def test_accepts_numpy_integer_literals(self):
        f = WcnfFormula(2, (Clause((np.int64(1), np.int32(-2))),))
        assert solve_maxsat(f).cost == 0


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

    def test_evaluation_matches_clause_by_clause(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_wcnf(rng, max_vars=8, max_clauses=20)
            assignment = {v: rng.random() < 0.5 for v in range(1, f.num_vars + 1)}
            assert f.hard_satisfied(assignment) == all(
                c.satisfied_by(assignment) for c in f.hard_clauses)
            assert f.falsified_weight(assignment) == sum(
                c.weight for c in f.soft_clauses if not c.satisfied_by(assignment))


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

    @pytest.mark.parametrize("text, message", [
        ("1 1 0\n5 2 0\np wcnf 2 3 5\n7 -1 0\n", "line 3: header after clauses"),
        ("p wcnf 2 5 5\n5 1 0\np wcnf 3 1 9\n", "line 3: second header"),
        ("p wcnf 2 1 5\np wcnf 2 1 5\n5 1 0\n", "line 2: second header"),
    ], ids=["after-clauses", "second-overrides-first", "repeated"])
    def test_header_only_once_before_clauses(self, text, message):
        with pytest.raises(CnfError, match=message):
            parse_dimacs(text)

    def test_odd_zero_tokens_keep_their_errors(self):
        with pytest.raises(CnfError, match="line 2: clause missing terminating 0"):
            parse_dimacs("p wcnf 2 1 5\n1 2 00\n")
        with pytest.raises(CnfError, match="line 2: bad token"):
            parse_dimacs("p wcnf 2 1 5\n1 x 0\n")

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

    def test_explicit_unknown_is_stated(self):
        assert not parse_solver_output("o 1\n").stated
        assert not parse_solver_output("s MAYBE\n").stated
        out = parse_solver_output("s SATISFIABLE\ns UNKNOWN\n")
        assert (out.status, out.stated) == (OutputStatus.UNKNOWN, True)

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


def reference_check(entries, num_vars):
    """The per-clause check on its own: (hard, soft, soft sum) or the error."""
    try:
        hard, soft, soft_sum = cnf._clause_check(tuple(entries), num_vars, 0)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(hard), tuple(soft), soft_sum


def formula_check(entries, num_vars):
    """What WcnfFormula makes of the same entries, in the shape of reference_check."""
    try:
        f = WcnfFormula(num_vars, tuple(entries))
    except Exception as exc:
        return type(exc), str(exc)
    return f.hard_clauses, f.soft_clauses, f.soft_weight_sum


BAD_LAST_CLAUSES = [
    (Clause(()), "clause must contain at least one literal"),
    (Clause((4, 0)), "0 is the clause terminator, not a literal, in (4, 0)"),
    (Clause((2, 3, -2)), "a variable occurs twice in clause (2, 3, -2)"),
    (Clause((1, -9)), "variable 9 in clause (1, -9) exceeds num_vars=8"),
    (Clause((1,), 0), "soft clause weight must be >= 1, got 0"),
    ((1, 2), "expected Clause, got tuple"),
]

BIG = 2**62 + 5  # a header num_vars near 2**62: clause keys would pass int64


class TestBulkCheck:
    @pytest.mark.parametrize("bad, message", BAD_LAST_CLAUSES)
    def test_bad_clause_in_last_chunk(self, bad, message):
        good = [Clause((v, -(v % 8 + 1)), v % 3 or None) for v in range(1, 8)] * 2
        with mock.patch.object(cnf, "CHECK_CHUNK", 4):
            with pytest.raises(CnfError) as err:
                WcnfFormula(8, tuple(good + [Clause((5,), 2), bad]))
        assert str(err.value) == message

    @pytest.mark.parametrize("num_vars, clauses", [
        (5, [Clause((1, 2)), Clause((10**20,))]),
        (10**20, [Clause((1, 2)), Clause((10**20, -1))]),
        (10**20, [Clause((1, 2)), Clause((10**20, -10**20))]),
        (BIG, [Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3)]),
        (BIG, [Clause((1, 2)), Clause((BIG, 3, -BIG))]),
        (BIG, [Clause((1, 2)), Clause((BIG + 1,))]),
        (2**63, [Clause((1, 2)), Clause((-2**63,))]),
        (2**63, [Clause((0,)), Clause((-2**63,))]),
        (3, [Clause((1, 2)), Clause(("1",))]),
        (3, [Clause((1, 2)), Clause(((1, 2),))]),
        (3, [Clause(((1, 2),)), Clause(((2, 3),))]),
        (3, [Clause((1, 2)), Clause((2.5,))]),
        (3, [Clause((1, 2)), Clause((1, 1.0))]),
    ])
    def test_unusual_values(self, num_vars, clauses):
        assert formula_check(clauses, num_vars) == reference_check(clauses, num_vars)

    def test_keys_past_int64_are_not_wrapped(self):
        # (clause, variable) keys of this chunk would pass 2**63; the chunk
        # goes to the per-clause check instead
        chunk = (Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3))
        assert cnf._bulk_check(chunk, BIG, 0) is None
        assert formula_check(chunk, BIG) == reference_check(chunk, BIG)

    def test_header_near_2_62(self):
        f = parse_dimacs(f"p wcnf {BIG} 2 9\n9 1 2 0\n3 {BIG} -{BIG - 1} 0\n")
        assert f.clauses == (Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3))
        with pytest.raises(CnfError, match=f"occurs twice in clause \\(1, {BIG}, -{BIG}\\)"):
            parse_dimacs(f"p wcnf {BIG} 2 9\n9 1 2 0\n9 1 {BIG} -{BIG} 0\n")

    @settings(deadline=None)
    @given(
        st.integers(1, 6) | st.sampled_from([BIG, 2**63, 10**20]),
        st.lists(
            st.builds(
                Clause,
                st.lists(st.integers(-7, 7) | st.sampled_from([BIG, -BIG, -2**63, 10**20]),
                         max_size=4).map(tuple),
                st.none() | st.integers(-1, 5),
            ) | st.tuples(st.integers(1, 6)),
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_bulk_and_per_clause_checks_agree(self, num_vars, entries, chunk):
        with mock.patch.object(cnf, "CHECK_CHUNK", chunk):
            assert formula_check(entries, num_vars) == reference_check(entries, num_vars)

    @settings(deadline=None)
    @given(well_formed_formulas())
    def test_well_formed_chunks_stay_in_numpy(self, formula):
        if formula.clauses:
            assert cnf._bulk_check(formula.clauses, formula.num_vars, 0) is not None


class TestGcPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled, sample_instance):
        from ttsat.encoder import encode_with_families
        from ttsat.solver import solve_maxsat

        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            formula, _, _ = encode_with_families(sample_instance)
            assert gc.isenabled() is enabled
            parse_dimacs(write_dimacs(formula))
            assert gc.isenabled() is enabled
            solve_maxsat(WEIGHTED_EXAMPLE)
            assert gc.isenabled() is enabled
            with pytest.raises(CnfError):
                parse_dimacs("p wcnf 2 1 5\n5 1 2\n")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
