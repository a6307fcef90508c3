import gc
import operator
import random
import re
import warnings
from contextlib import contextmanager
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import clause_check, random_wcnf, reference_write_dimacs, satisfied_by, view_of, wcnf
from ttsat import cnf
from ttsat.cnf import (
    Clause,
    CnfError,
    WcnfFormula,
    clause_block,
    parse_dimacs,
    write_dimacs,
)
from ttsat.solver import (
    ExternalSolverError,
    MaxSatResult,
    MaxSatStatus,
    SolverError,
    UntrustedSolverError,
    _read_answer,
    solve_maxsat,
)

# the running micro example: hard (x | ~y), (~x | z); soft (y | z):3, (~z):4
WEIGHTED_EXAMPLE = wcnf(
    3,
    (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 3), Clause((-3,), 4)),
)


class TestClause:
    def test_hard_by_default(self):
        assert Clause((1, -2)).is_hard
        assert not Clause((1,), 5).is_hard

    def test_rejects_empty(self):
        with pytest.raises(CnfError):
            wcnf(2, (Clause(()),))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(CnfError):
            wcnf(2, (Clause((1, 2, 1)),))

    def test_rejects_tautology(self):
        with pytest.raises(CnfError):
            wcnf(2, (Clause((1, -1)),))

    def test_rejects_zero_literal(self):
        with pytest.raises(CnfError):
            wcnf(2, (Clause((1, 0)),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="soft clause weight below 1"):
            clause_block([(1,)], [0])
        with pytest.raises(CnfError, match="line 2: soft clause weight must be >= 1, got 0"):
            parse_dimacs("p wcnf 2 1 5\n0 1 0\n")

    @pytest.mark.parametrize("lits", [(1, 2.5), (1.0,), ("1",)])
    def test_rejects_non_integer_literal(self, lits):
        # the solver indexes its arrays by literal: 2.5 would not read as 2
        with pytest.raises(TypeError, match="integer"):
            clause_block([lits])

    def test_accepts_numpy_integer_literals(self):
        f = wcnf(2, (Clause((np.int64(1), np.int32(-2))),))
        assert solve_maxsat(f).cost == 0


class TestFormula:
    def test_default_top_is_soft_sum_plus_one(self):
        assert WEIGHTED_EXAMPLE.top == 8

    def test_empty_soft_set_top_is_one(self):
        f = wcnf(2, (Clause((1, 2)),))
        assert f.top == 1

    def test_rejects_literal_beyond_num_vars(self):
        with pytest.raises(CnfError):
            wcnf(2, (Clause((3,)),))

    @pytest.mark.parametrize("clauses", [
        (Clause((1,)),), [Clause((1,))], iter([Clause((1,))]), ((1,),), (), None,
    ], ids=["clause-tuple", "clause-list", "clause-iterator", "literal-tuples", "empty-tuple",
            "none"])
    def test_takes_only_a_clause_view(self, clauses):
        with pytest.raises(TypeError) as err:
            WcnfFormula(2, clauses)
        assert str(err.value) == f"expected ClauseView, got {type(clauses).__name__}"

    def test_rejects_top_not_above_soft_sum(self):
        with pytest.raises(CnfError):
            wcnf(1, (Clause((1,), 3), Clause((-1,), 4)), top=7)

    def test_cost_evaluation(self):
        assert WEIGHTED_EXAMPLE.falsified_weight(np.zeros(4, dtype=bool)) == 3
        # x1 alone falsifies the hard (-1 3)
        assert WEIGHTED_EXAMPLE.falsified_weight(np.array([False, True, False, False])) is None

    def test_evaluation_matches_clause_by_clause(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_wcnf(rng, max_vars=8, max_clauses=20)
            model = np.array([False] + [rng.random() < 0.5 for _ in range(f.num_vars)])
            falsified = [c for c in f.clauses if not satisfied_by(c, model)]
            expected = (None if any(c.is_hard for c in falsified)
                        else sum(c.weight for c in falsified))
            assert f.falsified_weight(model) == expected


class TestWriteDimacs:
    def test_weighted_example_exact_bytes(self):
        expected = "p wcnf 3 4 8\n8 1 -2 0\n8 -1 3 0\n3 2 3 0\n4 -3 0\n"
        assert write_dimacs(WEIGHTED_EXAMPLE) == expected

    def test_comments_prefixed(self):
        text = write_dimacs(WEIGHTED_EXAMPLE, comments=("tool 1.0",))
        assert text.startswith("c tool 1.0\np wcnf 3 4 8\n")

    def test_lf_endings_only(self):
        assert "\r" not in write_dimacs(WEIGHTED_EXAMPLE)

    @pytest.mark.parametrize("comment", ["a\nb", "a\r", "\x0b", "x\u2028y", "\n", "tail\r\n"])
    def test_comment_with_line_break_rejected(self, comment):
        # written as is, its second line would read back as a bad clause line
        with pytest.raises(CnfError) as err:
            write_dimacs(WEIGHTED_EXAMPLE, comments=("tool 1.0", comment))
        assert str(err.value) == f"comment {comment!r} contains a line break"

    def test_empty_comment_accepted(self):
        text = write_dimacs(WEIGHTED_EXAMPLE, comments=("",))
        assert text.startswith("c \np wcnf")
        assert parse_dimacs(text) == WEIGHTED_EXAMPLE


class TestParseDimacs:
    def test_roundtrip_of_example(self):
        f = parse_dimacs(write_dimacs(WEIGHTED_EXAMPLE))
        assert f == WEIGHTED_EXAMPLE
        assert len(f.clauses) == 4 and f.soft_weights == [3, 4]

    def test_single_hard_unit(self):
        f = parse_dimacs("p wcnf 1 1 2\n2 1 0\n")
        assert f.num_vars == 1
        assert tuple(f.clauses) == (Clause((1,)),)

    def test_weight_at_or_above_top_is_hard(self):
        f = parse_dimacs("p wcnf 2 2 10\n99 1 0\n3 2 0\n")
        assert [c.weight for c in f.clauses] == [None, 3]

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
        assert [c.weight for c in f.clauses] == [None, 3]

    def test_roundtrip_random_formulas(self):
        rng = random.Random(2024)
        for i in range(100):
            f = random_wcnf(rng, max_vars=12, max_clauses=30)
            text = write_dimacs(f)
            again = parse_dimacs(text)
            assert again == f, f"round trip broke at formula {i}"
            assert write_dimacs(again) == text, f"round trip broke at formula {i}"


def read_answer(text):
    return _read_answer(text, WEIGHTED_EXAMPLE, 0)


class TestParseSolverOutput:
    """The external solver's answer, read by ``solver._read_answer`` for
    WEIGHTED_EXAMPLE: all false costs 3, the optimum."""

    def test_optimum_with_model(self):
        res = read_answer("o 3\ns OPTIMUM FOUND\nv -1 -2 -3 0\n")
        assert res.status is MaxSatStatus.OPTIMUM
        assert res.cost == res.lower == 3
        assert res.model.tolist() == [False, False, False, False]

    def test_unsat_has_no_model(self):
        res = read_answer("s UNSATISFIABLE\nv -1 -2 -3 0\n")
        assert res == MaxSatResult(MaxSatStatus.HARD_UNSAT)

    def test_last_objective_line_wins(self):
        assert read_answer("o 10\no 3\ns OPTIMUM FOUND\nv -1 -2 -3 0").cost == 3
        with pytest.raises(UntrustedSolverError, match="claimed cost 10"):
            read_answer("o 3\no 10\ns OPTIMUM FOUND\nv -1 -2 -3 0")

    def test_binary_model_string(self):
        res = read_answer("s SATISFIABLE\no 4\nv 001\n")
        assert res.model.tolist() == [False, False, False, True]
        with pytest.raises(CnfError, match="variable 4 beyond num_vars=3"):
            read_answer("s SATISFIABLE\nv 0010\n")

    def test_missing_status_is_unknown(self):
        """With no status the answer is unknown: an error naming the exit code."""
        with pytest.raises(ExternalSolverError, match=r"gave no status \(exit code 7\)"):
            _read_answer("o 3\nv -1 -2 -3 0\n", WEIGHTED_EXAMPLE, 7)

    def test_explicit_unknown_is_stated(self):
        """Only a recognised last "s" line states a status; UNKNOWN is one."""
        for text in ("o 1\n", "s MAYBE\n", "s UNKNOWN\ns MAYBE\n", "s \n"):
            with pytest.raises(ExternalSolverError, match="no status"):
                read_answer(text)
        res = read_answer("s SATISFIABLE\ns UNKNOWN\n")
        assert res == MaxSatResult(MaxSatStatus.INDETERMINATE)

    def test_model_beyond_num_vars_rejected(self):
        for status in ("OPTIMUM FOUND", "UNSATISFIABLE", "UNKNOWN"):
            with pytest.raises(CnfError, match="beyond"):
                read_answer(f"s {status}\nv 9 0\n")

    def test_unmentioned_vars_default_false(self):
        res = read_answer("s SATISFIABLE\nv 3 0\n")
        assert res.model.tolist() == [False, False, False, True]

    def test_multiline_model(self):
        res = read_answer("s SATISFIABLE\nv 1 -2\nv 3 0\n")
        assert res.model.tolist() == [False, True, False, True]
        assert res.cost == 4


def well_formed(entry, num_vars):
    """A clause WcnfFormula must accept, stated directly from the format."""
    variables = sorted(abs(l) for l in entry.literals)
    return (
        len(variables) > 0
        and variables[0] >= 1
        and variables[-1] <= num_vars
        and all(a != b for a, b in zip(variables, variables[1:]))
    )


@st.composite
def well_formed_clauses(draw):
    """``(num_vars, clauses, top)`` that WcnfFormula must accept."""
    n = draw(st.integers(1, 12))
    clauses = []
    for _ in range(draw(st.integers(0, 20))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables), max_size=len(variables)))
        weight = draw(st.none() | st.integers(1, 20))
        clauses.append(Clause(tuple(v if s else -v for v, s in zip(variables, signs)), weight))
    soft_sum = sum(c.weight for c in clauses if not c.is_hard)
    top = draw(st.none() | st.integers(soft_sum + 1, soft_sum + 5))
    return n, tuple(clauses), top


def well_formed_formulas():
    return well_formed_clauses().map(lambda args: wcnf(*args))


BIG = 2**62 + 5  # a header num_vars near 2**62: clause keys would pass int64
# any clause clause_block takes: int64 literals, extremes included, and
# hard or a soft weight of at least 1
ANY_CLAUSE = st.builds(
    Clause,
    st.lists(st.integers(-7, 7) | st.sampled_from([BIG, -BIG, 2**63 - 1, -2**63]),
             max_size=4).map(tuple),
    st.none() | st.integers(1, 5),
)
DIMACS_LIKE = st.text(alphabet="0123456789 -hpwcnfosv\n", max_size=80)
ANSWER_LIKE = st.lists(
    st.sampled_from(["o 3", "o x", "o", "s OPTIMUM FOUND", "s SATISFIABLE", "s UNSATISFIABLE",
                     "s UNKNOWN", "s MAYBE", "v -1 -2 -3 0", "v 1 2", "v 001", "v 9 0", "v x"])
    | st.text(alphabet="0123456789 -osv", max_size=12),
    max_size=6,
).map("\n".join)


class TestProperties:
    @settings(deadline=None)
    @given(st.text(max_size=80) | DIMACS_LIKE)
    def test_parse_dimacs_raises_only_cnf_error(self, text):
        try:
            parse_dimacs(text)
        except CnfError:
            pass

    @settings(deadline=None)
    @given(st.text(max_size=80) | DIMACS_LIKE | ANSWER_LIKE, st.integers(-1, 2))
    def test_read_answer_raises_only_cnf_or_solver_error(self, text, returncode):
        try:
            _read_answer(text, WEIGHTED_EXAMPLE, returncode)
        except (CnfError, SolverError):
            pass

    @settings(deadline=None)
    @given(well_formed_formulas())
    def test_dimacs_round_trip(self, formula):
        text = write_dimacs(formula)
        assert parse_dimacs(text) == formula
        assert write_dimacs(parse_dimacs(text)) == text

    @settings(deadline=None)
    @given(st.integers(1, 6), st.lists(ANY_CLAUSE, max_size=6))
    def test_formula_accepts_exactly_well_formed_clauses(self, num_vars, entries):
        # accepted, both give the entries back and their soft weight sum
        got = formula_check(entries, num_vars)
        assert got == reference_check(entries, num_vars)
        assert (got[0] is not CnfError) is all(well_formed(e, num_vars) for e in entries)


def reference_check(entries, num_vars):
    """The clause-by-clause oracle on its own: (clauses, soft sum) or the
    error.  A ``num_vars`` past int64 is rejected before any clause, since
    the formula's literals must fit int64."""
    try:
        if num_vars >= 2**63:
            raise CnfError(f"num_vars={num_vars} does not fit in int64, as every literal must")
        clause_check(entries, num_vars)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(entries), sum(c.weight for c in entries if not c.is_hard)


def formula_check(entries, num_vars):
    """What WcnfFormula's numpy check makes of the same entries, made a
    view by ``clause_block``, in the shape of reference_check."""
    try:
        f = wcnf(num_vars, entries)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(f.clauses), f.soft_weight_sum


def first_bad_clause(view, num_vars):
    """``cnf._first_bad_clause`` of a view's clauses."""
    literals, offsets, _ = view.arrays()
    return cnf._first_bad_clause(literals, offsets, num_vars, cnf._largest_variable(literals))


BAD_LAST_CLAUSES = [
    (Clause(()), "clause must contain at least one literal"),
    (Clause((4, 0)), "0 is the clause terminator, not a literal, in (4, 0)"),
    (Clause((2, 3, -2)), "a variable occurs twice in clause (2, 3, -2)"),
    (Clause((1, -9)), "variable 9 in clause (1, -9) exceeds num_vars=8"),
]
GOOD_CLAUSES = [Clause((v, -(v % 8 + 1)), v % 3 or None) for v in range(1, 8)] * 2
GOOD_CLAUSES.append(Clause((5,), 2))


class TestBulkCheck:
    @pytest.mark.parametrize("bad, message", BAD_LAST_CLAUSES)
    def test_bad_clause_in_last_chunk(self, bad, message):
        with mock.patch.object(cnf, "CLAUSE_CHUNK", 4):
            with pytest.raises(CnfError) as err:
                wcnf(8, GOOD_CLAUSES + [bad])
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
        (2**63 - 1, [Clause((1, 2)), Clause((2**63 - 1, -(2**63 - 2)), 3)]),
        (2**63 - 1, [Clause((1, 2)), Clause((2**63 - 1, 3, 1 - 2**63))]),
    ])
    def test_unusual_values(self, num_vars, clauses):
        # clause_block refuses what no int64 array holds; the numpy check
        # and the clause-by-clause oracle judge the rest alike
        values = list(chain.from_iterable(c.literals for c in clauses))
        if not all(type(v) is int for v in values):
            with pytest.raises(TypeError):
                view_of(clauses)
        elif not all(-2**63 <= v < 2**63 for v in values):
            with pytest.raises(OverflowError):
                view_of(clauses)
        else:
            assert formula_check(clauses, num_vars) == reference_check(clauses, num_vars)

    def test_keys_past_int64_are_not_wrapped(self):
        # (clause, variable) keys of these clauses together would pass
        # 2**63; the array check takes them in chunks small enough for the
        # keys to fit, and still finds a repeat
        good = (Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3))
        bad = good + (Clause((1, BIG, -BIG)),)
        assert first_bad_clause(view_of(good), BIG) is None
        assert first_bad_clause(view_of(bad), BIG) == 2
        assert formula_check(good, BIG) == reference_check(good, BIG)
        assert formula_check(bad, BIG) == reference_check(bad, BIG)

    def test_header_near_2_62(self):
        f = parse_dimacs(f"p wcnf {BIG} 2 9\n9 1 2 0\n3 {BIG} -{BIG - 1} 0\n")
        assert tuple(f.clauses) == (Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3))
        with pytest.raises(CnfError, match=f"occurs twice in clause \\(1, {BIG}, -{BIG}\\)"):
            parse_dimacs(f"p wcnf {BIG} 2 9\n9 1 2 0\n9 1 {BIG} -{BIG} 0\n")

    @settings(deadline=None)
    @given(
        st.integers(1, 6) | st.sampled_from([BIG, 2**63 - 1, 2**63, 10**20]),
        st.lists(ANY_CLAUSE, max_size=12),
        st.integers(1, 5),
    )
    # clauses with two faults: the message names the first in the check's order
    @example(5, [Clause((2, 1)), Clause((1, 0, -1))], 1)
    @example(5, [Clause((9, -9))], 1)
    @example(5, [Clause((0, 9))], 1)
    def test_bulk_and_per_clause_checks_agree(self, num_vars, entries, chunk):
        with mock.patch.object(cnf, "CLAUSE_CHUNK", chunk):
            assert formula_check(entries, num_vars) == reference_check(entries, num_vars)

    @settings(deadline=None)
    @given(well_formed_formulas())
    def test_well_formed_chunks_stay_in_numpy(self, formula):
        # a message is built only for a clause the array check rejects
        assert first_bad_clause(formula.clauses, formula.num_vars) is None
        with mock.patch.object(cnf, "_bad_clause_message", side_effect=AssertionError):
            assert wcnf(formula.num_vars, formula.clauses, formula.top) == formula


class TestClauseBlock:
    # a value no int64 array holds, or a soft weight below 1, in the last
    # of several clauses: clause_block refuses it
    @pytest.mark.parametrize("weight, error, message", [
        (0, ValueError, "soft clause weight below 1"),
        (-1, ValueError, "soft clause weight below 1"),
        (2.5, TypeError, "cannot be interpreted as an integer"),
        ("1", TypeError, "cannot be interpreted as an integer"),
        (2**63, OverflowError, None),
        (-2**63 - 1, OverflowError, None),
    ], ids=["weight-0", "weight-negative", "weight-float", "weight-str", "weight-2-63",
            "weight-below-int64"])
    def test_rejects_bad_weight(self, weight, error, message):
        with pytest.raises(error, match=message):
            view_of(GOOD_CLAUSES + [Clause((1,), weight)])

    @pytest.mark.parametrize("literal, error", [
        ((1, 2), TypeError), (2.5, TypeError), ("1", TypeError),
        (2**63, OverflowError), (-2**63 - 1, OverflowError),
    ], ids=["tuple", "float", "str", "2-63", "below-int64"])
    def test_rejects_bad_literal(self, literal, error):
        with pytest.raises(error):
            view_of(GOOD_CLAUSES + [Clause((1, literal))])

    def test_takes_int64_extremes_and_numpy_integers(self):
        clauses = [Clause((2**63 - 1, -2**63), 2**63 - 1), Clause((np.int32(-3),), np.int64(2)),
                   Clause((1,))]
        literals, offsets, weights = view_of(clauses).arrays()
        assert literals.tolist() == [2**63 - 1, -2**63, -3, 1]
        assert offsets.tolist() == [0, 2, 3, 4]
        assert weights.tolist() == [2**63 - 1, 2, 0]


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


CLI_COMMENTS = ("ttsat 0.1.0", "instance sha256 0123456789abcdef")
SINGLE_LINE_COMMENTS = st.text(max_size=12).filter(lambda c: c.splitlines() in ([c], []))


class TestBulkWriter:
    @settings(deadline=None)
    @given(well_formed_formulas(), st.lists(SINGLE_LINE_COMMENTS, max_size=3).map(tuple))
    def test_matches_reference_writer(self, formula, comments):
        assert write_dimacs(formula, comments) == reference_write_dimacs(formula, comments)

    @settings(deadline=None)
    @given(well_formed_formulas(), st.integers(1, 5))
    def test_chunks_join_to_reference_text(self, formula, chunk):
        # the clause lines are formatted CLAUSE_CHUNK clauses at a time
        with mock.patch.object(cnf, "CLAUSE_CHUNK", chunk):
            text = write_dimacs(formula, CLI_COMMENTS)
        assert text == reference_write_dimacs(formula, CLI_COMMENTS)

    @pytest.mark.parametrize("formula", [
        wcnf(10**6, (Clause((1, -2)), Clause((-3,), 4), Clause((999_999, 2)))),
        wcnf(BIG, (Clause((1, 2)), Clause((BIG, -(BIG - 1)), 3))),
        wcnf(2, (Clause((np.int64(1), np.int32(-2)), np.int64(3)), Clause((2,)))),
        wcnf(1, ()),
    ], ids=["num-vars-1e6", "num-vars-near-2-62", "numpy-integers", "no-clauses"])
    def test_sparse_and_unusual_formulas(self, formula):
        # a literal table over 2**62 variables would not fit in memory
        assert write_dimacs(formula, CLI_COMMENTS) == reference_write_dimacs(formula, CLI_COMMENTS)


def outcome(read, text):
    """What ``read`` makes of ``text``: the repr of its result's
    ``num_vars``, clauses and ``top`` (which tells a numpy integer from an
    int) or its CnfError message."""
    try:
        formula = read(text)
    except CnfError as exc:
        return "error", str(exc)
    return "read", repr((formula.num_vars, tuple(formula.clauses), formula.top))


def assert_exact_weights(view):
    """Every weight ``view`` yields is None or a Python int: a numpy int
    would pass every equality assert."""
    assert all(c.weight is None or type(c.weight) is int for c in view)


def read_per_line(text):
    """What ``parse_dimacs`` makes of ``text`` read by the per-line reader
    alone: the block reader declines every block."""
    with mock.patch.object(cnf, "_read_clause_block", lambda *block_and_slices: None):
        return outcome(parse_dimacs, text)


def read_like_per_line(text, chunk):
    """Assert that ``parse_dimacs``, with blocks of about ``chunk``
    characters, reads ``text`` as the per-line reader alone does."""
    with mock.patch.object(cnf, "PARSE_CHUNK", chunk):
        got = outcome(parse_dimacs, text)
    assert got == read_per_line(text), f"PARSE_CHUNK={chunk}"


# tokens and lines that numpy reads otherwise than the per-line reader, or
# that the block reader must not take for plain clause lines
ODD_TOKENS = [
    "-", "-0", "00", "007", "-007", "2-3", "--3", "+3", "h", "x", "\t",
    "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\u0663",
    str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), str(2**64 + 5), str(10**20),
]
ODD_LINES = [
    "", " ", "0", " 0", "5 0", "c comment", "c", "p wcnf 6 3 13", "p cnf 6 3", "h 1 2 0",
    "h -3 0", "-5 1 0", "5 1", "5 1 -0", "5 1 00", "5 1 0 ", " 5 1 0", "5 1 0\r", "5\t1 0",
    "5  1 0", "5 1  0", "5 1 ", "5 - 2",
]
ODD_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"]


@st.composite
def dimacs_like_texts(draw):
    """Clause lines after no header, a header, or the CLI's comments and a
    header, with LF or CRLF line ends.  Each line may hold an odd token, be
    an odd line or end oddly, rarely enough that a block often holds one
    oddity among plain lines."""
    lines = draw(st.sampled_from([[], ["p wcnf 6 6 13"], [*(f"c {c}" for c in CLI_COMMENTS), "p wcnf 6 6 13"]]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [line + eol for line in lines]
    for _ in range(draw(st.integers(0, 8))):
        tokens = [str(draw(st.integers(1, 15)))]
        tokens += map(str, draw(st.lists(st.integers(-6, 6).filter(bool), max_size=3)))
        tokens.append("0")
        oddity = draw(st.integers(0, 7))
        if oddity == 0:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(ODD_TOKENS)))
        line = draw(st.sampled_from(ODD_LINES)) if oddity == 1 else " ".join(tokens)
        lines.append(line + (draw(st.sampled_from(ODD_LINE_ENDS)) if oddity == 2 else eol))
    text = "".join(lines)
    # cutting a CRLF text's last "\n" leaves a lone "\r"
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def strtoll_fromstring(string, dtype, sep):
    """A laxer ``np.fromstring``: like C's strtoll it clamps to int64, and
    it needs no space before a "-"."""
    tokens = re.findall(r"-?[0-9]+", string)
    return np.array([min(max(int(t), -2**63), 2**63 - 1) for t in tokens], dtype)


def read_block(block):
    """None when ``cnf._clause_block_shape`` declines ``block``; otherwise
    what ``cnf._read_clause_block`` returns for it, read into slices of
    the shape it measured."""
    shape = cnf._clause_block_shape(block)
    if shape is None:
        return None
    clauses, literals = shape
    return cnf._read_clause_block(block, None, np.empty(literals, np.int64),
                                  np.empty(clauses, np.int64), np.empty(clauses, np.int64))


@contextmanager
def spy_read_lines():
    """Record the lines of each ``cnf._read_lines`` call, in order."""
    calls = []
    read_lines = cnf._read_lines

    def spy(lines):
        calls.append(list(lines))
        return read_lines(lines)

    with mock.patch.object(cnf, "_read_lines", spy):
        yield calls


class TestBlockReader:
    # the block reader's checks must not rest on how strictly numpy parses
    @pytest.mark.parametrize("fromstring", [np.fromstring, strtoll_fromstring],
                             ids=["numpy", "strtoll"])
    @pytest.mark.parametrize("odd", ODD_LINES + [f"5 {t} 1 0" for t in ODD_TOKENS]
                             + [f"5 1 0{end}" for end in ODD_LINE_ENDS])
    def test_odd_line_read_like_per_line(self, odd, fromstring):
        lines = [*(f"c {c}" for c in CLI_COMMENTS), "p wcnf 6 4 13",
                 "3 1 -2 0", "13 2 3 0", odd, "7 -4 5 6 0"]
        texts = ("\n".join(lines) + "\n", "\r\n".join(lines) + "\r\n", "\n".join(lines[3:]),
                 "\r\n".join(lines[3:]), odd)
        with mock.patch.object(np, "fromstring", fromstring):
            for text in texts:
                for chunk in range(1, len(text) + 2):
                    read_like_per_line(text, chunk)

    @pytest.mark.parametrize("fromstring", [np.fromstring, strtoll_fromstring],
                             ids=["numpy", "strtoll"])
    @pytest.mark.parametrize("block", ["5 - 2 0\n", "5 1  0\n", "5  1 0\n", "3 1 0\n5 1  0\n"],
                             ids=["lone-minus", "doubled-before-0", "doubled-after-weight",
                                  "doubled-in-second-line"])
    def test_one_value_per_separator(self, block, fromstring):
        # the bytes pass these blocks: the count of values is what rejects them
        assert cnf._clause_block_shape(block) is not None
        with mock.patch.object(np, "fromstring", fromstring):
            assert read_block(block) is None
            assert read_block(block.replace("  ", " ").replace("- ", "-")) is True

    @pytest.mark.parametrize("fromstring", [np.fromstring, strtoll_fromstring],
                             ids=["numpy", "strtoll"])
    @pytest.mark.parametrize("block", [" 0\n", "3 1 0\n 0\n", "5 1 0", "3 1 0\n5 1 0", " ", "0",
                                       "5 1 ", "5 - 2"])
    def test_zero_weight_line_and_last_line_with_no_newline(self, block, fromstring):
        # a " 0" line starts the block or follows a "\n": its space is a
        # leading or doubled separator, which the count of values rejects.
        # With no final "\n" a block may hold one token more than its
        # separators, so a trailing space or a lone "-" ("5 1 ", "5 - 2")
        # balances that count: the shape's final "\n" rule rejects these.
        with mock.patch.object(np, "fromstring", fromstring):
            assert read_block(block) is None

    def test_top_beyond_int64(self):
        text = f"p wcnf 2 3 {2**64}\n5 1 0\n{2**64} 2 0\n{2**63 - 2} -1 2 0\n"
        for chunk in range(1, len(text) + 2):
            read_like_per_line(text, chunk)
        clauses = parse_dimacs(text).clauses
        assert [c.weight for c in clauses] == [5, None, 2**63 - 2]
        assert_exact_weights(clauses)

    @settings(deadline=None, max_examples=300)
    @given(dimacs_like_texts(), st.integers(1, 48))
    def test_read_like_per_line(self, text, chunk):
        read_like_per_line(text, chunk)

    @settings(deadline=None)
    @given(well_formed_formulas(), st.sampled_from([(), CLI_COMMENTS]), st.integers(1, 64))
    def test_well_formed_blocks_stay_in_numpy(self, formula, comments, chunk):
        text = write_dimacs(formula, comments)
        with mock.patch.object(cnf, "PARSE_CHUNK", chunk), spy_read_lines() as calls:
            assert parse_dimacs(text) == formula
        assert calls == [text.splitlines()[:len(comments) + 1]]

    def test_odd_last_block_reads_the_whole_text_once(self):
        text = write_dimacs(WEIGHTED_EXAMPLE, CLI_COMMENTS) + "c end\n"
        lines = text.splitlines()
        with mock.patch.object(cnf, "PARSE_CHUNK", 10), spy_read_lines() as calls:
            assert parse_dimacs(text) == WEIGHTED_EXAMPLE
        assert calls == [lines[:len(CLI_COMMENTS) + 1], lines]

    def test_cr_only_text_is_its_lead(self):
        # no "\n": the whole text is the leading lines, clauses and all
        f = parse_dimacs("p wcnf 1 1 1\r1 -1 0\r")
        assert (f.num_vars, f.top, tuple(f.clauses)) == (1, 1, (Clause((-1,)),))
        f = parse_dimacs("p wcnf 1 1 2\r1 -1 0\r")
        assert (f.num_vars, f.top, tuple(f.clauses)) == (1, 2, (Clause((-1,), 1),))

    def test_lead_holding_a_clause_reads_the_whole_text(self):
        # "c x\r5 1 0\n" is one leading line to the cut, two to the reader
        text = "c x\r5 1 0\n6 2 0\n"
        for chunk in range(1, len(text) + 2):
            read_like_per_line(text, chunk)
        assert parse_dimacs(text).soft_weights == [5, 6]

    def test_per_line_reader_builds_no_clause_objects(self):
        # "h" and a weight >= top (7 >= 5, its text read per line for the
        # comment among its clauses) both come out as the int64 weight 0
        texts = {"h 1 2 0\n3 -1 0\n": None, "p wcnf 2 2 5\n7 1 2 0\nc mid\n3 -1 0\n": 5}
        for text, top in texts.items():
            want = wcnf(2, (Clause((1, 2)), Clause((-1,), 3)), top)
            with mock.patch.object(cnf, "Clause", side_effect=AssertionError("Clause built")), \
                    mock.patch.object(cnf, "clause_block", side_effect=AssertionError("clause_block")):
                got = parse_dimacs(text)
            assert got == want
            arrays = got.clauses.arrays()
            assert [a.dtype for a in arrays] == [np.int64] * 3
            assert [a.tolist() for a in arrays] == [[1, 2, -1], [0, 2, 3], [0, 3]]

    def test_numpy_1_parse_warning_reads_per_line(self):
        # numpy 1.x warns, where 2.x raises, and returns what it could read
        fromstring = np.fromstring

        def numpy_1_fromstring(string, dtype, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            values = fromstring(string, dtype=dtype, sep=sep)
            values[values != 0] = 1
            return values

        with mock.patch.object(np, "fromstring", numpy_1_fromstring), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert parse_dimacs(write_dimacs(WEIGHTED_EXAMPLE)) == WEIGHTED_EXAMPLE


def per_line_texts(formula):
    """Other texts of ``formula``, by name, each read by the per-line
    reader: CRLF line ends, CR line ends, a comment among the clause lines,
    and the header-less "h" format (whose ``num_vars`` and ``top`` may
    differ from the formula's)."""
    text = write_dimacs(formula)
    lines = text.splitlines()
    mid = len(lines) // 2 + 1
    return {
        "crlf": text.replace("\n", "\r\n"),
        "cr": text.replace("\n", "\r"),
        "comment": "\n".join(lines[:mid] + ["c mid-body"] + lines[mid:]) + "\n",
        "h-lines": "".join(f"{'h' if c.is_hard else c.weight} {' '.join(map(str, c.literals))} 0\n"
                           for c in formula.clauses),
    }


def other_weight(clause):
    """The clause with a different weight: hard becomes soft and back."""
    return Clause(clause.literals, 1 if clause.is_hard else clause.weight + 1 if clause.weight < 3
                  else None)


class TestClauseView:
    def test_iterable_of_clauses(self):
        entries = (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 3), Clause((-3,), 4))
        f = WEIGHTED_EXAMPLE
        assert len(f.clauses) == 4 and f.soft_weights == [3, 4]
        assert tuple(f.clauses) == entries and list(f.clauses) == list(entries)
        # views compare only with views
        assert f.clauses != entries and f.clauses != list(entries) and f.clauses != "1 -2"

    def test_no_indexing(self):
        for key in (0, -1, slice(1, 3)):
            with pytest.raises(TypeError):
                WEIGHTED_EXAMPLE.clauses[key]

    def test_formula_keeps_the_view_it_is_given(self):
        view = view_of((Clause((1, -2)), Clause((2,), 1)))
        assert WcnfFormula(2, view).clauses is view

    def test_arrays_are_read_only(self):
        literals, offsets, _ = WEIGHTED_EXAMPLE.clauses.arrays()
        assert literals.tolist() == [1, -2, -1, 3, 2, 3, -3]
        assert offsets.tolist() == [0, 2, 4, 6, 7]
        for array in (literals, offsets):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_formula_takes_over_a_whole_views_arrays(self):
        literals = np.array([1, -2, 2], dtype=np.int64)
        offsets = np.array([0, 2, 3], dtype=np.int64)
        weights = np.array([0, 1], dtype=np.int64)
        formula = WcnfFormula(2, cnf.ClauseView(literals, offsets, weights))
        assert list(formula.clauses) == [Clause((1, -2)), Clause((2,), 1)]
        kept = formula.clauses.arrays()
        assert kept[0] is literals and kept[1] is offsets and kept[2] is weights  # no copies
        for array in (literals, offsets, weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    @settings(deadline=None)
    @given(well_formed_clauses(), st.integers(1, 5))
    def test_iteration_in_chunks(self, args, chunk):
        n, clauses, top = args
        with mock.patch.object(cnf, "CLAUSE_CHUNK", chunk):
            f = wcnf(n, clauses, top)
            assert tuple(f.clauses) == clauses
            assert f.soft_weights == [c.weight for c in clauses if not c.is_hard]
            assert_exact_weights(f.clauses)

    @settings(deadline=None)
    @given(well_formed_clauses(), st.integers(1, 5))
    # values past the small ints CPython caches: the table makes them shared
    @example((1000, (Clause((999, -1000)),) * 500, None), 3)
    # a variable past the literal count: no table
    @example((2**62, (Clause((2**62, -1)), Clause((1,), 2)), None), 1)
    def test_lists_walk_the_clauses(self, args, chunk):
        n, clauses, top = args
        view = wcnf(n, clauses, top).clauses
        with mock.patch.object(cnf, "CLAUSE_CHUNK", chunk):
            lists = list(view.lists())
            assert lists == [list(c.literals) for c in view]
            again = list(view.lists())
            assert lists == again and not any(map(operator.is_, lists, again))
        literals = view.arrays()[0]
        if max(map(abs, literals.tolist()), default=0) <= len(literals):
            shared = {}
            assert all(shared.setdefault(l, l) is l for l in chain.from_iterable(lists))

    @settings(deadline=None)
    @given(well_formed_clauses(), st.integers(1, 5) | st.just(10**6))
    @example((1, (), None), 1)
    def test_clause_chunks_visit_every_clause_once_in_order(self, args, step):
        n, clauses, top = args
        literals, offsets, _ = wcnf(n, clauses, top).clauses.arrays()
        walked = []
        for start, chunk, bounds in cnf.clause_chunks(literals, offsets, step):
            assert start == len(walked) and len(bounds) - 1 == min(step, len(clauses) - start)
            assert bounds[0] == 0 and bounds[-1] == len(chunk)
            walked += [tuple(chunk[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]
        assert walked == [c.literals for c in clauses]

    @settings(deadline=None)
    @given(well_formed_clauses(), st.lists(st.booleans(), min_size=12, max_size=12))
    # soft weights whose falsified sum passes int64: the sum stays exact
    @example((3, tuple(Clause((v,), 2**62) for v in (1, 2, 3)), None), [False] * 12)
    # a falsified hard clause among falsified soft ones
    @example((2, (Clause((1,), 3), Clause((2,)), Clause((-1, -2), 5)), None), [False] * 12)
    def test_evaluation_matches_per_clause_reference(self, args, values):
        n, clauses, top = args
        formula = wcnf(n, clauses, top)
        model = np.array([False] + values[:n])  # n <= 12
        falsified = formula.falsified_weight(model)
        if any(c.is_hard and not satisfied_by(c, model) for c in clauses):
            assert falsified is None
        else:
            assert type(falsified) is int and falsified == sum(
                c.weight for c in clauses if not satisfied_by(c, model))
            if not any(satisfied_by(c, model) for c in clauses):
                assert falsified == formula.soft_weight_sum
        for wrong in (model[:-1], np.append(model, False)):
            with pytest.raises(ValueError):
                formula.falsified_weight(wrong)

    @settings(deadline=None)
    @given(well_formed_clauses(), well_formed_clauses(), st.data())
    def test_equality_agrees_with_tuples(self, args, other_args, data):
        n, clauses, top = args
        f = wcnf(n, clauses, top)
        assert parse_dimacs(write_dimacs(f)) == f
        formulas = [f, wcnf(*other_args)]
        for name, text in per_line_texts(f).items():
            if not clauses and name == "h-lines":
                continue  # an empty text holds no formula
            parsed = parse_dimacs(text)
            assert parsed.clauses == f.clauses
            if name != "h-lines":
                assert parsed == f
            formulas.append(parsed)
        if clauses:
            i = data.draw(st.integers(0, len(clauses) - 1))
            changed = (clauses[:i] + (other_weight(clauses[i]),) + clauses[i + 1:], clauses[:i])
            formulas += [wcnf(n, c) for c in changed]
        for x in formulas:
            for y in formulas:
                a, b = x.clauses, y.clauses
                same = tuple(a) == tuple(b)
                assert (a == b) is same and (a != b) is not same


class TestInt64Limit:
    @pytest.mark.parametrize("num_vars", [2**63, 10**20])
    def test_num_vars_past_int64_rejected(self, num_vars):
        with pytest.raises(CnfError) as err:
            wcnf(num_vars, (Clause((1, 2)),))
        assert str(err.value) == f"num_vars={num_vars} does not fit in int64, as every literal must"

    @pytest.mark.parametrize("text", [
        f"p wcnf {2**63} 1 5\n5 1 0\n",
        f"h {2**63} 0\n",
        f"h -{2**63} 1 0\n",
        f"5 1 0\nh {10**20} 0\n",
    ], ids=["header", "headerless", "headerless-int64-min", "headerless-past-int64"])
    def test_parse_rejects_num_vars_past_int64(self, text):
        with pytest.raises(CnfError, match="does not fit in int64"):
            parse_dimacs(text)

    def test_literal_past_int64_keeps_its_error(self):
        # the per-line reader names the line of a value past int64 itself,
        # before the formula's check could name an earlier bad clause
        with pytest.raises(CnfError) as err:
            parse_dimacs(f"p wcnf 5 2 9\n9 1 -1 0\nh {10**20} 0\n")
        assert str(err.value) == f"line 3: literal {10**20} does not fit in int64"
        with pytest.raises(CnfError) as err:
            parse_dimacs(f"p wcnf 5 2 9\n9 1 0\nh 2 -{2**63 + 1} 0\n")
        assert str(err.value) == f"line 3: literal -{2**63 + 1} does not fit in int64"


# values a clause line may hold: small ones, 0, and ones at and past int64's ends
LINE_VALUES = st.integers(-4, 4) | st.sampled_from([2**63 - 1, -2**63, 2**63, -2**63 - 1, 10**20])


@st.composite
def per_line_records(draw):
    """``(header, lines)``: None or a header's ``(num_vars, top)``, and
    lines, each None for a comment or ``(weight, literals)``, weight "h"
    for an "h" line."""
    header = draw(st.none() | st.tuples(st.integers(1, 6), st.integers(1, 12) | st.just(2**64)))
    line = st.tuples(st.just("h") | st.integers(1, 12) | LINE_VALUES,
                     st.lists(LINE_VALUES, max_size=3))
    return header, draw(st.lists(st.none() | line, max_size=6))


def per_line_text(header, lines):
    """The WCNF text of ``per_line_records``: "c" lines for the comments."""
    out = [] if header is None else [f"p wcnf {header[0]} {sum(map(bool, lines))} {header[1]}"]
    out += ["c note" if line is None else " ".join(map(str, (line[0], *line[1], 0)))
            for line in lines]
    return "".join(f"{line}\n" for line in out)


def expected_reading(header, lines):
    """What ``parse_dimacs`` must make of ``per_line_text``, stated from the
    format: the first line with a soft weight below 1 or a value past int64
    is named; otherwise the formula is built from the oracle's expected
    view, its ``num_vars`` the header's or the largest variable."""
    top = None if header is None else header[1]
    literals, weights = [], []
    for lineno, line in enumerate(lines, start=1 if header is None else 2):
        if line is None:
            continue
        weight, lits = line
        weight = None if weight == "h" or top is not None and weight >= top else weight
        if weight is not None and weight < 1:
            return "error", f"line {lineno}: soft clause weight must be >= 1, got {weight}"
        if weight is not None and weight >= 2**63:
            return "error", f"line {lineno}: soft clause weight {weight} does not fit in int64"
        for l in lits:
            if not -2**63 <= l < 2**63:
                return "error", f"line {lineno}: literal {l} does not fit in int64"
        literals.append(tuple(lits))
        weights.append(weight)
    if header is None and not literals:
        return "error", "no header and no clauses found"
    num_vars = header[0] if header else max(map(abs, chain.from_iterable(literals)), default=0)
    return outcome(lambda view: WcnfFormula(num_vars, view, top), clause_block(literals, weights))


class TestPerLineReader:
    @settings(deadline=None, max_examples=300)
    @given(per_line_records())
    def test_reads_like_the_oracle(self, records):
        # comments, "h" lines, soft weights below 1 and values past int64,
        # read per line with or without numpy blocks
        text = per_line_text(*records)
        assert read_per_line(text) == outcome(parse_dimacs, text) == expected_reading(*records)
