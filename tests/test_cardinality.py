import itertools

import pytest

from helpers import projected_models
from ttsat.cardinality import (
    BoundKind,
    CardinalityError,
    Scheme,
    VarAllocator,
    default_scheme,
    encode_at_least,
    encode_at_most,
    encode_exactly,
)

ALL_SCHEMES = list(Scheme)


def ground_truth(lits, k, kind):
    """Variable assignments under which the stated number of literals hold.

    Assignments enumerate the literals' variables in order of appearance.
    """
    variables = [abs(l) for l in lits]
    out = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        value = dict(zip(variables, bits))
        true = sum(1 for l in lits if value[abs(l)] == (l > 0))
        ok = {
            BoundKind.AT_MOST: true <= k,
            BoundKind.AT_LEAST: true >= k,
            BoundKind.EXACTLY: true == k,
        }[kind]
        if ok:
            out.add(bits)
    return out


def encoded(lits, k, kind, scheme):
    alloc = VarAllocator(max(abs(l) for l in lits) + 1)
    fn = {
        BoundKind.AT_MOST: encode_at_most,
        BoundKind.AT_LEAST: encode_at_least,
        BoundKind.EXACTLY: encode_exactly,
    }[kind]
    return fn(k, lits, scheme, alloc)


class TestDegenerateBounds:
    def test_pairwise_at_most_one(self):
        clauses, aux = encode_at_most(1, [1, 2, 3], Scheme.PAIRWISE)
        assert set(clauses) == {(-1, -2), (-1, -3), (-2, -3)}
        assert aux == []

    def test_vacuous_at_most(self):
        for scheme in ALL_SCHEMES:
            clauses, aux = encode_at_most(3, [1, 2, 3], scheme, VarAllocator(4))
            assert clauses == [] and aux == []

    def test_at_most_zero_is_units(self):
        clauses, _ = encode_at_most(0, [1, -2], Scheme.TOTALIZER)
        assert clauses == [(-1,), (2,)]

    def test_at_least_one_is_single_clause(self):
        clauses, aux = encode_at_least(1, [1, 2], Scheme.PAIRWISE)
        assert clauses == [(1, 2)] and aux == []

    def test_at_least_zero_is_vacuous(self):
        clauses, _ = encode_at_least(0, [1], Scheme.SEQUENTIAL_COUNTER)
        assert clauses == []

    def test_at_least_all_is_units(self):
        clauses, _ = encode_at_least(2, [1, 2], Scheme.TOTALIZER)
        assert clauses == [(1,), (2,)]

    def test_exactly_one_of_two(self):
        clauses, _ = encode_exactly(1, [1, 2])
        assert set(clauses) == {(1, 2), (-1, -2)}

    def test_exactly_zero_is_negative_units(self):
        clauses, _ = encode_exactly(0, [1, 2])
        assert clauses == [(-1,), (-2,)]


class TestErrors:
    def test_empty_literals(self):
        with pytest.raises(CardinalityError):
            encode_at_most(1, [])

    def test_duplicate_variables(self):
        with pytest.raises(CardinalityError):
            encode_at_most(1, [1, -1])

    def test_negative_bound(self):
        with pytest.raises(CardinalityError):
            encode_at_most(-1, [1])

    def test_at_least_beyond_size(self):
        with pytest.raises(CardinalityError):
            encode_at_least(3, [1, 2])

    def test_counter_schemes_need_allocator(self):
        with pytest.raises(CardinalityError):
            encode_at_most(2, [1, 2, 3, 4], Scheme.TOTALIZER)


class TestProjection:
    def test_sequential_at_most_two_of_four_has_11_models(self):
        lits = [1, 2, 3, 4]
        clauses, aux = encode_at_most(2, lits, Scheme.SEQUENTIAL_COUNTER, VarAllocator(5))
        assert len(aux) > 0
        models = projected_models(clauses, lits)
        # C(4,0) + C(4,1) + C(4,2)
        assert len(models) == 11

    def test_at_least_two_of_three_has_4_models(self):
        for scheme in ALL_SCHEMES:
            clauses, _ = encode_at_least(2, [1, 2, 3], scheme, VarAllocator(4))
            assert len(projected_models(clauses, [1, 2, 3])) == 4

    def test_exactly_two_of_five_has_10_models(self):
        lits = [1, 2, 3, 4, 5]
        for scheme in ALL_SCHEMES:
            clauses, _ = encode_exactly(2, lits, scheme, VarAllocator(6))
            assert len(projected_models(clauses, lits)) == 10

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_projection_equivalence_small(self, scheme, kind):
        # mixed polarities; the full n <= 6 sweep runs in the acceptance suite
        for n in range(1, 5):
            lits = [v if v % 2 else -v for v in range(1, n + 1)]
            for k in range(0, n + 1):
                clauses, _ = encoded(lits, k, kind, scheme)
                got = projected_models(clauses, [abs(l) for l in lits])
                want = ground_truth(lits, k, kind)
                assert got == want, f"{scheme} {kind} n={n} k={k}"


class TestAllocator:
    def test_aux_vars_fresh_and_monotone(self):
        alloc = VarAllocator(10)
        _, aux1 = encode_at_most(2, [1, 2, 3, 4], Scheme.SEQUENTIAL_COUNTER, alloc)
        _, aux2 = encode_at_most(2, [5, 6, 7, 8], Scheme.TOTALIZER, alloc)
        seen = aux1 + aux2
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        assert min(seen) == 10

    def test_pairwise_at_most_one_clause_count(self):
        for n in range(2, 9):
            clauses, _ = encode_at_most(1, list(range(1, n + 1)), Scheme.PAIRWISE)
            assert len(clauses) == n * (n - 1) // 2
            assert all(len(c) == 2 for c in clauses)

    def test_deterministic_output(self):
        for scheme in ALL_SCHEMES:
            first = encoded([1, -2, 3, 4, -5], 2, BoundKind.EXACTLY, scheme)
            second = encoded([1, -2, 3, 4, -5], 2, BoundKind.EXACTLY, scheme)
            assert first == second


class TestDefaults:
    def test_default_scheme_policy(self):
        assert default_scheme(1, 5) is Scheme.PAIRWISE
        assert default_scheme(1, 9) is Scheme.TOTALIZER
        assert default_scheme(2, 4) is Scheme.TOTALIZER
