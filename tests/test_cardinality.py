import itertools

import pytest

from helpers import mixed_literals, projected_models, totalizer_bound
from ttsat.cardinality import PAIRWISE_MAX, CardinalityError, Totalizer, exactly_one

BOUND_KINDS = ("at_most", "at_least", "exactly")


def ground_truth(lits, hit):
    """Variable assignments under which ``hit(number of true literals)`` holds.

    Assignments enumerate the literals' variables in order of appearance.
    """
    variables = [abs(l) for l in lits]
    out = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        value = dict(zip(variables, bits))
        if hit(sum(1 for l in lits if value[abs(l)] == (l > 0))):
            out.add(bits)
    return out


def bound_holds(k, kind):
    return {
        "at_most": lambda true: true <= k,
        "at_least": lambda true: true >= k,
        "exactly": lambda true: true == k,
    }[kind]


def fresh_after(lits):
    return itertools.count(max(abs(l) for l in lits) + 1).__next__


class TestDegenerateBounds:
    def test_pairwise_at_most_one(self):
        clauses = exactly_one([1, 2, 3], fresh_after([1, 2, 3]))
        assert set(clauses) == {(-1, -2), (-1, -3), (-2, -3), (1, 2, 3)}

    def test_vacuous_at_most(self):
        # n outputs for n literals: "at most n" has no output to constrain,
        # and the bare counter admits every assignment
        for n in range(1, 6):
            lits = mixed_literals(n)
            counter = Totalizer(lits)
            clauses = counter.count_to(None, fresh_after(lits))
            assert len(counter.outputs) == n
            assert len(projected_models(clauses, [abs(l) for l in lits])) == 2 ** n
            assert totalizer_bound(lits, n, "at_most") == clauses

    def test_at_least_zero_is_vacuous(self):
        # "at least 0" adds no unit to the counter
        for n in range(1, 6):
            lits = mixed_literals(n)
            clauses = Totalizer(lits).count_to(None, fresh_after(lits))
            assert totalizer_bound(lits, 0, "at_least") == clauses

    def test_at_most_zero_is_units(self):
        # the one unit ¬out[0]
        clauses = totalizer_bound([1, -2], 0, "at_most")
        assert len(clauses[-1]) == 1
        assert projected_models(clauses, [1, 2]) == {(False, True)}

    def test_at_least_one_is_single_clause(self):
        # the at-least half of a pairwise exactly-one is one clause
        lits = [1, -2, 3, 4]
        clauses = exactly_one(lits, fresh_after(lits))
        assert clauses[-1] == tuple(lits)
        assert all(len(c) == 2 for c in clauses[:-1])

    def test_at_least_all_is_units(self):
        assert exactly_one([-5], fresh_after([5])) == [(-5,)]
        # a lone literal is its own counter
        counter = Totalizer([7])
        assert counter.count_to(None, fresh_after([7])) == [] and counter.outputs == [7]

    def test_exactly_one_of_two(self):
        clauses = exactly_one([1, 2], fresh_after([1, 2]))
        assert set(clauses) == {(1, 2), (-1, -2)}

    def test_exactly_zero_is_negative_units(self):
        # exactly 0 is at most 0: the one unit ¬out[0], which forces every
        # literal false
        clauses = totalizer_bound([1, -2], 0, "exactly")
        assert clauses == totalizer_bound([1, -2], 0, "at_most")
        assert len(clauses[-1]) == 1 and clauses[-1][0] < 0
        assert projected_models(clauses, [1, 2]) == {(False, True)}


class TestErrors:
    def test_empty_literals(self):
        with pytest.raises(CardinalityError):
            exactly_one([], fresh_after([1]))

    def test_duplicate_variables(self):
        with pytest.raises(CardinalityError):
            exactly_one([1, -1], fresh_after([1]))

    def test_zero_literal(self):
        with pytest.raises(CardinalityError):
            exactly_one([1, 0, 2], fresh_after([2]))


class TestProjection:
    def test_totalizer_at_most_two_of_four_has_11_models(self):
        lits = [1, 2, 3, 4]
        clauses = totalizer_bound(lits, 2, "at_most")
        assert any(abs(l) > 4 for c in clauses for l in c)
        # C(4,0) + C(4,1) + C(4,2)
        assert len(projected_models(clauses, lits)) == 11

    def test_at_least_two_of_three_has_4_models(self):
        clauses = totalizer_bound([1, 2, 3], 2, "at_least")
        assert len(projected_models(clauses, [1, 2, 3])) == 4

    def test_exactly_two_of_five_has_10_models(self):
        lits = [1, 2, 3, 4, 5]
        clauses = totalizer_bound(lits, 2, "exactly")
        assert len(projected_models(clauses, lits)) == 10

    @pytest.mark.parametrize("kind", BOUND_KINDS)
    def test_projection_equivalence_small(self, kind):
        # mixed polarities; the full n <= 6 sweep runs in the acceptance suite
        for n in range(1, 5):
            lits = mixed_literals(n)
            for k in range(0, n + 1):
                got = projected_models(totalizer_bound(lits, k, kind), [abs(l) for l in lits])
                assert got == ground_truth(lits, bound_holds(k, kind)), f"{kind} n={n} k={k}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_capped_projection_equivalence(self, n):
        # a counter with at most ``cap`` outputs per node bounds the count
        # exactly at every k < cap, from above and from below; a cap of n
        # or more is the full counter
        lits = mixed_literals(n)
        base = [abs(l) for l in lits]
        full = Totalizer(lits).count_to(None, fresh_after(lits))
        for cap in range(1, n + 1):
            counter = Totalizer(lits)
            clauses, outs = counter.count_to(cap, fresh_after(lits)), counter.outputs
            assert len(outs) == min(n, cap)
            assert len(clauses) <= len(full)
            assert len(projected_models(clauses, base)) == 2 ** n
            for k in range(min(n, cap)):
                at_most = projected_models(clauses + [(-outs[k],)], base)
                assert at_most == ground_truth(lits, bound_holds(k, "at_most")), (cap, k)
                more = projected_models(clauses + [(outs[k],)], base)
                assert more == ground_truth(lits, bound_holds(k + 1, "at_least")), (cap, k)
        assert Totalizer(lits).count_to(n, fresh_after(lits)) == full

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("path", ["one_by_one", "jump"])
    def test_grown_in_place_projection_equivalence(self, n, path):
        # a Totalizer whose cap grows in steps adds only the clauses of its
        # new outputs: after each step its clauses so far are, up to the
        # names of the fresh variables, one build's at that cap
        lits = mixed_literals(n)
        base = [abs(l) for l in lits]
        alloc = fresh_after(lits)
        counter = Totalizer(lits)
        clauses = []
        for cap in range(1, n + 1) if path == "one_by_one" else (2, n):
            clauses += counter.count_to(cap, alloc)
            one_build = Totalizer(lits)
            built = one_build.count_to(cap, fresh_after(lits))
            assert len(set(clauses)) == len(clauses) == len(built)
            assert len(counter.outputs) == len(one_build.outputs)
            for k in range(len(counter.outputs)):
                at_most = projected_models(clauses + [(-counter.outputs[k],)], base)
                assert at_most == ground_truth(lits, bound_holds(k, "at_most")), (cap, k)
                more = projected_models(clauses + [(counter.outputs[k],)], base)
                assert more == ground_truth(lits, bound_holds(k + 1, "at_least")), (cap, k)
        assert counter.count_to(n + 1, alloc) == []

    @pytest.mark.parametrize("n", range(1, PAIRWISE_MAX + 3))
    def test_exactly_one_projection(self, n):
        # both sides of the switch from pairwise to totalizer
        lits = mixed_literals(n)
        got = projected_models(exactly_one(lits, fresh_after(lits)), [abs(l) for l in lits])
        assert got == ground_truth(lits, lambda true: true == 1)


class TestAllocator:
    def test_aux_vars_fresh_and_monotone(self):
        for n in (9, 10, 16):
            lits = list(range(1, n + 1))
            alloc = itertools.count(n + 1)
            clauses = exactly_one(lits, alloc.__next__)
            drawn = next(alloc) - (n + 1)
            assert drawn > 0
            used = {abs(l) for c in clauses for l in c}
            assert used - set(lits) == set(range(n + 1, n + 1 + drawn))

    def test_pairwise_at_most_one_clause_count(self):
        for n in range(2, PAIRWISE_MAX + 1):
            clauses = exactly_one(list(range(1, n + 1)), fresh_after([n]))
            assert len(clauses) == n * (n - 1) // 2 + 1
            assert all(len(c) == 2 and c[0] < 0 and c[1] < 0 for c in clauses[:-1])

    def test_deterministic_output(self):
        lits = [1, -2, 3, 4, -5, 6, 7, -8, 9, 10]
        assert exactly_one(lits, fresh_after(lits)) == exactly_one(lits, fresh_after(lits))
        assert (Totalizer(lits).count_to(None, fresh_after(lits))
                == Totalizer(lits).count_to(None, fresh_after(lits)))


class TestDefaults:
    def test_default_scheme_policy(self):
        # pairwise, drawing no variable, up to PAIRWISE_MAX literals; a
        # totalizer above
        for n, pairwise in ((PAIRWISE_MAX, True), (PAIRWISE_MAX + 1, False)):
            alloc = itertools.count(n + 1)
            exactly_one(list(range(1, n + 1)), alloc.__next__)
            assert (next(alloc) == n + 1) == pairwise
