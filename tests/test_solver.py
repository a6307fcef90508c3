import gc
import heapq
import itertools
import random
import sys
import tempfile
import time
import types
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    HARD_VIOLATED_BY_ALL_FALSE,
    answer_all_false,
    brute_force_maxsat,
    interrupt_after_first_model,
    random_wcnf,
    semantic_optimum,
    solve_clauses,
    wcnf,
)
from ttsat import cnf
from ttsat import solver as solver_module
from ttsat.cardinality import Totalizer
from ttsat.cnf import Clause, CnfError
from ttsat.encoder import EncodeOptions, encode
from ttsat.model import gen_random_instance
from ttsat.solver import (
    CdclSolver,
    ExternalSolverError,
    MaxSatResult,
    MaxSatStatus,
    SatResult,
    SatStatus,
    SolverConfig,
    SolverError,
    SolverInternalError,
    UntrustedSolverError,
    solve_external,
    solve_maxsat,
)

UNSAT_4 = [(1, -2), (-1, 3), (2, 3), (-3,)]

WEIGHTED = wcnf(
    3, (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 3), Clause((-3,), 4))
)
PARTIAL = wcnf(
    3, (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 1), Clause((-3,), 1))
)
ALL_SOFT = wcnf(3, tuple(Clause(c, 1) for c in UNSAT_4))


def php(holes):
    """Pigeonhole formula with holes+1 pigeons; unsatisfiable, needs search."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestSolveSat:
    def test_four_clause_formula_unsat(self):
        assert solve_clauses(UNSAT_4).status is SatStatus.UNSAT

    def test_empty_clause_set_sat(self):
        res = solve_clauses([])
        assert res.status is SatStatus.SAT
        assert res.model == {}

    def test_assumption_conflict_core(self):
        res = solve_clauses([(1,)], assumptions=[-1])
        assert res.status is SatStatus.UNSAT
        assert res.core == (-1,)

    def test_model_is_verified(self):
        res = solve_clauses([(1, 2), (-1, 2), (1, -2)])
        assert res.status is SatStatus.SAT
        assert res.model[1] and res.model[2]

    def test_timeout_yields_indeterminate(self):
        res = solve_clauses(php(5), deadline=time.monotonic())
        assert res.status is SatStatus.INDETERMINATE

    def test_php_unsat(self):
        assert solve_clauses(php(4)).status is SatStatus.UNSAT

    def test_deterministic_model(self):
        clauses = [(1, 2, 3), (-1, -2), (-2, -3), (3, 1)]
        a = solve_clauses(clauses, seed=5)
        b = solve_clauses(clauses, seed=5)
        assert a.model == b.model

    def test_core_is_subset_and_unsat(self):
        rng = random.Random(99)
        checked = 0
        while checked < 25:
            f = random_wcnf(rng, max_vars=10, max_clauses=30, hard_fraction=1.0)
            clauses = [c.literals for c in f.clauses]
            n = f.num_vars
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), min(n, 4))
            ]
            res = solve_clauses(clauses, assumptions)
            if res.status is not SatStatus.UNSAT:
                continue
            checked += 1
            assert set(res.core) <= set(assumptions)
            again = solve_clauses(clauses, list(res.core))
            assert again.status is SatStatus.UNSAT

    def test_incremental_addition(self):
        solver = CdclSolver()
        solver.add_clause((1, 2))
        assert solver.solve().status is SatStatus.SAT
        solver.add_clause((-1,))
        solver.add_clause((-2,))
        assert solver.solve().status is SatStatus.UNSAT


def watchers(solver):
    """Per clause in the solver's watch lists, by identity: the clause and
    the literals whose watch lists hold it."""
    found = {}
    for l in range(-solver.nvars, solver.nvars + 1):
        if l:
            for c in solver.watches[l]:
                found.setdefault(id(c), (c, []))[1].append(l)
    return found


def watched_clauses(solver):
    """Each clause in the solver's watch lists once, by identity."""
    return [c for c, _ in watchers(solver).values()]


def loaded_clauses(formula, selectors):
    """The clauses ``load`` watches, in load order: the hard clauses of two
    or more literals, then each soft clause with its selector."""
    hard = [c.literals for c in formula.clauses if c.is_hard and len(c.literals) > 1]
    soft = [c for c in formula.clauses if not c.is_hard]
    return [list(lits) for lits in hard] + [[*c.literals, sel] for c, sel in zip(soft, selectors)]


def brute_force_sat(num_vars, clauses):
    """SAT/UNSAT by exhaustive enumeration, through the numpy oracle."""
    formula = wcnf(num_vars, tuple(Clause(tuple(c)) for c in clauses))
    return brute_force_maxsat(formula).status is MaxSatStatus.OPTIMUM


def clause_over(n):
    """A clause over variables 1..n with no repeated variable."""
    return st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))


@st.composite
def clauses_and_assumptions(draw):
    """(n, clauses over 1..n, one list of assumptions per solve, seed)."""
    n = draw(st.integers(2, 8))
    clauses = draw(st.lists(clause_over(n), min_size=1, max_size=40))
    rounds = draw(st.lists(st.lists(
        st.tuples(st.integers(1, n), st.booleans()), max_size=4, unique_by=lambda t: t[0]),
        min_size=1, max_size=3))
    return n, clauses, [[v if pos else -v for v, pos in r] for r in rounds], draw(st.integers(0, 3))


def checked_picks(monkeypatch):
    """Check each branching pick of every solver: it is the argmax of
    (activity, -variable) over the unassigned variables, and the heap holds
    at most twice the variables plus the entries pushed since the last
    pick.  Returns the counts of picks and of heap compactions."""
    counts = {"picks": 0, "compactions": 0}
    pushes = 0

    def counting_push(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(solver_module, "heapq", types.SimpleNamespace(
        heappush=counting_push, heappop=heapq.heappop, heapify=heapq.heapify))
    pick = CdclSolver._pick_branch

    def checked_pick(solver):
        nonlocal pushes
        n = solver.nvars
        assert len(solver.heap) <= 2 * n + pushes
        counts["compactions"] += len(solver.heap) > 2 * n
        unassigned = [v for v in range(1, n + 1) if solver.vals[v] == solver_module._UNASSIGNED]
        expected = max(unassigned, key=lambda v: (solver.act[v], -v), default=0)
        v = pick(solver)
        assert v == expected
        counts["picks"] += 1
        pushes = 0
        return v

    monkeypatch.setattr(CdclSolver, "_pick_branch", checked_pick)
    return counts


class TestCdclSolver:
    def test_rescale_reranks_heap(self):
        # the heap's entries rank the variables at their tiny initial
        # activities, so without the rebuild the pick would not be ``low``
        solver = CdclSolver()
        solver.ensure_vars(3)
        low = min((1, 2, 3), key=solver.act.__getitem__)
        solver.act[low] = 2e100
        solver.var_inc = 5e99
        solver._rescale()  # every activity and the increment scaled by 1e-100
        assert solver.act[low] == 2.0 and solver.var_inc == 0.5
        assert sum(a > 1e-100 for a in solver.act[1:4]) == 1
        assert solver._pick_branch() == low

    def test_pick_is_argmax_and_heap_stays_bounded(self, monkeypatch):
        picks = checked_picks(monkeypatch)
        solver = CdclSolver()
        for c in php(6):
            solver.add_clause(c)
        assert solver.solve().status is SatStatus.UNSAT
        assert picks["compactions"] > 0

    def test_pick_is_argmax_under_assumptions_across_oll_calls(self, monkeypatch,
                                                              sample_partial):
        # the assumption levels hold implied literals, whose reasons the
        # conflicts bump while those levels stay assigned
        picks = checked_picks(monkeypatch)
        calls, _ = trace_oll(monkeypatch)
        res = solve_maxsat(sample_partial[0], SolverConfig(seed=0))
        assert res.status is MaxSatStatus.OPTIMUM and res.cost == 2
        assert len(calls) > 1 and all(assumptions for assumptions, _ in calls)
        assert picks["picks"] > 0

    def test_conflict_bumps_the_reason_side(self):
        # x1 implies x2 at level 1; x3 implies x4 at level 2, conflicting
        # with x2.  The learned clause (-x3 -x2) resolves no clause that
        # holds x1: only the reason of its literal -x2 does
        solver = CdclSolver()
        for c in ([-1, 2], [-3, 4], [-2, -3, -4]):
            solver.add_clause(c)
        before = solver.act[1]
        assert solver.solve([1, 3]).status is SatStatus.UNSAT
        assert solver.total_conflicts == 1
        assert solver.learned == [[-3, -2]]
        assert solver.act[1] == before + 1.0

    @staticmethod
    def trail_of(levels, nvars):
        """A solver whose trail is ``levels``: one list of (literal, reason)
        pairs per decision level from 0; the first literal of each list
        above level 0 is its decision."""
        solver = CdclSolver()
        solver.ensure_vars(nvars)
        for i, assigned in enumerate(levels):
            if i:
                solver.lim.append(len(solver.trail))
            for lit, reason in assigned:
                solver._enqueue(lit, reason)
        return solver

    def test_analyze_minimizes_and_puts_the_backjump_literal_second(self):
        # levels 1-4 decide x1-x4; x7 follows from x1, x6 from x2, and x5
        # from x3 and x7.  The conflict resolves on x4 alone, leaving -1 -2
        # -5 -6 -3 in that order.  x6's reason holds only -2, which the
        # clause holds, so -6 goes; x5's holds -7, which it does not.  Of
        # the two level-3 literals -5 comes first, so it goes second and -1
        # takes its place; -2 and -3 stay where resolution put them
        solver = self.trail_of([
            [],
            [(1, None), (7, [7, -1])],
            [(2, None), (6, [6, -2])],
            [(3, None), (5, [5, -3, -7])],
            [(4, None)],
        ], 7)
        before = solver.act[7]
        assert solver._analyze([-1, -2, -5, -6, -3, -4]) == ([-4, -5, -2, -1, -3], 3)
        assert not any(solver.seen)
        # x7 is met only in the reason of the kept -5
        assert solver.act[7] == before + 1.0

    def test_analyze_unit_clause_backjumps_to_level_0(self):
        # x2 follows from the level-2 decision x1, and x3 is false at level
        # 0: resolution leaves -1 alone, whatever the levels below
        solver = self.trail_of([
            [(-3, None)],
            [(4, None)],
            [(1, None), (2, [2, -1])],
        ], 4)
        assert solver._analyze([-1, -2, 3]) == ([-1], 0)

    def test_reason_side_bump_rescales(self):
        # the same conflict; x2's reason (x2 -x1) bumps x2 past 1e100, so
        # every activity is scaled by 1e-100 and x1 gains the scaled increment
        solver = CdclSolver()
        for c in ([-1, 2], [-3, 4], [-2, -3, -4]):
            solver.add_clause(c)
        solver.act[2] = 5e99
        solver.var_inc = 3e99
        assert solver.solve([1, 3]).status is SatStatus.UNSAT
        assert solver.act[2] == pytest.approx(1.1)
        assert solver.act[1] == pytest.approx(0.3)
        assert solver.act[3] == solver.act[4] == pytest.approx(0.3)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_incremental_against_brute_force(self, data):
        """new_var and add_clause between solve calls, crossing the literal
        arrays' capacity several times, against exhaustive enumeration."""
        n = data.draw(st.integers(1, 2))
        solver = CdclSolver(seed=data.draw(st.integers(0, 3)))
        solver.ensure_vars(n)
        clauses = []
        for _ in range(data.draw(st.integers(1, 5))):
            for _ in range(data.draw(st.integers(0, 2))):
                solver.new_var()
            n = solver.nvars
            for c in data.draw(st.lists(clause_over(n), max_size=6)):
                clauses.append(c)
                solver.add_clause(c)
            assumptions = [
                v if positive else -v
                for v, positive in data.draw(st.lists(
                    st.tuples(st.integers(1, n), st.booleans()),
                    max_size=4, unique_by=lambda t: t[0]))
            ]
            res = solver.solve(assumptions)
            units = [(a,) for a in assumptions]
            assert (res.status is SatStatus.SAT) == brute_force_sat(n, clauses + units)
            if res.status is SatStatus.SAT:
                for c in clauses + units:
                    assert any(res.model[abs(l)] == (l > 0) for l in c)
            else:
                assert res.status is SatStatus.UNSAT
                assert set(res.core) <= set(assumptions)
                assert solve_clauses(clauses, res.core).status is SatStatus.UNSAT

    def test_conflict_keeps_the_unvisited_watchers(self):
        solver = CdclSolver()
        for c in ([1, 2], [1, -2], [1, 3], [1, 4]):
            solver.add_clause(c)
        solver.lim.append(len(solver.trail))
        solver._enqueue(-1, None)
        # x1 false makes x2 true through the first clause, and the second
        # clause conflicts: the two after it were never visited and stay
        # in x1's watch list, in order, each swapped only if visited
        confl = solver._propagate()
        assert confl == [-2, 1]
        assert solver.watches[1] == [[2, 1], [-2, 1], [1, 3], [1, 4]]
        assert solver.trail == [-1, 2]
        assert solver.qhead == 1

    @settings(deadline=None, max_examples=80)
    @given(clauses_and_assumptions())
    @example((4, [(1, 2), (1, -2), (1, 3), (1, 4)], [[-1], []], 0))
    def test_each_clause_watched_by_its_first_two_literals(self, case):
        """After each solve, a clause of two or more literals sits once in
        the watch list of each of its first two literals and in no other.
        The example conflicts partway through x1's watch list."""
        n, clauses, rounds, seed = case
        solver = CdclSolver(seed=seed)
        solver.ensure_vars(n)
        stored = []
        for c in clauses:
            before = watchers(solver)
            solver.add_clause(c)
            stored += [cl for key, (cl, _) in watchers(solver).items() if key not in before]
        for assumptions in rounds:
            solver.solve(assumptions)
            found = watchers(solver)
            for c, lits in found.values():
                assert sorted(lits) == sorted(c[:2]), c
            assert set(found) == {id(c) for c in stored + solver.learned}

    def test_search_stops_at_its_deadline(self, monkeypatch):
        # a clock that ticks one second per reading: the entry check reads
        # 0, and the check every 128 conflicts reads 1, past the deadline
        ticks = itertools.count()
        monkeypatch.setattr(solver_module, "time",
                            types.SimpleNamespace(monotonic=lambda: float(next(ticks))))
        solver = CdclSolver()
        for c in php(7):
            solver.add_clause(c)
        assert solver.solve(deadline=0.5).status is SatStatus.INDETERMINATE
        assert solver.total_conflicts == 128
        assert solver.lim == []
        # a second bounded call goes on from the clauses learned so far
        assert solver.solve(deadline=2.5).status is SatStatus.INDETERMINATE
        assert solver.total_conflicts == 256
        assert solver.lim == []

    def test_add_clause_normalises(self):
        solver = CdclSolver()
        assert solver.add_clause([1, -1, 2]) is True  # a tautology adds nothing
        assert watched_clauses(solver) == []
        assert solver.add_clause([1, 1, 2]) is True
        assert watched_clauses(solver) == [[1, 2]]
        assert solver.watches[1] == [[1, 2]] and solver.watches[2] == [[1, 2]]


def checked_reductions(solver):
    """Check the watch lists around each of the solver's clause-database
    reductions; returns the list that receives, per reduction, the number
    of learned clauses it discarded."""
    reductions = []
    reduce_db = solver._reduce_db

    def checked():
        before = watchers(solver).keys()
        learned = {id(c) for c in solver.learned}
        assert learned <= before
        reduce_db()
        dropped = learned - {id(c) for c in solver.learned}
        # every clause but the discarded ones is still watched, and by
        # exactly its first two literals, once each
        after = watchers(solver)
        assert after.keys() == before - dropped
        for c, lits in after.values():
            assert len(c) >= 2 and sorted(lits) == sorted(c[:2])
        reductions.append(len(dropped))

    solver._reduce_db = checked
    return reductions


class TestReduceDb:
    @pytest.mark.parametrize("holes", [5, 6])
    def test_pigeonhole_with_a_small_database(self, holes):
        solver = CdclSolver()
        solver.max_learned = 4
        reductions = checked_reductions(solver)
        for c in php(holes):
            solver.add_clause(c)
        assert solver.solve().status is SatStatus.UNSAT
        assert len(reductions) > 1 and sum(reductions) > 0

    def test_random_formulas_under_assumptions_against_brute_force(self):
        rng = random.Random(7)
        reductions = []
        for _ in range(40):
            n = rng.randint(12, 18)
            clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(round(4.26 * n))]
            solver = CdclSolver(seed=rng.randrange(4))
            solver.max_learned = 2
            for c in clauses:
                solver.add_clause(c)
            counts = checked_reductions(solver)
            for _ in range(2):  # learned clauses, pruned, carry to the next call
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, n + 1), 3)]
                res = solver.solve(assumptions)
                units = [(a,) for a in assumptions]
                assert (res.status is SatStatus.SAT) == brute_force_sat(n, clauses + units)
                if res.status is SatStatus.SAT:
                    for c in clauses + units:
                        assert any(res.model[abs(l)] == (l > 0) for l in c)
                else:
                    assert res.status is SatStatus.UNSAT
                    assert set(res.core) <= set(assumptions)
                    assert solve_clauses(clauses, res.core).status is SatStatus.UNSAT
            reductions += counts
        assert len(reductions) > 20 and sum(reductions) > 20


class TestSolveMaxsatExamples:
    def test_all_soft_cost_one(self):
        res = solve_maxsat(ALL_SOFT)
        assert res.status is MaxSatStatus.OPTIMUM
        assert res.cost == 1  # three of four clauses satisfiable

    def test_partial_cost_one(self):
        res = solve_maxsat(PARTIAL)
        assert res.cost == 1
        # the model must satisfy both hard clauses
        assert PARTIAL.hard_satisfied(res.model)

    def test_weighted_cost_three(self):
        res = solve_maxsat(WEIGHTED)
        assert res.cost == 3
        # all-false achieves the optimum
        assert WEIGHTED.falsified_weight({1: False, 2: False, 3: False}) == 3

    def test_hard_unsat(self):
        f = wcnf(1, (Clause((1,)), Clause((-1,)), Clause((1,), 5)))
        assert solve_maxsat(f).status is MaxSatStatus.HARD_UNSAT

    def test_no_soft_clauses(self):
        f = wcnf(2, (Clause((1, 2)),))
        res = solve_maxsat(f)
        assert res.status is MaxSatStatus.OPTIMUM and res.cost == 0

    def test_indeterminate_bounds(self):
        res = solve_maxsat(WEIGHTED, SolverConfig(timeout=0))
        assert res.status is MaxSatStatus.INDETERMINATE
        assert res.lower == 0 and (res.cost is None or res.cost >= 3)
        assert (res.cost is None) == (res.model is None)

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_spent_timeout_loads_nothing(self, monkeypatch, timeout):
        def load(self, formula):
            raise AssertionError("loaded with no time left")

        monkeypatch.setattr(CdclSolver, "load", load)
        res = solve_maxsat(WEIGHTED, SolverConfig(timeout=timeout))
        assert res == MaxSatResult(MaxSatStatus.INDETERMINATE)

    def test_model_cost_is_checked(self):
        res = solve_maxsat(WEIGHTED)
        assert res.cost == res.lower == WEIGHTED.falsified_weight(res.model)

    def test_interrupted_run_keeps_best_model(self, monkeypatch):
        # the budget runs out on the SAT call after the first stratum's model
        models = interrupt_after_first_model(monkeypatch)
        res = solve_maxsat(WEIGHTED)
        assert models
        assert res.status is MaxSatStatus.INDETERMINATE
        assert res.cost == WEIGHTED.falsified_weight(res.model)
        assert res.lower <= 3 <= res.cost

    def test_hard_violating_model_raises(self, monkeypatch):
        answer_all_false(monkeypatch)
        with pytest.raises(SolverInternalError, match="violates a hard clause"):
            solve_maxsat(HARD_VIOLATED_BY_ALL_FALSE)

    def test_hard_violating_best_model_raises(self, monkeypatch):
        # a model false on the four base variables and true on the selectors
        # ends no search; the budget runs out next, so it is the best model
        calls = []

        def solve(self, assumptions=(), deadline=None):
            calls.append(assumptions)
            if len(calls) > 1:
                return SatResult(SatStatus.INDETERMINATE)
            return SatResult(SatStatus.SAT, {v: v > 4 for v in range(1, self.nvars + 1)})

        monkeypatch.setattr(CdclSolver, "solve", solve)
        with pytest.raises(SolverInternalError, match="violates a hard clause"):
            solve_maxsat(HARD_VIOLATED_BY_ALL_FALSE)
        assert len(calls) == 2

    @pytest.mark.parametrize("timeout", [None, 0.05])
    def test_solve_leaves_no_cyclic_garbage(self, sample_weighted, timeout):
        # solve_maxsat pauses the collector, so all it makes must go by refcount
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            solve_maxsat(sample_weighted[0], SolverConfig(timeout=timeout))
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()

    def test_solver_freed_without_gc(self, monkeypatch):
        # a 9-clause core is relaxed with a totalizer drawing from solver.new_var
        refs = []

        class Spy(CdclSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(solver_module, "CdclSolver", Spy)
        formula = wcnf(
            9, (Clause(tuple(range(1, 10))),) + tuple(Clause((-v,), 1) for v in range(1, 10))
        )
        was = gc.isenabled()
        gc.disable()
        try:
            assert solve_maxsat(formula).cost == 1
            assert [r() for r in refs] == [None]
        finally:
            if was:
                gc.enable()


def trace_oll(monkeypatch):
    """Record each SAT call of solve_maxsat as (assumptions, result), and
    each time it makes a core's totalizer count further as (totalizer,
    cap, outputs before, clauses added)."""
    calls, sums = [], []
    solve = CdclSolver.solve
    count_to = Totalizer.count_to

    def traced_solve(self, assumptions=(), deadline=None):
        res = solve(self, assumptions, deadline)
        calls.append((list(assumptions), res))
        return res

    def traced_count_to(self, cap, alloc):
        before = len(self.outputs)
        clauses = count_to(self, cap, alloc)
        sums.append((self, cap, before, len(clauses)))
        return clauses

    monkeypatch.setattr(CdclSolver, "solve", traced_solve)
    monkeypatch.setattr(Totalizer, "count_to", traced_count_to)
    return calls, sums


def solves_like_brute_force(formula, seed=0):
    res = solve_maxsat(formula, SolverConfig(seed=seed))
    ref = brute_force_maxsat(formula)
    assert res.status is ref.status is MaxSatStatus.OPTIMUM
    assert res.cost == ref.cost
    assert res.cost == formula.falsified_weight(res.model) == ref.cost
    return res.cost


# x1 + x2 + x3 >= 2, soft -x1 and -x2 of weight 2 and -x3 of weight 3: the
# first core {-x1, -x3} leaves x3 weight 1, below the stratum's threshold 2,
# and the next core mixes "at most one of x1, x3 violated" with -x2
MIXED = wcnf(3, (
    Clause((1, 2)), Clause((1, 3)), Clause((2, 3)),
    Clause((-1,), 2), Clause((-2,), 2), Clause((-3,), 3),
))


class TestOll:
    @pytest.mark.parametrize("seed", range(4))
    def test_sum_bound_raised_twice(self, monkeypatch, seed):
        # at least 3 of x1..x6 true, each one a soft violation: a first core
        # of four selectors only reaches the optimum after its sum's "at
        # most 1" is raised to "at most 2" and then "at most 3".  "At least
        # 3 of 6" is pairwise: any 4 of the variables include a true one
        hard = itertools.combinations(range(1, 7), 4)
        formula = wcnf(
            6, tuple(Clause(c) for c in hard) + tuple(Clause((-v,), 1) for v in range(1, 7))
        )
        calls, sums = trace_oll(monkeypatch)
        assert solves_like_brute_force(formula, seed) == 3
        # the sum first counts to 2, enough for "at most 1"; each bound
        # raised past its outputs makes the same totalizer count one
        # further, and "at most 3" is assumed from its fourth output
        counter = sums[0][0]
        assert len(counter.lits) == 4
        grown = [(cap, before) for c, cap, before, _ in sums if c is counter]
        assert grown == [(2, 0), (3, 2), (4, 3)]
        assert len(counter.outputs) == 4
        # its clauses, added over three steps, are one build's at cap 4
        added = sum(n for c, _, _, n in sums if c is counter)
        assert added == len(Totalizer(counter.lits).count_to(4, itertools.count(100).__next__))
        assumed = {a for assumptions, _ in calls for a in assumptions}
        assert -counter.outputs[3] in assumed

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_raised_again_reuses_the_grown_sum(self, monkeypatch, seed):
        # the first sum's "at most 1" keeps weight after the core that
        # raised it to "at most 2", and a later core holds it again: that
        # raise must reuse the output the sum already has (found by random
        # search over random_wcnf formulas and shrunk by deleting clauses)
        formula = wcnf(5, (
            Clause((-4, -5)), Clause((-1,), 6), Clause((4,), 6), Clause((4, -2, -3), 1),
            Clause((5, -4, -3, -2), 7), Clause((-2, 3, 4), 7), Clause((-2, 1), 4),
            Clause((-4,), 6), Clause((2, 1)), Clause((3, -4)),
        ))
        calls, sums = trace_oll(monkeypatch)
        assert solves_like_brute_force(formula, seed) == 11
        # one totalizer per member set, each cap built once
        counters = {id(c): c for c, _, _, _ in sums}
        assert len({tuple(sorted(c.lits)) for c in counters.values()}) == len(counters)
        again = [(c, cap) for c, cap, before, n in sums if cap <= before]
        assert again and all(n == 0 for _, cap, before, n in sums if cap <= before)
        counter, cap = again[0]
        assumed = [a for assumptions, _ in calls for a in assumptions]
        assert -counter.outputs[cap - 1] in assumed

    def test_core_mixes_sum_output_and_selector(self, monkeypatch):
        calls, sums = trace_oll(monkeypatch)
        assert solves_like_brute_force(MIXED) == 4
        outputs = {o for c, _, _, _ in sums for o in c.outputs}
        selectors = {4, 5, 6}  # loaded right after the 3 base variables
        cores = [set(res.core) for _, res in calls if res.status is SatStatus.UNSAT]
        assert any({-a for a in core} & outputs and {-a for a in core} & selectors
                   for core in cores)

    def test_leftover_weight_returns_in_later_stratum(self, monkeypatch):
        calls, _ = trace_oll(monkeypatch)
        assert solves_like_brute_force(MIXED) == 4
        x3 = -6  # the assumption of soft clause -x3, weight 3
        seen = [x3 in assumptions for assumptions, _ in calls]
        first_core = next(i for i, (_, res) in enumerate(calls) if res.status is SatStatus.UNSAT)
        assert x3 in calls[first_core][1].core
        # left at weight 1 by that core, it sits out the rest of the stratum
        # and comes back once the threshold drops to 1
        assert not seen[first_core + 1]
        assert seen[-1] and calls[-1][1].status is SatStatus.SAT

    @pytest.mark.parametrize("seed", range(4))
    def test_raised_bound_adds_to_its_weight(self, seed):
        # a sum output that keeps weight after one core and meets a second
        # core: the weight its next bound already holds must add up, or the
        # final model costs more than the lower bound (found by random search
        # over random_wcnf formulas and shrunk by deleting clauses)
        formula = wcnf(6, (
            Clause((-5, -2, 6)), Clause((5,), 4), Clause((3,)), Clause((6,), 1),
            Clause((-6,), 4), Clause((1, 6, -4), 4), Clause((6, -1, -3), 1),
            Clause((2, -3), 5), Clause((6,), 3), Clause((-6, -2), 3), Clause((-2,), 3),
            Clause((5,), 3), Clause((4,), 1), Clause((-5,), 4), Clause((-5,), 2),
        ))
        assert solves_like_brute_force(formula, seed) == 15

    def test_each_soft_clause_loaded_once(self, monkeypatch, sample_partial):
        formula = sample_partial[0]
        added = []
        add_clause, load = CdclSolver.add_clause, CdclSolver.load

        def recording_add_clause(self, lits):
            added.append(list(lits))
            return add_clause(self, lits)

        def recording_load(self, formula):
            selectors = load(self, formula)
            # every clause load watched as given; its hard units went
            # through add_clause
            added.extend(list(cl) for cl in watched_clauses(self))
            return selectors

        monkeypatch.setattr(CdclSolver, "add_clause", recording_add_clause)
        monkeypatch.setattr(CdclSolver, "load", recording_load)
        assert solve_maxsat(formula).cost == 2
        n = formula.num_vars
        # every added clause with a fresh variable in it, keyed by its
        # literals over the formula's variables (a soft clause may also be
        # a hard one, as a unit)
        relaxed: dict[tuple, list[list[int]]] = {}
        for cl in added:
            if any(abs(l) > n for l in cl):
                relaxed.setdefault(tuple(sorted(l for l in cl if abs(l) <= n)), []).append(cl)
        for c in [c for c in formula.clauses if not c.is_hard]:
            holders = relaxed.get(tuple(sorted(c.literals)), [])
            assert len(holders) == 1, c
            extra = [l for l in holders[0] if abs(l) > n]
            assert len(extra) == 1 and extra[0] > 0, c


# three soft clauses of distinct weights that any model of the hard clause
# satisfies once its decisions, all false at first, leave at most one of
# x2, x3, x4 true
JOINTLY_SATISFIABLE = wcnf(4, (
    Clause((1, 2, 3, 4)), Clause((-1,), 3), Clause((-2, -3), 2), Clause((-4, -1), 1),
))
# soft x1 (weight 4, selector 4) falsifies soft -x1 (weight 1, selector 7);
# softs -x2 and -x3 (weights 3 and 2, selectors 5 and 6) hold in the same model
SKIPPED_STRATA = wcnf(3, (
    Clause((1,), 4), Clause((-2,), 3), Clause((-3,), 2), Clause((-1,), 1),
))


class TestStrata:
    @pytest.mark.parametrize("seed", range(4))
    def test_satisfied_softs_take_one_call(self, monkeypatch, seed):
        calls, _ = trace_oll(monkeypatch)
        assert solves_like_brute_force(JOINTLY_SATISFIABLE, seed) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_strata_the_model_satisfies_are_skipped(self, monkeypatch, seed):
        calls, _ = trace_oll(monkeypatch)
        assert solves_like_brute_force(SKIPPED_STRATA, seed) == 1
        # the model of stratum 4 makes only -7 false, so the strata of
        # weight 3 and 2 never run; stratum 1 finds the core {-4, -7}, and
        # the model after it makes no assumption false
        assert [sorted(a) for a, _ in calls[:2]] == [[-4], [-7, -6, -5, -4]]
        assert [res.status for _, res in calls] == [SatStatus.SAT, SatStatus.UNSAT, SatStatus.SAT]
        assert set(calls[1][1].core) == {-4, -7}

    def test_unsound_core_is_caught(self, monkeypatch):
        # a core over the one assumption of stratum 2 that the hard unit x1
        # satisfies: the lower bound 2 exceeds the cost of every model
        formula = wcnf(2, (Clause((1,)), Clause((1,), 2), Clause((2,), 1)))
        solve = CdclSolver.solve
        calls = []

        def bogus_first_core(self, assumptions=(), deadline=None):
            calls.append(list(assumptions))
            if len(calls) == 1:
                return SatResult(SatStatus.UNSAT, core=tuple(assumptions))
            return solve(self, assumptions, deadline)

        monkeypatch.setattr(CdclSolver, "solve", bogus_first_core)
        with pytest.raises(SolverInternalError, match="below the lower bound 2"):
            solve_maxsat(formula)
        assert len(calls) == 2


class TestSoftFirst:
    @pytest.mark.parametrize("seed", range(3))
    def test_selectors_outrank_formula_variables_heaviest_first(self, seed):
        formula = wcnf(4, (
            Clause((1, 2)), Clause((-1,), 1), Clause((3,), 100), Clause((-2, 4), 10),
            Clause((-4,), 1),
        ))
        solver = CdclSolver(seed=seed)
        light, heavy, middle, light_too = solver.load(formula)
        act = solver.act
        assert min(act[s] for s in (light, heavy, middle, light_too)) > max(act[1:5])
        assert act[heavy] > act[middle] > max(act[light], act[light_too])
        # the first decision keeps the heaviest soft clause
        assert solver._pick_branch() == heavy and not solver.phase[heavy]

    @pytest.mark.parametrize("gen_seed, size, calls_at_most, cost", [
        (4, (5, 5, 8, 16, 5), 1, 0),
        (3, (5, 4, 6, 12, 4), 3, 20),
    ])
    def test_weighted_strata_are_mostly_satisfied(self, monkeypatch, gen_seed, size,
                                                  calls_at_most, cost):
        # with random branching each model broke some lighter soft clauses,
        # and these took 11 and 18 SAT calls
        days, slots_per_day, rooms, courses, curricula = size
        instance = gen_random_instance(gen_seed, days=days, slots_per_day=slots_per_day,
                                       rooms=rooms, courses=courses, curricula=curricula)
        formula, _ = encode(instance, EncodeOptions(weighted=True))
        calls, _ = trace_oll(monkeypatch)
        res = solve_maxsat(formula, SolverConfig(seed=0))
        assert res.status is MaxSatStatus.OPTIMUM and res.cost == cost
        assert 1 <= len(calls) <= calls_at_most


class TestLoad:
    @pytest.mark.parametrize("clauses", [
        # the units falsify both watched literals of the clause before them
        [Clause((1, 2, 3)), Clause((-1,)), Clause((-2,)), Clause((-3, 4), 2), Clause((-4,), 1)],
        # ... and of a soft clause, whose selector they force true
        [Clause((1, 2), 3), Clause((-1, 3)), Clause((-1,)), Clause((-2,)), Clause((-3,), 1)],
        # a soft clause equal to a hard unit, and one against it
        [Clause((2, 3)), Clause((1,), 3), Clause((1,)), Clause((-1,), 2)],
        # the empty formula
        [],
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, clauses, seed):
        solves_like_brute_force(wcnf(4, tuple(clauses)), seed)

    @pytest.mark.parametrize("clauses", [
        [Clause((1,)), Clause((2,), 1), Clause((-1,))],
        # the units falsify every literal of a clause loaded before them
        [Clause((1, 2)), Clause((1,), 2), Clause((-1,)), Clause((-2,))],
    ])
    def test_contradictory_units(self, clauses):
        formula = wcnf(2, tuple(clauses))
        assert brute_force_maxsat(formula).status is MaxSatStatus.HARD_UNSAT
        assert solve_maxsat(formula).status is MaxSatStatus.HARD_UNSAT

    def test_selectors_follow_the_formula_variables(self):
        formula = wcnf(3, (Clause((1, 2)), Clause((-1,), 2), Clause((3,), 1)))
        solver = CdclSolver()
        assert solver.load(formula) == [4, 5]
        assert sorted(map(sorted, watched_clauses(solver))) == [[-1, 4], [1, 2], [3, 5]]

    def test_selectors_follow_the_largest_variable_a_clause_holds(self):
        # one soft unit over a million declared variables: the solver holds
        # x1 and its selector, and the model sets every other variable False
        n = 10**6
        formula = wcnf(n, (Clause((1,), 1),))
        solver = CdclSolver()
        assert solver.load(formula) == [2]
        assert solver.nvars == 2
        res = solve_maxsat(formula)
        assert (res.status, res.cost, res.lower) == (MaxSatStatus.OPTIMUM, 0, 0)
        assert len(res.model) == n
        assert res.model[1] is True
        assert not any(res.model[v] for v in range(2, n + 1))

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_loads_in_chunks_like_all_at_once(self, monkeypatch, chunk):
        formula = random_wcnf(random.Random(chunk), max_vars=10, max_clauses=40)
        # the same clauses less the hard units, whose propagation at load
        # moves watches: every clause stays where load put it
        no_units = wcnf(formula.num_vars, tuple(
            c for c in formula.clauses if not c.is_hard or len(c.literals) > 1))
        default = cnf.CLAUSE_CHUNK
        for f in (formula, no_units):
            monkeypatch.setattr(cnf, "CLAUSE_CHUNK", default)
            whole = CdclSolver()
            selectors = whole.load(f)
            monkeypatch.setattr(cnf, "CLAUSE_CHUNK", chunk)
            chunked = CdclSolver()
            assert chunked.load(f) == selectors
            assert chunked.watches == whole.watches
            assert chunked.trail == whole.trail
            # the hard clauses, then the soft ones with their selectors;
            # units are not kept as clauses, and propagation reorders a
            # clause's literals for its watches
            expected = loaded_clauses(f, selectors)
            assert sorted(map(sorted, watched_clauses(whole))) == sorted(map(sorted, expected))
        # with no units (the last formula), each watch list holds its
        # clauses as given, in load order
        for l in range(-whole.nvars, whole.nvars + 1):
            if l:
                assert whole.watches[l] == [c for c in expected if l in c[:2]]

    def test_keeps_its_clauses_in_load_order(self):
        # hard clauses, units too, then each soft clause with its selector:
        # the order a finished solver frees them in
        formula = wcnf(3, (Clause((1, 2), 2), Clause((-1, 3)), Clause((2,)), Clause((-3,), 1)))
        solver = CdclSolver()
        assert solver.load(formula) == [4, 5]
        assert solver.clauses == [[-1, 3], [2], [1, 2, 4], [-3, 5]]

    def test_failed_allocation_raises_solver_error(self):
        class Full(list):
            def extend(self, items):
                raise MemoryError

        solver = CdclSolver()
        solver.level = Full(solver.level)
        with pytest.raises(SolverError, match="cannot allocate 10 variables"):
            solver.ensure_vars(10)

    @pytest.mark.parametrize("used", [
        lambda s: s.load(WEIGHTED),
        lambda s: s.new_var(),
        lambda s: s.add_clause([]),
    ], ids=["loaded", "new_var", "unsat"])
    def test_needs_a_fresh_solver(self, used):
        solver = CdclSolver()
        used(solver)
        with pytest.raises(ValueError, match="fresh solver"):
            solver.load(WEIGHTED)


class TestSearchCounts:
    # the sample's conflicts per solve_maxsat run: a change to how the SAT
    # core holds its clauses must leave the search, and these counts, alone
    @pytest.mark.parametrize("mode, seed, cost, conflicts", [
        ("weighted", 0, 10, 1029), ("weighted", 1, 10, 1117), ("weighted", 2, 10, 1095),
        ("partial", 0, 2, 3507),
    ])
    def test_sample_conflicts(self, request, monkeypatch, mode, seed, cost, conflicts):
        formula = request.getfixturevalue(f"sample_{mode}")[0]
        solvers = []

        class Recorded(CdclSolver):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                solvers.append(self)

        monkeypatch.setattr(solver_module, "CdclSolver", Recorded)
        res = solve_maxsat(formula, SolverConfig(seed=seed))
        assert (res.status, res.cost) == (MaxSatStatus.OPTIMUM, cost)
        assert [s.total_conflicts for s in solvers] == [conflicts]


class TestBruteForce:
    def test_weighted_example(self):
        assert brute_force_maxsat(WEIGHTED).cost == 3

    def test_single_hard_unit(self):
        f = wcnf(1, (Clause((1,)),))
        res = brute_force_maxsat(f)
        assert res.cost == 0 and res.model[1] is True

    def test_cap_enforced(self):
        f = wcnf(23, (Clause((23,)),))
        with pytest.raises(ValueError, match="22"):
            brute_force_maxsat(f)

    def test_hard_unsat(self):
        f = wcnf(1, (Clause((1,)), Clause((-1,))))
        assert brute_force_maxsat(f).status is MaxSatStatus.HARD_UNSAT


class TestOptimizersAgree:
    def test_core_guided_matches_brute(self):
        rng = random.Random(7)
        for i in range(120):
            f = random_wcnf(rng, max_vars=14, max_clauses=50)
            mine = solve_maxsat(f, SolverConfig(seed=i))
            ref = brute_force_maxsat(f)
            assert mine.status == ref.status, f"formula {i}"
            if ref.status is MaxSatStatus.OPTIMUM:
                assert mine.cost == ref.cost, f"formula {i}"

    def test_determinism(self):
        rng = random.Random(3)
        f = random_wcnf(rng, max_vars=14, max_clauses=40)
        a = solve_maxsat(f, SolverConfig(seed=11))
        b = solve_maxsat(f, SolverConfig(seed=11))
        assert a.cost == b.cost
        assert a.model == b.model

    def test_monotonicity_under_added_clauses(self):
        rng = random.Random(23)
        for i in range(25):
            f = random_wcnf(rng, max_vars=10, max_clauses=25)
            base = solve_maxsat(f)
            if base.status is not MaxSatStatus.OPTIMUM:
                continue
            length = rng.randint(1, min(3, f.num_vars))
            variables = rng.sample(range(1, f.num_vars + 1), length)
            lits = tuple(v if rng.random() < 0.5 else -v for v in variables)
            softer = wcnf(
                f.num_vars, (*f.clauses, Clause(lits, rng.randint(1, 9)))
            )
            res_soft = solve_maxsat(softer)
            assert res_soft.cost >= base.cost
            harder = wcnf(f.num_vars, (*f.clauses, Clause(lits)))
            res_hard = solve_maxsat(harder)
            if res_hard.status is MaxSatStatus.OPTIMUM:
                assert res_hard.cost >= base.cost

    @settings(deadline=None, max_examples=30)
    @given(
        gen_seed=st.integers(0, 10**6),
        density=st.floats(0.0, 1.0),
        weighted=st.booleans(),
        solver_seed=st.integers(0, 2**16),
    )
    def test_pipeline_matches_semantic_optimum(self, gen_seed, density, weighted, solver_seed):
        # micro instances, small enough to enumerate every placement
        instance = gen_random_instance(
            gen_seed, days=2, slots_per_day=2, rooms=2, courses=2, curricula=2,
            overlap_density=density,
        )
        opts = EncodeOptions(weighted=weighted)
        want = semantic_optimum(instance, opts)
        formula, _ = encode(instance, opts)
        res = solve_maxsat(formula, SolverConfig(seed=solver_seed))
        if want is None:
            assert res.status is MaxSatStatus.HARD_UNSAT
        else:
            assert res.status is MaxSatStatus.OPTIMUM and res.cost == want


EXTERNAL_SELF = f"{sys.executable} -m ttsat solve-wcnf {{input}}"


class TestExternal:
    def test_agrees_with_builtin(self):
        res = solve_external(WEIGHTED, EXTERNAL_SELF, timeout=60)
        assert res.status is MaxSatStatus.OPTIMUM
        assert res.cost == solve_maxsat(WEIGHTED).cost == 3

    @pytest.mark.parametrize("arg", ["{input}", "--in={input}", ""],
                             ids=["whole-token", "inside-token", "absent"])
    def test_path_passed_once(self, tmp_path, arg):
        # the stub exits 3 unless it gets exactly one argument
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "from ttsat.cli import main\n"
            "if len(sys.argv) != 2:\n"
            "    sys.exit(3)\n"
            "sys.exit(main(['solve-wcnf', sys.argv[1].removeprefix('--in=')]))\n"
        )
        res = solve_external(WEIGHTED, f"{sys.executable} {stub} {arg}", timeout=60)
        assert res.status is MaxSatStatus.OPTIMUM and res.cost == 3

    def test_unsat_passthrough(self):
        f = wcnf(1, (Clause((1,)), Clause((-1,))))
        res = solve_external(f, EXTERNAL_SELF, timeout=60)
        assert res.status is MaxSatStatus.HARD_UNSAT

    def test_lying_solver_rejected(self, tmp_path):
        liar = tmp_path / "liar.py"
        liar.write_text(
            "print('o 2')\nprint('s OPTIMUM FOUND')\nprint('v -1 -2 -3 0')\n"
        )
        command = f"{sys.executable} {liar} {{input}}"
        with pytest.raises(UntrustedSolverError, match="claimed cost 2"):
            solve_external(WEIGHTED, command, timeout=60)

    def test_infeasible_model_rejected(self, tmp_path):
        liar = tmp_path / "liar.py"
        # claims optimum with a model violating the hard clause (~x | z)
        liar.write_text(
            "print('o 0')\nprint('s OPTIMUM FOUND')\nprint('v 1 2 -3 0')\n"
        )
        command = f"{sys.executable} {liar} {{input}}"
        with pytest.raises(UntrustedSolverError, match="hard clause"):
            solve_external(WEIGHTED, command, timeout=60)

    def test_missing_binary(self):
        with pytest.raises(ExternalSolverError, match="not found"):
            solve_external(WEIGHTED, "/nonexistent/maxsat {input}", timeout=5)

    def test_no_command(self):
        for command in ("", "  \t"):
            with pytest.raises(ExternalSolverError, match="empty external solver command"):
                solve_external(WEIGHTED, command)

    def test_spent_timeout_writes_and_starts_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work done with no time left")

        monkeypatch.setattr(solver_module, "write_dimacs", forbidden)
        monkeypatch.setattr(solver_module.subprocess, "Popen", forbidden)
        res = solve_external(WEIGHTED, "/nonexistent/maxsat {input}", timeout=0)
        assert res == MaxSatResult(MaxSatStatus.INDETERMINATE)
        with pytest.raises(ExternalSolverError, match="empty external solver command"):
            solve_external(WEIGHTED, " ", timeout=0)

    def test_unproven_model_is_indeterminate(self, tmp_path):
        stub = tmp_path / "stub.py"
        # a feasible model costing 4 (the optimum is 3), not claimed optimal
        stub.write_text("print('o 4')\nprint('s SATISFIABLE')\nprint('v -1 -2 3 0')\n")
        res = solve_external(WEIGHTED, f"{sys.executable} {stub} {{input}}", timeout=60)
        assert res.status is MaxSatStatus.INDETERMINATE
        assert res.lower == 0 and res.cost == 4
        assert res.model == {1: False, 2: False, 3: True}

    @pytest.mark.parametrize("answer, expected", [
        ("print('o 3')\nprint('s OPTIMUM FOUND')\nprint('v -1 -2 -3 0')\n", MaxSatStatus.OPTIMUM),
        ("import time\ntime.sleep(5)\n", MaxSatStatus.INDETERMINATE),
        # the optimum claimed with a model violating the hard clause (~x | z)
        ("print('o 0')\nprint('s OPTIMUM FOUND')\nprint('v 1 2 -3 0')\n", UntrustedSolverError),
        (None, ExternalSolverError),
    ], ids=["optimum", "timeout", "untrusted", "missing-binary"])
    def test_no_file_left_behind(self, tmp_path, monkeypatch, answer, expected):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        seen = tmp_path / "seen.txt"
        stub = tmp_path / "stub.py"
        # the stub records the WCNF path it is given, then answers
        stub.write_text(f"import sys\nopen({str(seen)!r}, 'w').write(sys.argv[1])\n{answer}")
        command = (f"{sys.executable} {stub} {{input}}" if answer is not None
                   else "/nonexistent/maxsat {input}")
        try:
            got = solve_external(WEIGHTED, command, timeout=2).status
        except SolverError as exc:
            got = type(exc)
        assert got is expected
        if answer is not None:
            assert seen.read_text().startswith(str(scratch))
        assert list(scratch.iterdir()) == []

    def test_silent_solver(self, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("pass\n")
        command = f"{sys.executable} {quiet} {{input}}"
        with pytest.raises(ExternalSolverError, match="no status"):
            solve_external(WEIGHTED, command, timeout=60)

    def test_timeout_kills_the_solvers_children(self, tmp_path):
        marker = tmp_path / "marker"
        child = tmp_path / "child.py"
        child.write_text(f"import time\ntime.sleep(2)\nopen({str(marker)!r}, 'w').close()\n")
        stub = tmp_path / "stub.py"
        # a wrapper whose child would write the marker after about 2 s
        stub.write_text(
            "import subprocess, sys, time\n"
            f"subprocess.Popen([sys.executable, {str(child)!r}])\n"
            "time.sleep(30)\n"
        )
        res = solve_external(WEIGHTED, f"{sys.executable} {stub} {{input}}", timeout=1)
        assert res.status is MaxSatStatus.INDETERMINATE
        time.sleep(3)
        assert not marker.exists()

    def test_answer_not_held_back_by_a_child_on_the_output(self, tmp_path):
        # the solver answers and exits; a child it leaves keeps its output
        # open and would write the marker after about 3 s
        marker = tmp_path / "marker"
        command = f"sh -c '(sleep 3; touch {marker}) & echo s UNSATISFIABLE'"
        start = time.monotonic()
        res = solve_external(WEIGHTED, command, timeout=1)
        assert time.monotonic() - start < 2
        assert res.status is MaxSatStatus.HARD_UNSAT
        time.sleep(3.5)
        assert not marker.exists()


NO_STATUS = "external solver gave no status (exit code 0)"
NO_MODEL = "external solver reported SAT without a model"
ALL_FALSE = {1: False, 2: False, 3: False}
ONLY_3 = {1: False, 2: False, 3: True}


class TestAnswerMapping:
    """How each Max-SAT evaluation answer maps to a result or an error, for
    WEIGHTED: all false costs 3, the optimum; only x3 true costs 4."""

    @pytest.mark.parametrize("answer, expected", [
        ("o 3\ns OPTIMUM FOUND\nv -1 -2 -3 0\n", (MaxSatStatus.OPTIMUM, 3, ALL_FALSE, 3)),
        ("s UNSATISFIABLE\n", (MaxSatStatus.HARD_UNSAT, None, None, 0)),
        ("s UNSATISFIABLE\nv -1 -2 -3 0\n", (MaxSatStatus.HARD_UNSAT, None, None, 0)),
        ("o 4\ns SATISFIABLE\nv -1 -2 3 0\n", (MaxSatStatus.INDETERMINATE, 4, ONLY_3, 0)),
        ("s SATISFIABLE\n", (UntrustedSolverError, NO_MODEL)),
        ("o 3\ns OPTIMUM FOUND\n", (UntrustedSolverError, NO_MODEL)),
        ("s UNKNOWN\n", (MaxSatStatus.INDETERMINATE, None, None, 0)),
        ("s UNKNOWN\nv -1 -2 3 0\n", (MaxSatStatus.INDETERMINATE, 4, ONLY_3, 0)),
        ("", (ExternalSolverError, NO_STATUS)),
        ("s MAYBE\n", (ExternalSolverError, NO_STATUS)),
        ("s SATISFIABLE\ns MAYBE\n", (ExternalSolverError, NO_STATUS)),
        ("s SATISFIABLE\ns UNKNOWN\n", (MaxSatStatus.INDETERMINATE, None, None, 0)),
        ("o x\ns OPTIMUM FOUND\nv -1 -2 -3 0\n", (CnfError, "bad objective line 'o x'")),
        ("s OPTIMUM FOUND\nv 9 0\n", (CnfError, "model mentions variable 9 beyond num_vars=3")),
        ("o 4\ns SATISFIABLE\nv 001\n", (MaxSatStatus.INDETERMINATE, 4, ONLY_3, 0)),
        ("o 0\ns OPTIMUM FOUND\nv 1 2 -3 0\n",
         (UntrustedSolverError, "external model violates a hard clause")),
        ("o 2\ns OPTIMUM FOUND\nv -1 -2 -3 0\n",
         (UntrustedSolverError, "external solver claimed cost 2, model costs 3")),
    ])
    def test_answer(self, tmp_path, answer, expected):
        stub = tmp_path / "stub.py"
        stub.write_text(f"import sys\nsys.stdout.write({answer!r})\n")
        command = f"{sys.executable} {stub} {{input}}"
        if isinstance(expected[0], MaxSatStatus):
            res = solve_external(WEIGHTED, command, timeout=60)
            assert (res.status, res.cost, res.model, res.lower) == expected
        else:
            error, message = expected
            with pytest.raises(error) as exc:
                solve_external(WEIGHTED, command, timeout=60)
            assert type(exc.value) is error and str(exc.value) == message


class TestResultContract:
    """Every result that carries a model states that model's cost; its lower
    bound is at most that cost, and equal to it at OPTIMUM."""

    @pytest.mark.parametrize("case, status", [
        ("optimum", MaxSatStatus.OPTIMUM),
        ("interrupted", MaxSatStatus.INDETERMINATE),
        ("external-unproven", MaxSatStatus.INDETERMINATE),
        ("brute-force", MaxSatStatus.OPTIMUM),
    ], ids=["optimum", "interrupted", "external-unproven", "brute-force"])
    def test_cost_is_the_models(self, monkeypatch, tmp_path, case, status):
        if case == "interrupted":
            interrupt_after_first_model(monkeypatch)
        if case in ("optimum", "interrupted"):
            res = solve_maxsat(WEIGHTED)
        elif case == "brute-force":
            res = brute_force_maxsat(WEIGHTED)
        else:
            stub = tmp_path / "stub.py"
            stub.write_text("print('o 4')\nprint('s SATISFIABLE')\nprint('v -1 -2 3 0')\n")
            res = solve_external(WEIGHTED, f"{sys.executable} {stub} {{input}}", timeout=60)
        assert res.status is status
        assert res.cost == WEIGHTED.falsified_weight(res.model)
        if status is MaxSatStatus.INDETERMINATE:
            assert res.lower <= res.cost
        else:
            assert res.lower == res.cost
