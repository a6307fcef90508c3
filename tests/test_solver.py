import gc
import heapq
import itertools
import random
import sys
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import interrupt_after_first_model, random_wcnf, semantic_optimum
from ttsat import solver as solver_module
from ttsat.cardinality import totalizer
from ttsat.cnf import Clause, WcnfFormula
from ttsat.encoder import EncodeOptions, encode
from ttsat.model import gen_random_instance
from ttsat.solver import (
    CdclSolver,
    ExternalSolverError,
    MaxSatStatus,
    SatStatus,
    SolverConfig,
    UntrustedSolverError,
    brute_force_maxsat,
    solve_external,
    solve_maxsat,
    solve_sat,
)

UNSAT_4 = [(1, -2), (-1, 3), (2, 3), (-3,)]

WEIGHTED = WcnfFormula(
    3, (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 3), Clause((-3,), 4))
)
PARTIAL = WcnfFormula(
    3, (Clause((1, -2)), Clause((-1, 3)), Clause((2, 3), 1), Clause((-3,), 1))
)
ALL_SOFT = WcnfFormula(3, tuple(Clause(c, 1) for c in UNSAT_4))


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
        assert solve_sat(UNSAT_4).status is SatStatus.UNSAT

    def test_empty_clause_set_sat(self):
        res = solve_sat([])
        assert res.status is SatStatus.SAT
        assert res.model == {}

    def test_assumption_conflict_core(self):
        res = solve_sat([(1,)], assumptions=[-1])
        assert res.status is SatStatus.UNSAT
        assert res.core == (-1,)

    def test_model_is_verified(self):
        res = solve_sat([(1, 2), (-1, 2), (1, -2)])
        assert res.status is SatStatus.SAT
        assert res.model[1] and res.model[2]

    def test_timeout_yields_indeterminate(self):
        res = solve_sat(php(5), cfg=SolverConfig(timeout=0))
        assert res.status is SatStatus.INDETERMINATE

    def test_php_unsat(self):
        assert solve_sat(php(4)).status is SatStatus.UNSAT

    def test_deterministic_model(self):
        clauses = [(1, 2, 3), (-1, -2), (-2, -3), (3, 1)]
        a = solve_sat(clauses, cfg=SolverConfig(seed=5))
        b = solve_sat(clauses, cfg=SolverConfig(seed=5))
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
            res = solve_sat(clauses, assumptions)
            if res.status is not SatStatus.UNSAT:
                continue
            checked += 1
            assert set(res.core) <= set(assumptions)
            again = solve_sat(clauses, list(res.core))
            assert again.status is SatStatus.UNSAT

    def test_incremental_addition(self):
        solver = CdclSolver(2, [(1, 2)])
        assert solver.solve().status is SatStatus.SAT
        solver.add_clause((-1,))
        solver.add_clause((-2,))
        assert solver.solve().status is SatStatus.UNSAT


def brute_force_sat(num_vars, clauses):
    """SAT/UNSAT by exhaustive enumeration, through the numpy oracle."""
    formula = WcnfFormula(num_vars, tuple(Clause(tuple(c)) for c in clauses))
    return brute_force_maxsat(formula).status is MaxSatStatus.OPTIMUM


def clause_over(n):
    """A clause over variables 1..n with no repeated variable."""
    return st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))


class TestCdclSolver:
    def test_rescale_reranks_heap(self):
        solver = CdclSolver(3)
        solver.var_inc = 5e99
        solver._bump(2)
        solver.var_inc = 2e100
        solver._bump(1)  # passes 1e100: every activity is scaled by 1e-100
        assert solver.act[1:3] == [2.0, 0.5]
        assert solver._pick_branch() == 1

    def test_pick_is_argmax_and_heap_stays_bounded(self, monkeypatch):
        solver = CdclSolver(0, php(6))
        pushes = 0
        compactions = 0

        def counting_push(heap, item):
            nonlocal pushes
            pushes += 1
            heapq.heappush(heap, item)

        monkeypatch.setattr(solver_module, "heapq", types.SimpleNamespace(
            heappush=counting_push, heappop=heapq.heappop, heapify=heapq.heapify))
        pick = solver._pick_branch

        def checked_pick():
            nonlocal pushes, compactions
            n = solver.nvars
            assert len(solver.heap) <= 2 * n + pushes
            compactions += len(solver.heap) > 2 * n
            unassigned = [v for v in range(1, n + 1) if solver.vals[v] == solver_module._UNASSIGNED]
            expected = max(unassigned, key=lambda v: (solver.act[v], -v), default=0)
            v = pick()
            assert v == expected
            pushes = 0
            return v

        solver._pick_branch = checked_pick
        assert solver.solve().status is SatStatus.UNSAT
        assert compactions > 0

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_incremental_against_brute_force(self, data):
        """new_var and add_clause between solve calls, crossing the literal
        arrays' capacity several times, against exhaustive enumeration."""
        solver = CdclSolver(data.draw(st.integers(1, 2)), seed=data.draw(st.integers(0, 3)))
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
                assert solve_sat(clauses, res.core).status is SatStatus.UNSAT


class TestSolveMaxsatExamples:
    def test_all_soft_cost_one(self):
        res = solve_maxsat(ALL_SOFT)
        assert res.status is MaxSatStatus.OPTIMUM
        assert res.cost == 1  # three of four clauses satisfiable

    def test_partial_cost_one(self):
        res = solve_maxsat(PARTIAL)
        assert res.cost == 1
        # the model must satisfy both hard clauses
        assert PARTIAL.hard_satisfied(res.model.assignment)

    def test_weighted_cost_three(self):
        res = solve_maxsat(WEIGHTED)
        assert res.cost == 3
        # all-false achieves the optimum
        assert WEIGHTED.falsified_weight({1: False, 2: False, 3: False}) == 3

    def test_hard_unsat(self):
        f = WcnfFormula(1, (Clause((1,)), Clause((-1,)), Clause((1,), 5)))
        assert solve_maxsat(f).status is MaxSatStatus.HARD_UNSAT

    def test_no_soft_clauses(self):
        f = WcnfFormula(2, (Clause((1, 2)),))
        res = solve_maxsat(f)
        assert res.status is MaxSatStatus.OPTIMUM and res.cost == 0

    def test_indeterminate_bounds(self):
        res = solve_maxsat(WEIGHTED, SolverConfig(timeout=0))
        assert res.status is MaxSatStatus.INDETERMINATE
        lower, upper = res.bounds
        assert lower == 0 and (upper is None or upper >= 3)

    def test_model_cost_is_checked(self):
        res = solve_maxsat(WEIGHTED)
        assert res.model.cost == res.cost == WEIGHTED.falsified_weight(res.model.assignment)

    def test_interrupted_run_keeps_best_model(self, monkeypatch):
        # the budget runs out on the SAT call after the first stratum's model
        models = interrupt_after_first_model(monkeypatch)
        res = solve_maxsat(WEIGHTED)
        assert models
        assert res.status is MaxSatStatus.INDETERMINATE
        assert res.model.cost == WEIGHTED.falsified_weight(res.model.assignment) == res.bounds[1]
        assert res.bounds[0] <= 3 <= res.bounds[1]

    def test_solver_freed_without_gc(self, monkeypatch):
        # a 9-clause core is relaxed with a totalizer drawing from solver.new_var
        refs = []

        class Spy(CdclSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(solver_module, "CdclSolver", Spy)
        formula = WcnfFormula(
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
    """Record each SAT call of solve_maxsat as (assumptions, result), and the
    outputs of each totalizer it builds."""
    calls, sums = [], []
    solve = CdclSolver.solve

    def traced_solve(self, assumptions=(), deadline=None):
        res = solve(self, assumptions, deadline)
        calls.append((list(assumptions), res))
        return res

    def traced_totalizer(lits, alloc):
        clauses, outs = totalizer(lits, alloc)
        sums.append(outs)
        return clauses, outs

    monkeypatch.setattr(CdclSolver, "solve", traced_solve)
    monkeypatch.setattr(solver_module, "totalizer", traced_totalizer)
    return calls, sums


def solves_like_brute_force(formula, seed=0):
    res = solve_maxsat(formula, SolverConfig(seed=seed))
    ref = brute_force_maxsat(formula)
    assert res.status is ref.status is MaxSatStatus.OPTIMUM
    assert res.cost == ref.cost
    assert res.model.cost == formula.falsified_weight(res.model.assignment) == ref.cost
    return res.cost


# x1 + x2 + x3 >= 2, soft -x1 and -x2 of weight 2 and -x3 of weight 3: the
# first core {-x1, -x3} leaves x3 weight 1, below the stratum's threshold 2,
# and the next core mixes "at most one of x1, x3 violated" with -x2
MIXED = WcnfFormula(3, (
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
        formula = WcnfFormula(
            6, tuple(Clause(c) for c in hard) + tuple(Clause((-v,), 1) for v in range(1, 7))
        )
        calls, sums = trace_oll(monkeypatch)
        assert solves_like_brute_force(formula, seed) == 3
        assumed = {a for assumptions, _ in calls for a in assumptions}
        assert any(len(outs) > 3 and -outs[3] in assumed for outs in sums)

    def test_core_mixes_sum_output_and_selector(self, monkeypatch):
        calls, sums = trace_oll(monkeypatch)
        assert solves_like_brute_force(MIXED) == 4
        outputs = {o for outs in sums for o in outs}
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
        formula = WcnfFormula(6, (
            Clause((-5, -2, 6)), Clause((5,), 4), Clause((3,)), Clause((6,), 1),
            Clause((-6,), 4), Clause((1, 6, -4), 4), Clause((6, -1, -3), 1),
            Clause((2, -3), 5), Clause((6,), 3), Clause((-6, -2), 3), Clause((-2,), 3),
            Clause((5,), 3), Clause((4,), 1), Clause((-5,), 4), Clause((-5,), 2),
        ))
        assert solves_like_brute_force(formula, seed) == 15

    def test_each_soft_clause_loaded_once(self, monkeypatch, sample_partial):
        formula = sample_partial[0]
        added = []
        add_clause = CdclSolver.add_clause

        def recording_add_clause(self, lits):
            added.append(list(lits))
            return add_clause(self, lits)

        monkeypatch.setattr(CdclSolver, "add_clause", recording_add_clause)
        assert solve_maxsat(formula).cost == 2
        n = formula.num_vars
        # every added clause with a fresh variable in it, keyed by its
        # literals over the formula's variables (a soft clause may also be
        # a hard one, as a unit)
        relaxed: dict[tuple, list[list[int]]] = {}
        for cl in added:
            if any(abs(l) > n for l in cl):
                relaxed.setdefault(tuple(sorted(l for l in cl if abs(l) <= n)), []).append(cl)
        for c in formula.soft_clauses:
            holders = relaxed.get(tuple(sorted(c.literals)), [])
            assert len(holders) == 1, c
            extra = [l for l in holders[0] if abs(l) > n]
            assert len(extra) == 1 and extra[0] > 0, c


class TestBruteForce:
    def test_weighted_example(self):
        assert brute_force_maxsat(WEIGHTED).cost == 3

    def test_single_hard_unit(self):
        f = WcnfFormula(1, (Clause((1,)),))
        res = brute_force_maxsat(f)
        assert res.cost == 0 and res.model.assignment[1] is True

    def test_cap_enforced(self):
        f = WcnfFormula(23, (Clause((23,)),))
        with pytest.raises(ValueError, match="22"):
            brute_force_maxsat(f)

    def test_hard_unsat(self):
        f = WcnfFormula(1, (Clause((1,)), Clause((-1,))))
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
            softer = WcnfFormula(
                f.num_vars, f.clauses + (Clause(lits, rng.randint(1, 9)),)
            )
            res_soft = solve_maxsat(softer)
            assert res_soft.cost >= base.cost
            harder = WcnfFormula(f.num_vars, f.clauses + (Clause(lits),))
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
        cfg = SolverConfig(external_cmd=EXTERNAL_SELF, timeout=60)
        res = solve_external(WEIGHTED, cfg)
        assert res.status is MaxSatStatus.OPTIMUM
        assert res.cost == solve_maxsat(WEIGHTED).cost == 3

    def test_unsat_passthrough(self):
        f = WcnfFormula(1, (Clause((1,)), Clause((-1,))))
        res = solve_external(f, SolverConfig(external_cmd=EXTERNAL_SELF, timeout=60))
        assert res.status is MaxSatStatus.HARD_UNSAT

    def test_lying_solver_rejected(self, tmp_path):
        liar = tmp_path / "liar.py"
        liar.write_text(
            "print('o 2')\nprint('s OPTIMUM FOUND')\nprint('v -1 -2 -3 0')\n"
        )
        cfg = SolverConfig(external_cmd=f"{sys.executable} {liar} {{input}}", timeout=60)
        with pytest.raises(UntrustedSolverError, match="claimed cost 2"):
            solve_external(WEIGHTED, cfg)

    def test_infeasible_model_rejected(self, tmp_path):
        liar = tmp_path / "liar.py"
        # claims optimum with a model violating the hard clause (~x | z)
        liar.write_text(
            "print('o 0')\nprint('s OPTIMUM FOUND')\nprint('v 1 2 -3 0')\n"
        )
        cfg = SolverConfig(external_cmd=f"{sys.executable} {liar} {{input}}", timeout=60)
        with pytest.raises(UntrustedSolverError, match="hard clause"):
            solve_external(WEIGHTED, cfg)

    def test_missing_binary(self):
        cfg = SolverConfig(external_cmd="/nonexistent/maxsat {input}", timeout=5)
        with pytest.raises(ExternalSolverError, match="not found"):
            solve_external(WEIGHTED, cfg)

    def test_no_command(self):
        with pytest.raises(ExternalSolverError, match="no external solver"):
            solve_external(WEIGHTED, SolverConfig())

    def test_unproven_model_is_indeterminate(self, tmp_path):
        stub = tmp_path / "stub.py"
        # a feasible model costing 4 (the optimum is 3), not claimed optimal
        stub.write_text("print('o 4')\nprint('s SATISFIABLE')\nprint('v -1 -2 3 0')\n")
        cfg = SolverConfig(external_cmd=f"{sys.executable} {stub} {{input}}", timeout=60)
        res = solve_external(WEIGHTED, cfg)
        assert res.status is MaxSatStatus.INDETERMINATE
        assert res.bounds == (0, 4)
        assert res.model.cost == 4
        assert res.model.assignment == {1: False, 2: False, 3: True}

    def test_silent_solver(self, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("pass\n")
        cfg = SolverConfig(external_cmd=f"{sys.executable} {quiet} {{input}}", timeout=60)
        with pytest.raises(ExternalSolverError, match="no status"):
            solve_external(WEIGHTED, cfg)
