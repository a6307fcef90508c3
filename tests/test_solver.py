import random
import sys

import pytest

from helpers import random_wcnf
from ttsat.cnf import Clause, WcnfFormula
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

    def test_conflict_limit_yields_indeterminate(self):
        res = solve_sat(php(5), cfg=SolverConfig(conflict_limit=2))
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
        res = solve_maxsat(WEIGHTED, SolverConfig(conflict_limit=0))
        assert res.status is MaxSatStatus.INDETERMINATE
        lower, upper = res.bounds
        assert lower == 0 and (upper is None or upper >= 3)

    def test_model_cost_is_checked(self):
        res = solve_maxsat(WEIGHTED)
        assert res.model.cost == res.cost == WEIGHTED.falsified_weight(res.model.assignment)


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

    def test_silent_solver(self, tmp_path):
        quiet = tmp_path / "quiet.py"
        quiet.write_text("pass\n")
        cfg = SolverConfig(external_cmd=f"{sys.executable} {quiet} {{input}}", timeout=60)
        with pytest.raises(ExternalSolverError, match="no status"):
            solve_external(WEIGHTED, cfg)
