"""Shared test utilities: random formulas, an independent extension checker,
cardinality bounds on a totalizer, the semantic enumeration oracle,
hand-built model construction, and a SAT budget that runs out after the
first model."""

from __future__ import annotations

import itertools

from ttsat.cardinality import totalizer
from ttsat.cnf import Clause, WcnfFormula
from ttsat.decode import Timetable, check_hard, compute_cost
from ttsat.solver import CdclSolver, SatResult, SatStatus


def random_wcnf(rng, max_vars=18, max_clauses=60, max_weight=9, hard_fraction=0.4):
    n = rng.randint(2, max_vars)
    m = rng.randint(2, max_clauses)
    clauses = []
    for _ in range(m):
        length = rng.randint(1, min(4, n))
        variables = rng.sample(range(1, n + 1), length)
        lits = tuple(v if rng.random() < 0.5 else -v for v in variables)
        weight = None if rng.random() < hard_fraction else rng.randint(1, max_weight)
        clauses.append(Clause(lits, weight))
    return WcnfFormula(n, tuple(clauses))


def extendable(clauses, base_assignment):
    """True iff the base assignment extends to a model of the clauses.

    Independent of the production solver: simplify once, then unit
    propagation with a small DPLL fallback over the leftover variables.
    """
    residual = []
    for c in clauses:
        lits = []
        satisfied = False
        for l in c:
            v = abs(l)
            if v in base_assignment:
                if base_assignment[v] == (l > 0):
                    satisfied = True
                    break
            else:
                lits.append(l)
        if satisfied:
            continue
        if not lits:
            return False
        residual.append(lits)
    return _dpll(residual)


def _dpll(clauses):
    assign = {}
    cls = clauses
    while True:
        progress = False
        nxt = []
        for c in cls:
            lits = []
            satisfied = False
            for l in c:
                v = abs(l)
                if v in assign:
                    if assign[v] == (l > 0):
                        satisfied = True
                        break
                else:
                    lits.append(l)
            if satisfied:
                continue
            if not lits:
                return False
            if len(lits) == 1:
                assign[abs(lits[0])] = lits[0] > 0
                progress = True
            else:
                nxt.append(lits)
        cls = nxt
        if not progress:
            break
    if not cls:
        return True
    branch = cls[0][0]
    for polarity in (branch, -branch):
        if _dpll(cls + [[polarity]]):
            return True
    return False


def projected_models(clauses, base_vars):
    """Set of base-variable assignments extendable to models of the clauses."""
    out = set()
    for bits in itertools.product((False, True), repeat=len(base_vars)):
        assignment = dict(zip(base_vars, bits))
        if extendable(clauses, assignment):
            out.add(bits)
    return out


def mixed_literals(n):
    """Literals over variables 1..n, every even variable negated."""
    return [v if v % 2 else -v for v in range(1, n + 1)]


def totalizer_bound(lits, k, kind):
    """Clauses of "at most" / "at least" / "exactly" k of ``lits``: a
    totalizer over them plus the bound's unit clauses on its outputs.  A
    bound with no output to constrain (at most n, at least 0) adds none."""
    clauses, outs = totalizer(lits, itertools.count(max(abs(l) for l in lits) + 1).__next__)
    if kind in ("at_most", "exactly") and k < len(outs):
        clauses.append((-outs[k],))
    if kind in ("at_least", "exactly") and k > 0:
        clauses.append((outs[k - 1],))
    return clauses


def all_placements(instance):
    """Every total (timeslot, room) placement of the instance's sessions."""
    sessions = [s.id for s in instance.sessions]
    options = [(t.id, r.id) for t in instance.timeslots for r in instance.rooms]
    for combo in itertools.product(options, repeat=len(sessions)):
        yield Timetable(dict(zip(sessions, combo)))


def semantic_optimum(instance, opts):
    """Minimum soft cost over all hard-feasible placements; None if infeasible.

    Enumerates placements directly and scores them with the decode-module
    validators, so no CNF machinery is involved.
    """
    best = None
    for timetable in all_placements(instance):
        if check_hard(timetable, instance):
            continue
        cost = compute_cost(timetable, instance, opts).total_cost
        if best is None or cost < best:
            best = cost
            if best == 0:
                break
    return best


def assignment_for_placement(instance, varmap, placements):
    """Total assignment over the base variables matching a placement map.

    Only valid when the encoding allocated no auxiliary variables.
    """
    assignment = {v: False for v in range(1, varmap.base_num_vars + 1)}
    for sid, (t, r) in placements.items():
        assignment[varmap.ct(sid, t)] = True
        assignment[varmap.cr(sid, r)] = True
        assignment[varmap.cd(sid, instance.timeslots[t].day)] = True
    for k in instance.curricula:
        members = instance.sessions_by_curriculum[k.id]
        for t in instance.timeslots:
            assignment[varmap.kt(k.id, t.id)] = any(
                sid in placements and placements[sid][0] == t.id for sid in members
            )
    return assignment


def interrupt_after_first_model(monkeypatch):
    """Make every SAT call after the first satisfiable one run out of time;
    returns the list that receives that first result."""
    original = CdclSolver.solve
    models = []

    def solve(self, *args, **kwargs):
        if models:
            return SatResult(SatStatus.INDETERMINATE)
        res = original(self, *args, **kwargs)
        if res.status is SatStatus.SAT:
            models.append(res)
        return res

    monkeypatch.setattr(CdclSolver, "solve", solve)
    return models
