"""Shared test utilities: formulas from ``Clause`` records and the
clause-by-clause check, an encoder family's clauses and the count of
base variables, random formulas, the Max-SAT enumeration oracle
and a clause's truth under a model, the clause-by-clause room clash
family, the line-by-line WCNF writer, an independent extension checker,
cardinality bounds on a totalizer, the semantic enumeration oracle,
hand-built model construction, a checked SAT call on a fresh solver, a SAT
budget that runs out after the first model, SAT cores that answer with a
model violating a hard clause (every time, or once before solving as usual),
and micro instances that overload a count.

A model is what ttsat's own are: a bool array indexed by variable,
``model[v]`` for v in 1..n, with slot 0 False."""

from __future__ import annotations

import itertools

import numpy as np

from ttsat.cardinality import Totalizer
from ttsat.cnf import Clause, CnfError, WcnfFormula, clause_block
from ttsat.decode import Timetable, check_hard, compute_cost
from ttsat.solver import CdclSolver, MaxSatResult, MaxSatStatus, SatResult, SatStatus


def view_of(clauses):
    """``clause_block`` of ``Clause`` records: their literals and weights."""
    clauses = tuple(clauses)
    return clause_block([c.literals for c in clauses], [c.weight for c in clauses])


def wcnf(num_vars, clauses, top=None):
    """The ``WcnfFormula`` of ``Clause`` records, through ``view_of``."""
    return WcnfFormula(num_vars, view_of(clauses), top)


def family_clauses(formula, indices):
    """The ``Clause`` records of ``formula`` at ``indices`` (a family's
    clause numbers), in that order."""
    clauses = list(formula.clauses)
    return [clauses[i] for i in indices]


def base_num_vars(varmap):
    """The number of ct, cd, cr and kt variables, which come before every
    auxiliary one: the last kt variable's number."""
    instance = varmap.instance
    return varmap.kt(len(instance.curricula) - 1, len(instance.timeslots) - 1)


def clause_check(clauses, num_vars):
    """The clause-by-clause check: raise the ``CnfError`` of the first of
    ``clauses`` (``Clause`` records of integer literals) that is empty,
    holds 0, repeats a variable or passes ``num_vars``.  The oracle that
    ``WcnfFormula``'s numpy check must agree with."""
    for c in clauses:
        lits = c.literals
        if not lits:
            raise CnfError("clause must contain at least one literal")
        variables = set(map(abs, lits))
        if 0 in variables:
            raise CnfError(f"0 is the clause terminator, not a literal, in {lits}")
        if len(variables) != len(lits):
            raise CnfError(f"a variable occurs twice in clause {lits}")
        if max(variables) > num_vars:
            raise CnfError(
                f"variable {max(variables)} in clause {lits} exceeds num_vars={num_vars}"
            )


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
    return wcnf(n, clauses)


def brute_force_maxsat(formula: WcnfFormula) -> MaxSatResult:
    """Reference optimum by exhaustive enumeration (at most 22 variables)."""
    n = formula.num_vars
    if n > 22:
        raise ValueError(f"brute force is capped at 22 variables, got {n}")
    count = 1 << n
    idx = np.arange(count, dtype=np.int64)
    cost = np.zeros(count, dtype=np.int64)
    hard_ok = np.ones(count, dtype=bool)
    for c in formula.clauses:
        sat = np.zeros(count, dtype=bool)
        for l in c.literals:
            bit = (idx >> (abs(l) - 1)) & 1
            sat |= bit.astype(bool) if l > 0 else ~bit.astype(bool)
        if c.is_hard:
            hard_ok &= sat
        else:
            cost[~sat] += c.weight
    if not hard_ok.any():
        return MaxSatResult(MaxSatStatus.HARD_UNSAT)
    big = int(cost.max()) + 1
    cost[~hard_ok] = big
    best = int(np.argmin(cost))
    best_cost = int(cost[best])
    model = np.array([False] + [bool((best >> (v - 1)) & 1) for v in range(1, n + 1)])
    return MaxSatResult(MaxSatStatus.OPTIMUM, best_cost, model, best_cost)


def satisfied_by(clause: Clause, model) -> bool:
    """Whether some literal of ``clause`` is true under ``model``, indexed
    by variable."""
    return any(model[abs(l)] == (l > 0) for l in clause.literals)


def reference_room_clashes(instance, varmap):
    """``encoder.room_clashes`` one ``Clause`` at a time, as a generator per
    (room, timeslot): the reference its broadcast must match clause by
    clause."""
    out = []
    sids = [s.id for s in instance.sessions]
    neg_ct = [[-varmap.ct(s, t.id) for s in sids] for t in instance.timeslots]
    for r in instance.rooms:
        neg_cr = [-varmap.cr(s, r.id) for s in sids]
        for slot in neg_ct:
            out.extend(
                Clause((cta, ctb, cra, crb))
                for (cta, cra), (ctb, crb) in itertools.combinations(zip(slot, neg_cr), 2)
            )
    return out


def reference_write_dimacs(formula, comments=()):
    """``write_dimacs`` one f-string line at a time: the reference the bulk
    writer must match byte for byte."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p wcnf {formula.num_vars} {len(formula.clauses)} {formula.top}")
    for c in formula.clauses:
        w = formula.top if c.is_hard else c.weight
        lines.append(f"{w} {' '.join(map(str, c.literals))} 0")
    return "\n".join(lines) + "\n"


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
    counter = Totalizer(lits)
    clauses = counter.count_to(None, itertools.count(max(abs(l) for l in lits) + 1).__next__)
    outs = counter.outputs
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
    """The model over the base variables matching a placement map.

    Only valid when the encoding allocated no auxiliary variables.
    """
    assignment = np.zeros(base_num_vars(varmap) + 1, dtype=bool)
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


def solve_clauses(clauses, assumptions=(), seed=0, deadline=None):
    """Solve hard clauses under assumptions on a fresh CdclSolver; a SAT
    model must satisfy every clause and assumption."""
    solver = CdclSolver(seed=seed)
    for c in clauses:
        solver.add_clause(c)
    res = solver.solve(assumptions, deadline)
    if res.status is SatStatus.SAT:
        for c in [*clauses, *((a,) for a in assumptions)]:
            assert any(res.model[abs(l)] == (l > 0) for l in c), f"model violates {c}"
    return res


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


# hard (-1), (-2), (1 2 3); soft (-3 4):2, (-4):1.  The optimum is 1, and
# the all-false assignment costs 0 but falsifies the hard clause (1 2 3).
HARD_VIOLATED_BY_ALL_FALSE = wcnf(4, (
    Clause((-1,)), Clause((-2,)), Clause((1, 2, 3)), Clause((-3, 4), 2), Clause((-4,), 1),
))


def answer_all_false(monkeypatch):
    """Make every SAT call return the all-false model, satisfied or not."""
    def solve(self, assumptions=(), deadline=None):
        return SatResult(SatStatus.SAT, np.zeros(self.nvars + 1, dtype=bool))

    monkeypatch.setattr(CdclSolver, "solve", solve)


def answer_first_with(monkeypatch, values):
    """Make the first SAT call return the model ``values(nvars)``, over the
    solver's variables, satisfied or not, and every later call solve as
    before; returns the list of the calls' assumptions."""
    original = CdclSolver.solve
    calls = []

    def solve(self, assumptions=(), deadline=None):
        calls.append(assumptions)
        if len(calls) == 1:
            return SatResult(SatStatus.SAT, values(self.nvars))
        return original(self, assumptions, deadline)

    monkeypatch.setattr(CdclSolver, "solve", solve)
    return calls


def micro_doc(n_slots, rooms, courses):
    """An instance document on one day of ``n_slots`` timeslots.  ``rooms``
    lists (label, is_lab); ``courses`` lists (lecture staff, second kind,
    second staff), each course in a curriculum of its own."""
    staff = sorted({p for lec, _, snd in courses for p in (lec, snd)})
    return {
        "days": ["d1"],
        "timeslots": [{"label": f"t{i + 1}", "day": "d1"} for i in range(n_slots)],
        "rooms": [{"label": r, "capacity": 50, "lab": lab} for r, lab in rooms],
        "staff": staff,
        "curricula": [f"k{i + 1}" for i in range(len(courses))],
        "courses": [
            {"label": f"c{i + 1}", "curriculum": f"k{i + 1}",
             "lecture": {"staff": lec, "enrollment": 10, "forbidden": []},
             "second": {"kind": kind, "staff": snd, "enrollment": 10, "forbidden": []}}
            for i, (lec, kind, snd) in enumerate(courses)
        ],
        "registrations": [],
    }


# each micro instance overloads one count, so it is infeasible: (document,
# the one warning validate_instance gives)
OVERLOADED_COUNTS = {
    "staff": (
        micro_doc(2, [("r1", False), ("r2", False)],
                  [("I1", "section", "I1"), ("I1", "section", "TA1")]),
        "staff 'I1' needs 3 distinct timeslots, only 2 exist",
    ),
    "lab-rooms": (
        micro_doc(2, [("r1", False), ("r2", False), ("lab1", True)],
                  [(f"I{i}", "lab", f"TA{i}") for i in range(3)]),
        "3 lab sessions need distinct (lab room, timeslot) places, only 2 exist",
    ),
    "rooms": (
        micro_doc(2, [("r1", False)], [(f"I{i}", "section", f"TA{i}") for i in range(2)]),
        "4 sessions need distinct (room, timeslot) places, only 2 exist",
    ),
}
