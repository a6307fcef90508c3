"""Exact SAT and weighted partial Max-SAT solving.

The SAT core is a conflict-driven clause learner: two-literal watching,
first-UIP learning with cheap self-subsumption minimization, activity-based
branching with decay, phase saving, Luby restarts, and MiniSat-style
assumption handling with failed-assumption cores.

One exact optimizer sits on top of it: stratified core-guided
relax-and-split over unsatisfiable cores of soft clause selectors, splitting
weights at each core.

``brute_force_maxsat`` is an independent enumeration oracle for small
formulas, and ``solve_external`` shells out to any solver speaking DIMACS
WCNF and Max-SAT evaluation output, re-validating whatever it returns.
"""

from __future__ import annotations

import heapq
import os
import random
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cardinality import Scheme, encode_exactly
from .cnf import (
    Model,
    OutputStatus,
    WcnfFormula,
    parse_solver_output,
    write_dimacs,
)


class SolverError(RuntimeError):
    """Solving failed for an environmental reason (not unsatisfiability)."""


class ExternalSolverError(SolverError):
    """The external solver process failed, timed out, or produced no answer."""


class UntrustedSolverError(SolverError):
    """The external solver returned a model or cost that does not check out."""


class SolverInternalError(SolverError):
    """An internal consistency check failed; indicates a bug, not an input problem."""


class SatStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    INDETERMINATE = "indeterminate"


class MaxSatStatus(Enum):
    OPTIMUM = "optimum"
    HARD_UNSAT = "hard-unsat"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    conflict_limit: int | None = None
    external_cmd: str | None = None
    timeout: float | None = None

    def __post_init__(self):
        if self.conflict_limit is not None and self.conflict_limit < 0:
            raise ValueError("conflict_limit must be nonnegative")


@dataclass(frozen=True)
class SatResult:
    status: SatStatus
    model: dict[int, bool] | None = None
    core: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MaxSatResult:
    status: MaxSatStatus
    cost: int | None = None
    model: Model | None = None
    bounds: tuple[int, int | None] | None = None  # (lower, upper) when indeterminate


def _luby(x: int) -> int:
    # x is 0-indexed; yields 1 1 2 1 1 2 4 ...
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


_UNASSIGNED = 2
VAR_DECAY = 0.99  # activity decay per conflict
RESTART_BASE = 128  # conflicts per Luby restart unit


class CdclSolver:
    """Incremental CDCL solver over hard clauses.

    Clauses may be added between solve() calls; learned clauses persist.
    Everything is deterministic for a fixed seed and call sequence.
    """

    def __init__(self, num_vars: int = 0, clauses=(), *, seed: int = 0):
        self.nvars = 0
        self.ok = True
        # literal-indexed arrays use python's negative indexing: index l is
        # valid for l in [-nvars, nvars] on a list of length 2*nvars + 1
        self.vals: list[int] = [_UNASSIGNED]
        self.watches: list = [None]
        self.level = [0]
        self.reason: list = [None]
        self.act = [0.0]
        self.phase = [False]
        self.seen = bytearray(1)
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self.var_decay = VAR_DECAY
        self.restart_base = RESTART_BASE
        self.total_conflicts = 0
        self.orig_clauses: list[list[int]] = []
        self.learned: list[list[int]] = []
        self.max_learned = 8000
        self._rng = random.Random(seed)
        self.ensure_vars(num_vars)
        for c in clauses:
            self.add_clause(c)

    def ensure_vars(self, n: int) -> None:
        if n <= self.nvars:
            return
        old = self.nvars
        vals = [_UNASSIGNED] * (2 * n + 1)
        watches: list = [None] * (2 * n + 1)
        for l in range(-old, old + 1):
            vals[l] = self.vals[l]
            watches[l] = self.watches[l]
        for l in range(old + 1, n + 1):
            watches[l] = []
            watches[-l] = []
        self.vals = vals
        self.watches = watches
        grow = n - old
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.phase.extend([False] * grow)
        self.seen.extend(bytes(grow))
        for v in range(old + 1, n + 1):
            a = self._rng.random() * 1e-6
            self.act.append(a)
            heapq.heappush(self.heap, (-a, v))
        self.nvars = n

    def new_var(self) -> int:
        self.ensure_vars(self.nvars + 1)
        return self.nvars

    def add_clause(self, lits) -> bool:
        """Add a hard clause at level 0. Returns False once the formula is unsat."""
        if not self.ok:
            return False
        self._backtrack(0)
        lits = [int(l) for l in lits]
        if lits:
            self.ensure_vars(max(abs(l) for l in lits))
        seen = set()
        cl = []
        vals = self.vals
        for l in lits:
            if -l in seen:
                return True  # tautology
            if l in seen:
                continue
            seen.add(l)
            v = vals[l]
            if v == 1:
                return True  # satisfied at level 0
            if v == 0:
                continue  # falsified fact, drop literal
            cl.append(l)
        if not cl:
            self.ok = False
            return False
        if len(cl) == 1:
            self._enqueue(cl[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self.orig_clauses.append(cl)
        self.watches[cl[0]].append(cl)
        self.watches[cl[1]].append(cl)
        return True

    def _enqueue(self, lit: int, reason) -> None:
        self.vals[lit] = 1
        self.vals[-lit] = 0
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            neg = -p
            ws = watches[neg]
            i = j = 0
            n = len(ws)
            confl = None
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == neg:
                    c[0] = c[1]
                    c[1] = neg
                first = c[0]
                fv = vals[first]
                if fv == 1:
                    ws[j] = c
                    j += 1
                    continue
                found = False
                for k in range(2, len(c)):
                    lk = c[k]
                    if vals[lk] != 0:
                        c[1] = lk
                        c[k] = neg
                        watches[lk].append(c)
                        found = True
                        break
                if found:
                    continue
                ws[j] = c
                j += 1
                if fv == 0:
                    confl = c
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                else:
                    vals[first] = 1
                    vals[-first] = 0
                    v = first if first > 0 else -first
                    level[v] = len(self.lim)
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
            if confl is not None:
                return confl
        return None

    def _bump(self, v: int) -> None:
        a = self.act[v] + self.var_inc
        self.act[v] = a
        if a > 1e100:
            scale = 1e-100
            for u in range(1, self.nvars + 1):
                self.act[u] *= scale
            self.var_inc *= scale
            a = self.act[v]
        heapq.heappush(self.heap, (-a, v))

    def _analyze(self, confl):
        # first-UIP resolution along the trail
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        cur = len(self.lim)
        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        skip = 0  # enqueued literal whose reason is being expanded
        idx = len(trail) - 1
        c = confl
        while True:
            for l in c:
                if l == skip:
                    continue
                v = abs(l)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump(v)
                    if level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(l)
            while True:
                pl = trail[idx]
                idx -= 1
                pv = abs(pl)
                if seen[pv]:
                    break
            skip = pl
            c = reason[pv]
            seen[pv] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = -skip
        # drop literals whose reason is already covered by the clause
        out = [learnt[0]]
        for l in learnt[1:]:
            r = reason[abs(l)]
            if r is None:
                out.append(l)
                continue
            for q in r:
                if q == -l or level[abs(q)] == 0:
                    continue
                if not seen[abs(q)]:
                    out.append(l)
                    break
        learnt = out
        for v in to_clear:
            seen[v] = 0
        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            for i in range(2, len(learnt)):
                if level[abs(learnt[i])] > level[abs(learnt[mi])]:
                    mi = i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = level[abs(learnt[1])]
        return learnt, bt

    def _attach_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.learned.append(learnt)
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    def _backtrack(self, target: int) -> None:
        if len(self.lim) <= target:
            return
        bound = self.lim[target]
        trail = self.trail
        vals = self.vals
        heap = self.heap
        act = self.act
        for i in range(len(trail) - 1, bound - 1, -1):
            l = trail[i]
            v = l if l > 0 else -l
            vals[l] = _UNASSIGNED
            vals[-l] = _UNASSIGNED
            self.phase[v] = l > 0
            self.reason[v] = None
            heapq.heappush(heap, (-act[v], v))
        del trail[bound:]
        del self.lim[target:]
        self.qhead = bound

    def _pick_branch(self) -> int:
        vals = self.vals
        heap = self.heap
        while heap:
            _, v = heapq.heappop(heap)
            if vals[v] == _UNASSIGNED:
                return v
        for v in range(1, self.nvars + 1):
            if vals[v] == _UNASSIGNED:
                return v
        return 0

    def _analyze_final(self, p: int) -> list[int]:
        # assumptions implying the negation of failed assumption p; p included
        core = [p]
        if not self.lim:
            return core
        marked = {abs(p)}
        start = self.lim[0]
        for i in range(len(self.trail) - 1, start - 1, -1):
            l = self.trail[i]
            v = abs(l)
            if v not in marked:
                continue
            r = self.reason[v]
            if r is None:
                core.append(l)
            else:
                for q in r:
                    if abs(q) != v:
                        marked.add(abs(q))
            marked.discard(v)
        return core

    def _reduce_db(self) -> None:
        locked = {id(self.reason[abs(l)]) for l in self.trail if self.reason[abs(l)] is not None}
        ranked = sorted(self.learned, key=len)
        keep_n = len(ranked) // 2
        kept = []
        for i, c in enumerate(ranked):
            if i < keep_n or id(c) in locked or len(c) <= 2:
                kept.append(c)
        self.learned = kept
        for l in range(-self.nvars, self.nvars + 1):
            if l != 0:
                self.watches[l] = []
        for c in self.orig_clauses:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        for c in self.learned:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)

    def solve(self, assumptions=(), conflict_limit: int | None = None,
              deadline: float | None = None) -> SatResult:
        """Solve under assumptions.

        UNSAT with assumptions reports the subset of them that failed; UNSAT
        with an empty core means the clauses alone are unsatisfiable.
        """
        if not self.ok:
            return SatResult(SatStatus.UNSAT, core=())
        if deadline is not None and time.monotonic() > deadline:
            return SatResult(SatStatus.INDETERMINATE)
        assumptions = [int(a) for a in assumptions]
        for a in assumptions:
            self.ensure_vars(abs(a))
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return SatResult(SatStatus.UNSAT, core=())
        conflicts = 0
        restart_idx = 1
        restart_at = self.restart_base * _luby(0)
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.lim:
                    self.ok = False
                    return SatResult(SatStatus.UNSAT, core=())
                conflicts += 1
                self.total_conflicts += 1
                learnt, bt = self._analyze(confl)
                self._backtrack(bt)
                self._attach_learnt(learnt)
                self.var_inc /= self.var_decay
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                    self.max_learned = int(self.max_learned * 1.3)
                if conflict_limit is not None and conflicts >= conflict_limit:
                    self._backtrack(0)
                    return SatResult(SatStatus.INDETERMINATE)
                if deadline is not None and conflicts % 128 == 0 and time.monotonic() > deadline:
                    self._backtrack(0)
                    return SatResult(SatStatus.INDETERMINATE)
                if conflicts >= restart_at:
                    restart_at = conflicts + self.restart_base * _luby(restart_idx)
                    restart_idx += 1
                    # keep the assumption prefix; rebuilding it every restart
                    # dominates runtime when there are many assumptions
                    self._backtrack(min(len(assumptions), len(self.lim)))
            else:
                dl = len(self.lim)
                if dl < len(assumptions):
                    p = assumptions[dl]
                    pv = self.vals[p]
                    if pv == 1:
                        self.lim.append(len(self.trail))
                    elif pv == 0:
                        core = self._analyze_final(p)
                        self._backtrack(0)
                        return SatResult(SatStatus.UNSAT, core=tuple(core))
                    else:
                        self.lim.append(len(self.trail))
                        self._enqueue(p, None)
                else:
                    v = self._pick_branch()
                    if v == 0:
                        model = {u: self.vals[u] == 1 for u in range(1, self.nvars + 1)}
                        self._backtrack(0)
                        return SatResult(SatStatus.SAT, model=model)
                    lit = v if self.phase[v] else -v
                    self.lim.append(len(self.trail))
                    self._enqueue(lit, None)


def solve_sat(clauses, assumptions=(), cfg: SolverConfig | None = None) -> SatResult:
    """Complete SAT check over hard clauses, with optional assumptions.

    Every SAT answer is re-verified by a direct clause evaluation pass.
    """
    cfg = cfg or SolverConfig()
    clause_lists = [list(map(int, c)) for c in clauses]
    num_vars = 0
    for c in clause_lists:
        for l in c:
            num_vars = max(num_vars, abs(l))
    for a in assumptions:
        num_vars = max(num_vars, abs(int(a)))
    solver = CdclSolver(num_vars, clause_lists, seed=cfg.seed)
    deadline = time.monotonic() + cfg.timeout if cfg.timeout is not None else None
    res = solver.solve(assumptions, cfg.conflict_limit, deadline)
    if res.status is SatStatus.SAT:
        model = res.model
        for c in clause_lists:
            if not any(model[abs(l)] == (l > 0) for l in c):
                raise SolverInternalError(f"model does not satisfy clause {c}")
        for a in assumptions:
            if model[abs(a)] != (a > 0):
                raise SolverInternalError(f"model violates assumption {a}")
    return res


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
    assignment = {v: bool((best >> (v - 1)) & 1) for v in range(1, n + 1)}
    return MaxSatResult(MaxSatStatus.OPTIMUM, best_cost, Model(assignment, best_cost))


def _restrict(model: dict[int, bool], n: int) -> dict[int, bool]:
    return {v: model[v] for v in range(1, n + 1)}


def _shrink_core(solver: CdclSolver, core, deadline) -> tuple[int, ...]:
    """Shrink an unsatisfiable core: cheap re-solve trims, then budgeted
    deletion-based minimization.  Small cores keep the relax-and-split
    transformation from bloating the working formula."""
    core = list(core)
    # re-solving with only the core assumed (reversed, to vary the failure
    # order) often shrinks it at negligible cost
    for _ in range(4):
        if len(core) <= 1:
            return tuple(core)
        res = solver.solve(tuple(reversed(core)), conflict_limit=4000, deadline=deadline)
        if res.status is SatStatus.SAT:
            raise SolverInternalError("reported core is satisfiable")
        if res.status is not SatStatus.UNSAT or not res.core or len(res.core) >= len(core):
            break
        core = list(res.core)
    # deletion pass: drop literals whose removal keeps the rest contradictory.
    # Abandoned when attempts keep hitting their conflict budget; that means
    # the core resists cheap minimization and the tries are wasted work.
    i = 0
    stalled = 0
    while i < len(core) and len(core) > 1 and stalled < 8:
        trial = core[:i] + core[i + 1:]
        res = solver.solve(tuple(trial), conflict_limit=150, deadline=deadline)
        if res.status is SatStatus.UNSAT and res.core is not None:
            kept = set(res.core)
            core = [l for l in core if l in kept]
        else:
            if res.status is SatStatus.INDETERMINATE:
                stalled += 1
            i += 1
    return tuple(core)


def solve_maxsat(formula: WcnfFormula, cfg: SolverConfig | None = None) -> MaxSatResult:
    """Exact weighted partial Max-SAT: minimize falsified soft weight by
    stratified core-guided relax-and-split."""
    cfg = cfg or SolverConfig()
    base_n = formula.num_vars
    solver = CdclSolver(base_n, seed=cfg.seed)
    deadline = time.monotonic() + cfg.timeout if cfg.timeout is not None else None

    for c in formula.clauses:
        if c.is_hard:
            solver.add_clause(c.literals)

    # each soft clause is stored relaxed by a selector: (lits v sel); assuming
    # -sel re-activates it.  Cores are reported in terms of those assumptions.
    softs: list[dict] = []
    for c in formula.clauses:
        if c.is_hard:
            continue
        sel = solver.new_var()
        solver.add_clause(list(c.literals) + [sel])
        softs.append({"lits": list(c.literals), "w": c.weight, "sel": sel})

    lower = 0
    best_cost: int | None = None
    best_model: dict[int, bool] | None = None

    def remaining_budget() -> int | None:
        if cfg.conflict_limit is None:
            return None
        return max(0, cfg.conflict_limit - solver.total_conflicts)

    def indeterminate() -> MaxSatResult:
        model = None
        if best_model is not None:
            model = Model.checked(formula, best_model)
        return MaxSatResult(MaxSatStatus.INDETERMINATE, model=model,
                            bounds=(lower, best_cost))

    threshold = max((e["w"] for e in softs), default=0)
    active = [e for e in softs if e["w"] >= threshold]

    while True:
        assumptions = [-e["sel"] for e in sorted(active, key=lambda e: (-e["w"], e["sel"]))]
        budget = remaining_budget()
        if budget == 0:
            return indeterminate()
        res = solver.solve(assumptions, budget, deadline)
        if res.status is SatStatus.INDETERMINATE:
            return indeterminate()
        if res.status is SatStatus.SAT:
            model = _restrict(res.model, base_n)
            true_cost = formula.falsified_weight(model)
            if best_cost is None or true_cost < best_cost:
                best_cost, best_model = true_cost, model
            # weight splitting creates new weight levels, so the next stratum
            # comes from the current weights, not the original ones
            pending = [e["w"] for e in softs if 0 < e["w"] < threshold]
            if not pending:
                if true_cost != lower:
                    raise SolverInternalError(
                        f"core-guided accounting drifted: model cost {true_cost}, bound {lower}"
                    )
                return MaxSatResult(MaxSatStatus.OPTIMUM, lower, Model(model, lower))
            threshold = max(pending)
            active = [e for e in softs if e["w"] >= threshold]
            continue

        core = res.core
        if not core:
            return MaxSatResult(MaxSatStatus.HARD_UNSAT)
        core = _shrink_core(solver, core, deadline)
        core_sels = {-a for a in core}
        members = [e for e in active if e["sel"] in core_sels]
        if not members:
            raise SolverInternalError("core mentions no active soft clause")
        wmin = min(e["w"] for e in members)
        lower += wmin
        if len(members) == 1:
            e = members[0]
            e["w"] -= wmin
            if e["w"] == 0:
                active.remove(e)
                solver.add_clause([e["sel"]])
        else:
            blockers = []
            for e in members:
                b = solver.new_var()
                blockers.append(b)
                relaxed = e["lits"] + [b]
                sel = solver.new_var()
                solver.add_clause(relaxed + [sel])
                fresh = {"lits": relaxed, "w": wmin, "sel": sel}
                softs.append(fresh)
                active.append(fresh)
                e["w"] -= wmin
                if e["w"] == 0:
                    active.remove(e)
                    solver.add_clause([e["sel"]])
            one_of, _ = encode_exactly(
                1, blockers,
                Scheme.PAIRWISE if len(blockers) <= 8 else Scheme.TOTALIZER,
                solver.new_var,
            )
            for cl in one_of:
                solver.add_clause(cl)


def solve_external(formula: WcnfFormula, cfg: SolverConfig) -> MaxSatResult:
    """Run an external Max-SAT solver over DIMACS WCNF and re-validate its answer.

    The command template must contain an ``{input}`` placeholder for the
    WCNF path (appended if missing).  The returned model is checked against
    the formula and the reported cost is recomputed; disagreement raises
    UntrustedSolverError.
    """
    if not cfg.external_cmd:
        raise ExternalSolverError("no external solver command configured")
    tokens = shlex.split(cfg.external_cmd)
    path = None
    try:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".wcnf", delete=False, encoding="utf-8"
        ) as handle:
            path = handle.name
            handle.write(write_dimacs(formula))
        argv = [t.replace("{input}", path) for t in tokens]
        if path not in argv:
            argv.append(path)
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=cfg.timeout
            )
        except FileNotFoundError as exc:
            raise ExternalSolverError(f"external solver not found: {exc}") from None
        except subprocess.TimeoutExpired:
            raise ExternalSolverError(
                f"external solver timed out after {cfg.timeout}s"
            ) from None
        out = parse_solver_output(proc.stdout, num_vars=formula.num_vars)
        if out.status is OutputStatus.UNSAT:
            return MaxSatResult(MaxSatStatus.HARD_UNSAT)
        if out.status is OutputStatus.UNKNOWN:
            raise ExternalSolverError(
                f"external solver gave no status (exit code {proc.returncode})"
            )
        if out.model is None:
            raise UntrustedSolverError("external solver reported SAT without a model")
        if not formula.hard_satisfied(out.model):
            raise UntrustedSolverError("external model violates a hard clause")
        recomputed = formula.falsified_weight(out.model)
        if out.cost is not None and out.cost != recomputed:
            raise UntrustedSolverError(
                f"external solver claimed cost {out.cost}, model costs {recomputed}"
            )
        if out.status is not OutputStatus.OPTIMUM:
            raise ExternalSolverError("external solver stopped before proving optimality")
        return MaxSatResult(
            MaxSatStatus.OPTIMUM, recomputed, Model(dict(out.model), recomputed)
        )
    finally:
        if path is not None and os.path.exists(path):
            os.unlink(path)
