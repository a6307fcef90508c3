"""Exact SAT and weighted partial Max-SAT solving.

The SAT core is a conflict-driven clause learner: two-literal watching,
first-UIP learning with cheap self-subsumption minimization, activity-based
branching with decay, phase saving, Luby restarts, and MiniSat-style
assumption handling with failed-assumption cores.  A conflict bumps the
activity of every variable above level 0 that its resolution meets or
that is in the reason of a learned-clause literal (reason-side bumping:
Liang, Ganesh, Poupart & Czarnecki, SAT 2016).

Branching is soft first.  After the assumptions, the solver decides the
variable of highest activity.  ``load`` starts every soft clause's selector
above every formula variable, the heavier soft clause's selector higher,
and the saved phase starts False, which keeps the soft clause.  So until
conflicts bump other variables past them, the unassumed selectors are set
to keep their soft clauses, heaviest first, and a model breaks only the
soft clauses that propagation forces it to break.  The bumps that end
this come from both sides of each learned clause: the variables resolved
on, and the variables in the reasons of its literals.

Propagation walks each watch list once.  The watchers that stay are
collected into a fresh list that replaces the old one, and on a conflict
the watchers not yet visited follow them unchanged, so the lists keep
their order and no index bookkeeping is needed.

Its per-variable bookkeeping is amortized O(1): the literal-indexed arrays
grow by doubling their capacity, not by one variable at a time, and the lazy
branching heap gets an entry for a variable each time it is unassigned, at
its activity then; a bump, which only ever meets an assigned variable, adds
none.  The heap is rebuilt with one entry per unassigned variable once it
holds more than twice as many entries as there are variables (or after an
activity rescale), so stale entries never dominate it.

One exact optimizer sits on top of it: stratified core-guided OLL.  Each
soft clause keeps one selector for the run, and a core of several members,
as the SAT core reports it, gets one totalizer whose "at most one member
violated" output becomes a weighted assumption.  A core's totalizer counts
only up to the bound in use plus one (Martins et al., CP 2014): it starts
with two outputs per node, and when a core raises its bound to "at most
k+1" past its outputs, the same totalizer grows in place to k+2 outputs
per node, adding only the clauses of its new outputs.  After a model, the
next stratum is the heaviest weight left on an assumption that model
makes false, so strata it already satisfies cost no SAT call, and a model
that makes none false is optimal.  The model it returns, optimal or best so
far, must satisfy every hard clause.  The only budget is the wall-clock
deadline from ``SolverConfig.timeout``.

A ``CdclSolver`` is filled in two ways only: ``load`` puts a whole checked
``WcnfFormula`` into a fresh solver in one pass, with no per-literal checks,
and ``add_clause`` keeps its full checks for everything added one clause at
a time (the cores' totalizers).  A clause given lives in its watch
lists, and ``load`` also keeps its clauses in one list, in load order, so
that a finished solver frees them in that order and not in the order
search has shuffled the watch lists into.  The selectors come after the
largest variable a clause holds.

Every Max-SAT answer is one ``MaxSatResult``: a status, the model as a plain
``{var: bool}`` dict, that model's cost, and a proven lower bound.

``solve_external`` runs a given command line, any solver speaking DIMACS
WCNF and Max-SAT evaluation output, re-validating whatever it returns.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import shlex
import signal
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import compress

from .cardinality import Totalizer
from .cnf import CnfError, WcnfFormula, write_dimacs


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
    timeout: float | None = None


@dataclass(frozen=True)
class SatResult:
    status: SatStatus
    model: dict[int, bool] | None = None
    core: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MaxSatResult:
    """``model`` is a total assignment over the formula's variables, or None;
    ``cost`` is its falsified soft weight, None exactly when there is no
    model.  ``lower`` is a proven lower bound on the optimum: at OPTIMUM it
    equals ``cost``, and an INDETERMINATE result reports it with ``cost`` as
    the upper bound."""

    status: MaxSatStatus
    cost: int | None = None
    model: dict[int, bool] | None = None
    lower: int = 0


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
    A clause given lives in the watch lists of its first two literals;
    the clauses ``load`` gives are also kept in ``clauses``, in load order.
    Everything is deterministic for a fixed seed and call sequence.
    """

    def __init__(self, *, seed: int = 0):
        self.nvars = 0
        self.ok = True
        # literal-indexed arrays use python's negative indexing: index l is
        # valid for l in [-cap, cap] on a list of length 2*cap + 1, where
        # cap >= nvars; slots beyond nvars hold None and _UNASSIGNED
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
        self.total_conflicts = 0
        # the clauses load gave, in load order; set after the watch lists,
        # which are freed first, so a finished solver frees them in this order
        self.clauses: list[list[int]] = []
        self.learned: list[list[int]] = []
        self.max_learned = 8000
        self._rng = random.Random(seed)

    def ensure_vars(self, n: int) -> None:
        """Make variables 1..n exist; SolverError if their lists cannot be allocated."""
        if n <= self.nvars:
            return
        try:
            old = self.nvars
            cap = len(self.vals) // 2
            if n > cap:
                # geometric growth: a run of new_var calls copies each literal
                # slot O(1) times on average
                cap = max(n, 2 * cap)
                vals = [_UNASSIGNED] * (2 * cap + 1)
                watches: list = [None] * (2 * cap + 1)
                vals[:old + 1] = self.vals[:old + 1]
                watches[:old + 1] = self.watches[:old + 1]
                if old:
                    vals[-old:] = self.vals[-old:]
                    watches[-old:] = self.watches[-old:]
                self.vals = vals
                self.watches = watches
            watches = self.watches
            grow = n - old
            self.level.extend([0] * grow)
            self.reason.extend([None] * grow)
            self.phase.extend([False] * grow)
            self.seen.extend(bytes(grow))
            for v in range(old + 1, n + 1):
                watches[v] = []
                watches[-v] = []
                a = self._rng.random() * 1e-6
                self.act.append(a)
                heapq.heappush(self.heap, (-a, v))
            self.nvars = n
        except (MemoryError, OverflowError):
            raise SolverError(f"cannot allocate {n} variables for the builtin solver") from None

    def new_var(self) -> int:
        self.ensure_vars(self.nvars + 1)
        return self.nvars

    def load(self, formula: WcnfFormula) -> list[int]:
        """Load a checked formula into a fresh solver in one pass and return
        one fresh selector per soft clause, in formula order, numbered after
        ``formula.max_var``, the largest variable a clause holds.

        Each soft clause becomes the hard clause ``(lits v sel)``.  The
        clauses come from ``formula.clauses.lists()``, one new list each,
        and are loaded hard clauses first and then soft ones, each in
        formula order; ``clauses`` keeps them in that order, so that they
        are freed in it.  ``WcnfFormula`` has already ruled out non-integer
        literals, literal 0, repeated variables and variables past
        ``num_vars``, so each clause of two or more literals is watched as
        given, unassigned at level 0.  The hard units go last, through
        ``add_clause``, whose propagation repairs every watch they falsify.

        Each selector's activity then gains ``1e-3 * (1 + w / w_max)``, for
        its soft clause's weight ``w`` and the heaviest weight ``w_max``:
        above the random starting activities (below 1e-6) and below the
        first bump (1.0).  So the first decisions after the assumptions keep
        the unassumed soft clauses, heaviest first, while the random part
        still orders equal weights by the solver's seed."""
        if self.nvars or not self.ok:
            raise ValueError("load needs a fresh solver")
        base = formula.max_var
        self.ensure_vars(base + len(formula.soft_weights))
        selectors = list(range(base + 1, self.nvars + 1))
        watches = self.watches
        units = []
        lists = list(formula.clauses.lists())
        hard = formula.clauses.hard()
        clauses = list(compress(lists, hard.tolist()))
        softs = list(compress(lists, (~hard).tolist()))
        for cl, sel in zip(softs, selectors):
            cl.append(sel)
        clauses += softs
        self.clauses = clauses
        for cl in clauses:
            if len(cl) == 1:
                units.append(cl)
            else:
                watches[cl[0]].append(cl)
                watches[cl[1]].append(cl)
        for cl in units:
            self.add_clause(cl)
        soft_weights = formula.soft_weights
        heaviest = max(soft_weights, default=1)
        act = self.act
        for sel, w in zip(selectors, soft_weights):
            act[sel] += 1e-3 * (1 + w / heaviest)
        self._rebuild_heap()
        return selectors

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
        dl = len(self.lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = iter(watches[neg])
            keep = watches[neg] = []
            for c in ws:
                if c[0] == neg:
                    c[0] = c[1]
                    c[1] = neg
                first = c[0]
                fv = vals[first]
                if fv == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if vals[lk] != 0:
                        c[1] = lk
                        c[k] = neg
                        watches[lk].append(c)
                        break
                else:
                    keep.append(c)
                    if fv == 0:
                        keep.extend(ws)
                        self.qhead = qhead
                        return c
                    vals[first] = 1
                    vals[-first] = 0
                    v = first if first > 0 else -first
                    level[v] = dl
                    reason[v] = c
                    trail.append(first)
        self.qhead = qhead
        return None

    def _rescale(self) -> None:
        scale = 1e-100
        for u in range(1, self.nvars + 1):
            self.act[u] *= scale
        self.var_inc *= scale
        # the old entries are ranked by pre-scale activities
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One heap entry per unassigned variable, at its current activity."""
        vals = self.vals
        act = self.act
        heap = [(-act[v], v) for v in range(1, self.nvars + 1) if vals[v] == _UNASSIGNED]
        heapq.heapify(heap)
        self.heap = heap

    def _analyze(self, confl):
        # first-UIP resolution along the trail; a bump past 1e100 calls
        # _rescale, which scales var_inc too, so inc is read again after it
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        act = self.act
        inc = self.var_inc
        cur = len(self.lim)
        learnt: list[int] = []  # the literals below the conflict level
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
                    a = act[v] + inc
                    act[v] = a
                    if a > 1e100:
                        self._rescale()
                        inc = self.var_inc
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
        # One walk over the other literals: drop each one whose reason the
        # clause already covers, bump the variables in each kept one's reason
        # (reason-side bumping: Liang et al., SAT 2016; CaDiCaL's bumpreason;
        # all still assigned, as _pick_branch needs), and find the first
        # kept literal of the highest level.  The bumps write only act and
        # the covering test reads only seen and level, so neither sees the
        # other.  That literal goes second only after the walk, so the rest
        # keep their order, which _propagate scans.
        out = [-skip]
        mi = bt = 0
        for l in learnt:
            v = abs(l)
            r = reason[v]
            if r is not None:
                for q in r:
                    if q != -l and level[abs(q)] > 0 and not seen[abs(q)]:
                        break
                else:
                    continue
                for q in r:
                    u = abs(q)
                    if level[u] > 0:
                        a = act[u] + inc
                        act[u] = a
                        if a > 1e100:
                            self._rescale()
                            inc = self.var_inc
            if level[v] > bt:
                bt = level[v]
                mi = len(out)
            out.append(l)
        for v in to_clear:
            seen[v] = 0
        if bt:
            out[1], out[mi] = out[mi], out[1]
        return out, bt

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
        # Every unassigned variable has an entry at its current activity,
        # which outranks its older ones: _backtrack pushes one for each
        # variable it unassigns, and only assigned variables are bumped.  So
        # dropping the stale entries leaves the pick unchanged: the argmax of
        # (act[v], -v).
        if len(self.heap) > 2 * self.nvars:
            self._rebuild_heap()
        vals = self.vals
        heap = self.heap
        while heap:
            _, v = heapq.heappop(heap)
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
        """Discard the longer half of the learned clauses, by length, but
        keep every reason and every binary.  A discarded clause leaves the
        watch lists of its first two literals; no other clause moves."""
        locked = {id(self.reason[abs(l)]) for l in self.trail if self.reason[abs(l)] is not None}
        ranked = sorted(self.learned, key=len)
        keep_n = len(ranked) // 2
        gone = {id(c): c for i, c in enumerate(ranked)
                if i >= keep_n and id(c) not in locked and len(c) > 2}
        self.learned = [c for c in ranked if id(c) not in gone]
        watches = self.watches
        for l in {l for c in gone.values() for l in c[:2]}:
            watches[l] = [c for c in watches[l] if id(c) not in gone]

    def solve(self, assumptions=(), deadline: float | None = None) -> SatResult:
        """Solve under assumptions, or give up with INDETERMINATE once the
        monotonic-clock ``deadline`` has passed.

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
        conflicts = 0
        restart_idx = 1
        restart_at = RESTART_BASE * _luby(0)
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
                self.var_inc /= VAR_DECAY
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                    self.max_learned = int(self.max_learned * 1.3)
                if deadline is not None and conflicts % 128 == 0 and time.monotonic() > deadline:
                    self._backtrack(0)
                    return SatResult(SatStatus.INDETERMINATE)
                if conflicts >= restart_at:
                    restart_at = conflicts + RESTART_BASE * _luby(restart_idx)
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


def _checked(formula: WcnfFormula, model: dict[int, bool]) -> dict[int, bool]:
    """The optimizer's model, once it satisfies every hard clause."""
    if not formula.hard_satisfied(model):
        raise SolverInternalError("optimizer model violates a hard clause")
    return model


@contextmanager
def gc_paused():
    """Switch the cyclic garbage collector off for the decorated call, then
    restore the caller's state: the solver keeps a list per clause to its
    end, and those lists form no cycles for the collector to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@gc_paused()
def solve_maxsat(formula: WcnfFormula, cfg: SolverConfig | None = None) -> MaxSatResult:
    """Exact weighted partial Max-SAT: minimize falsified soft weight by
    stratified core-guided OLL.

    The formula goes into the SAT core in bulk, through ``CdclSolver.load``.
    A stratum assumes every assumption whose weight left reaches its
    threshold.  Each SAT call either finds an unsatisfiable core over those
    assumptions, which is relaxed as reported, or a model, which may improve
    the best model and ends the stratum.  The next threshold is the heaviest
    weight left on an assumption the whole model (selectors and sum outputs
    included) makes false; when it makes none false it is optimal, its cost
    equal to the lower bound.  A model cheaper than the lower bound, or an
    optimum whose cost differs from it, raises ``SolverInternalError``; so
    does a returned model, optimal or best so far, that violates a hard
    clause.
    Thresholds fall strictly between models and every core raises the lower
    bound, so the search ends.  When ``cfg.timeout`` runs out the result
    is INDETERMINATE, carrying the lower bound reached and the best model
    found so far with its cost (both None with no model yet); a timeout of
    0 or less returns that at once, before the formula is loaded."""
    cfg = cfg or SolverConfig()
    if cfg.timeout is not None and cfg.timeout <= 0:
        # a spent budget: loading alone can take seconds
        return MaxSatResult(MaxSatStatus.INDETERMINATE)
    solver = CdclSolver(seed=cfg.seed)
    deadline = time.monotonic() + cfg.timeout if cfg.timeout is not None else None
    used, n = formula.max_var, formula.num_vars
    try:  # the declared variables no clause holds, False in every model
        unused = dict(zip(range(used + 1, n + 1), [False] * (n - used)))
    except (MemoryError, OverflowError):
        raise SolverError(f"cannot allocate {n + len(formula.soft_weights)} variables "
                          "for the builtin solver") from None

    # each soft clause keeps one selector for the run: (lits v sel); assuming
    # -sel re-activates it.  Cores are reported in terms of those assumptions.
    selectors = solver.load(formula)
    # assumption literal -> its weight left
    weight = {-sel: w for w, sel in zip(formula.soft_weights, selectors)}
    # -outputs[k], "at most k of a core's members violated" -> (the
    # members' totalizer, k)
    sums: dict[int, tuple[Totalizer, int]] = {}

    lower = 0
    best_cost: int | None = None
    best_model: dict[int, bool] | None = None
    threshold = max(weight.values(), default=0)

    while True:
        assumptions = sorted((a for a, w in weight.items() if w >= threshold),
                             key=lambda a: (-weight[a], -a))
        res = solver.solve(assumptions, deadline)
        if res.status is SatStatus.INDETERMINATE:
            model = None if best_model is None else _checked(formula, best_model)
            return MaxSatResult(MaxSatStatus.INDETERMINATE, best_cost, model, lower)
        if res.status is SatStatus.SAT:
            model = {v: res.model[v] for v in range(1, used + 1)} | unused
            true_cost = formula.falsified_weight(model)
            if true_cost < lower:
                raise SolverInternalError(
                    f"model cost {true_cost} is below the lower bound {lower}: unsound core"
                )
            if best_cost is None or true_cost < best_cost:
                best_cost, best_model = true_cost, model
            # the next stratum is the heaviest weight left on an assumption
            # this model makes false: the strata between are satisfied
            # already.  Cores leave weights below the threshold, so this
            # reads the current weights, not the original ones
            pending = [w for a, w in weight.items() if res.model[abs(a)] != (a > 0)]
            if not pending:
                if true_cost != lower:
                    raise SolverInternalError(
                        f"core-guided accounting drifted: model cost {true_cost}, bound {lower}"
                    )
                return MaxSatResult(MaxSatStatus.OPTIMUM, lower, _checked(formula, model), lower)
            threshold = max(pending)
            continue

        core = res.core
        if not core:
            return MaxSatResult(MaxSatStatus.HARD_UNSAT)
        members = [a for a in core if a in weight]
        if not members:
            raise SolverInternalError("core mentions no active soft clause")
        wmin = min(weight[a] for a in members)
        lower += wmin
        for a in members:
            weight[a] -= wmin
            if not weight[a]:
                del weight[a]
        # a violated "at most k" bound of a sum lets "at most k+1" count
        # next; a new sum over several members starts at "at most 1".  A sum
        # counts only to the bound in use plus one, and counts one further
        # in place once a bound passes its outputs
        raised = [sums[a] for a in members if a in sums]
        if len(members) > 1:
            raised.append((Totalizer([-a for a in members]), 0))
        for counter, k in raised:
            if k + 1 < len(counter.lits):
                for cl in counter.count_to(k + 2, solver.new_var):
                    solver.add_clause(cl)
                a = -counter.outputs[k + 1]
                weight[a] = weight.get(a, 0) + wmin
                sums[a] = (counter, k + 1)


def solve_external(formula: WcnfFormula, command: str,
                   timeout: float | None = None) -> MaxSatResult:
    """Run an external Max-SAT solver over DIMACS WCNF and re-validate its answer.

    ``command`` is split like a shell command line; each ``{input}`` in it,
    a whole token or part of one, becomes the path of a WCNF file in a
    temporary directory.  The path is appended as a last argument only when
    no token holds ``{input}``, and the file is removed once the solver
    exits.  An empty or blank command raises ExternalSolverError.
    ``timeout`` bounds the solver process in wall-clock seconds; a timeout
    is INDETERMINATE, at once (no file, no process) when ``timeout`` is 0
    or less.
    The solver's stdout goes to a file in the same directory and its stderr
    is discarded, and the call waits for the solver process to exit, not
    for its output to close: a child that outlives it and keeps the output
    open does not hold the answer back.  The solver runs in a session of
    its own, and whatever of that session is still running when the call
    ends is killed, the solver's own children too.  ``_read_answer`` reads
    and checks what it printed.
    """
    tokens = shlex.split(command)
    if not tokens:
        raise ExternalSolverError("empty external solver command")
    if timeout is not None and timeout <= 0:
        return MaxSatResult(MaxSatStatus.INDETERMINATE)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "formula.wcnf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(write_dimacs(formula))
        argv = [t.replace("{input}", path) for t in tokens]
        if not any("{input}" in t for t in tokens):
            argv.append(path)
        out_path = os.path.join(tmp, "stdout")
        with open(out_path, "wb") as out:
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                        start_new_session=True)
            except FileNotFoundError as exc:
                raise ExternalSolverError(f"external solver not found: {exc}") from None
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                return MaxSatResult(MaxSatStatus.INDETERMINATE)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
    return _read_answer(stdout, formula, proc.returncode)


def _read_answer(text: str, formula: WcnfFormula, returncode: int) -> MaxSatResult:
    """The checked result of Max-SAT evaluation output: "o <cost>",
    "s <status>" and "v" lines.

    The last "o" line wins, and so does the last "s" line: its tag is
    OPTIMUM FOUND, SAT..., UNSAT... or UNKNOWN, and any other tag states no
    status.  "v" lines carry signed literals (classic) or one 0/1 string; a
    variable beyond the formula's is a CnfError, and unmentioned variables
    are false.  No status raises ExternalSolverError.  UNSAT is HARD_UNSAT,
    and UNKNOWN without a model INDETERMINATE; any other answer needs a
    model that satisfies every hard clause and costs what an "o" line
    claims, else UntrustedSolverError.  Such a model is the OPTIMUM when
    the tag is OPTIMUM FOUND, else INDETERMINATE with its cost as the upper
    bound.
    """
    tag = None
    cost = None
    vtokens: list[str] = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("o ") or s == "o":
            parts = s.split()
            if len(parts) == 2:
                try:
                    cost = int(parts[1])
                except ValueError:
                    raise CnfError(f"bad objective line {s!r}") from None
        elif s.startswith("s "):
            said = s[2:].strip().upper()
            tag = ("UNSAT" if said.startswith("UNSAT") else "SAT" if said.startswith("SAT")
                   else said if said in ("OPTIMUM FOUND", "UNKNOWN") else None)
        elif s.startswith("v ") or s == "v":
            vtokens.extend(s[1:].split())
    model = None
    if vtokens:
        bits = vtokens[0]
        if len(vtokens) == 1 and len(bits) > 1 and set(bits) <= {"0", "1"}:
            model = {v: b == "1" for v, b in enumerate(bits, start=1)}
        else:
            model = {}
            for tok in vtokens:
                try:
                    lit = int(tok)
                except ValueError:
                    raise CnfError(f"bad literal {tok!r} in model line") from None
                if lit:
                    model[abs(lit)] = lit > 0
        n = formula.num_vars
        beyond = next((v for v in model if v > n), None)
        if beyond is not None:
            raise CnfError(f"model mentions variable {beyond} beyond num_vars={n}")
        model = {v: model.get(v, False) for v in range(1, n + 1)}
    if tag is None:
        raise ExternalSolverError(f"external solver gave no status (exit code {returncode})")
    if tag == "UNSAT":
        return MaxSatResult(MaxSatStatus.HARD_UNSAT)
    if model is None:
        if tag == "UNKNOWN":
            return MaxSatResult(MaxSatStatus.INDETERMINATE)
        raise UntrustedSolverError("external solver reported SAT without a model")
    if not formula.hard_satisfied(model):
        raise UntrustedSolverError("external model violates a hard clause")
    recomputed = formula.falsified_weight(model)
    if cost is not None and cost != recomputed:
        raise UntrustedSolverError(
            f"external solver claimed cost {cost}, model costs {recomputed}"
        )
    if tag != "OPTIMUM FOUND":
        return MaxSatResult(MaxSatStatus.INDETERMINATE, recomputed, model)
    return MaxSatResult(MaxSatStatus.OPTIMUM, recomputed, model, recomputed)
