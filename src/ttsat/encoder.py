"""Compile a timetabling Instance into a weighted partial CNF formula.

Variable families, one block each, densely numbered from 1:

* ct(session, timeslot): the session meets in that timeslot
* cd(session, day): the session meets on that day
* cr(session, room): the session is held in that room
* kt(curriculum, timeslot): some session of the curriculum meets then
* auxiliary variables from cardinality encodings, tagged by origin

Hard families tie the variable blocks together and forbid clashes; the
soft families price registration conflicts, forbidden timeslots, and room
capacity overflows.  Clause emission order is fixed (family by family, then
instance order), so encoding the same instance twice is byte-identical.

Each family returns its clauses as one ``cnf.ClauseView`` block, and the
formula is those blocks joined.  The families with many clauses build
them by numpy broadcasting: ``room_clashes`` over (room, timeslot, pair);
the three pair-clash families over (session pair, timeslot), through
``_pair_clash_clauses``.  The two exactly-one families make one row per
session (``_exactly_one_rows``): each row fills its share of preallocated
literal and offset arrays from a clause template, made once per row shape
by ``cardinality.exactly_one`` over placeholder variables, with the leaves
and the row's own aux block (``VarMap.aux_block``) in place of the
placeholders.  The link families, small at any size, build one literal
tuple per clause, and the soft unit families one literal per clause.  A
weight past int64 is a ``CnfError``: ``registration_clashes`` names its
course pair and ``room_capacity`` its session and room, so every soft
weight is in range when one ``np.array`` call makes the family's int64
weights.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .cardinality import exactly_one
from .cnf import ClauseView, CnfError, WcnfFormula, clause_block, concat_clauses
from .model import Instance, SessionKind, cross_curriculum_pairs


class EncodeError(ValueError):
    """A variable index outside the VarMap."""


UNAVAILABILITY_WEIGHT = 10  # the paper's price of a forbidden timeslot
_INT64_MAX = np.iinfo(np.int64).max


def _int64_weight(weight: int, source: str) -> int:
    """``weight``; a ``CnfError`` naming ``source`` when it passes int64."""
    if weight > _INT64_MAX:
        raise CnfError(f"soft clause weight {weight} of {source} does not fit in int64")
    return weight


@dataclass(frozen=True)
class EncodeOptions:
    """The one encoding choice: ``weighted`` gives the paper's weights
    (registered students per clashing registration, 10 per forbidden
    timeslot, seats short per capacity overflow); ``False`` is the plain
    partial mode, every soft clause weight 1.

    Every exactly-one is ``cardinality.exactly_one``: pairwise for up to
    8 literals, the totalizer above.  The weight methods are the
    single weighting policy, shared by the encoder and by
    ``decode.compute_cost``.
    """

    weighted: bool = True

    def registration_weight(self, students: int) -> int:
        return students if self.weighted else 1

    def unavailability_soft_weight(self) -> int:
        return UNAVAILABILITY_WEIGHT if self.weighted else 1

    def capacity_weight(self, overflow: int) -> int:
        return overflow if self.weighted else 1


class VarMap:
    """Bijection between semantic variables and CNF indices 1..N."""

    def __init__(self, instance: Instance):
        self.instance = instance
        S = len(instance.sessions)
        T = len(instance.timeslots)
        D = len(instance.days)
        R = len(instance.rooms)
        K = len(instance.curricula)
        self._T, self._D, self._R = T, D, R
        self._ct0 = 1
        self._cd0 = self._ct0 + S * T
        self._cr0 = self._cd0 + S * D
        self._kt0 = self._cr0 + S * R
        self._aux0 = self._kt0 + K * T
        self._num_aux = 0
        # per nonempty aux block: its first variable, and its tag
        self._aux_starts: list[int] = []
        self._aux_tags: list[str] = []

    def ct(self, session: int, timeslot: int) -> int:
        return self._ct0 + session * self._T + timeslot

    def cd(self, session: int, day: int) -> int:
        return self._cd0 + session * self._D + day

    def cr(self, session: int, room: int) -> int:
        return self._cr0 + session * self._R + room

    def kt(self, curriculum: int, timeslot: int) -> int:
        return self._kt0 + curriculum * self._T + timeslot

    @property
    def num_vars(self) -> int:
        return self._aux0 - 1 + self._num_aux

    def aux_block(self, tag: str, size: int) -> int:
        """Allocate ``size`` consecutive auxiliary variables tagged ``tag``
        and return the first.  ``explain`` numbers a block's variables #1,
        #2, ..., so each tag names one block.  A block of size 0 records
        nothing and returns the start of the next block."""
        start = self._aux0 + self._num_aux
        if size:
            self._aux_starts.append(start)
            self._aux_tags.append(tag)
            self._num_aux += size
        return start

    def explain(self, var: int) -> str:
        """Semantic description of a variable index."""
        if not 1 <= var <= self.num_vars:
            raise EncodeError(f"variable {var} out of range 1..{self.num_vars}")
        inst = self.instance
        if var < self._cd0:
            off = var - self._ct0
            s, t = divmod(off, self._T)
            return f"ct({inst.session_label(s)}, {inst.timeslots[t].label})"
        if var < self._cr0:
            off = var - self._cd0
            s, d = divmod(off, self._D)
            return f"cd({inst.session_label(s)}, {inst.days[d].label})"
        if var < self._kt0:
            off = var - self._cr0
            s, r = divmod(off, self._R)
            return f"cr({inst.session_label(s)}, {inst.rooms[r].label})"
        if var < self._aux0:
            off = var - self._kt0
            k, t = divmod(off, self._T)
            return f"kt({inst.curricula[k].label}, {inst.timeslots[t].label})"
        block = bisect.bisect_right(self._aux_starts, var) - 1
        return f"aux({self._aux_tags[block]} #{var - self._aux_starts[block] + 1})"


def link_ct_cd(instance: Instance, varmap: VarMap) -> ClauseView:
    """Tie each session's timeslot variables to its day variables, both ways."""
    out = []
    for s in instance.sessions:
        for t in instance.timeslots:
            out.append((-varmap.ct(s.id, t.id), varmap.cd(s.id, t.day)))
        for d in instance.days:
            lits = [-varmap.cd(s.id, d.id)]
            lits += [varmap.ct(s.id, t) for t in instance.slots_by_day[d.id]]
            out.append(lits)
    return clause_block(out)


def link_ct_kt(instance: Instance, varmap: VarMap) -> ClauseView:
    """Tie session timeslot variables to curriculum timeslot variables."""
    out = []
    for s in instance.sessions:
        k = instance.courses[s.course].curriculum
        for t in instance.timeslots:
            out.append((-varmap.ct(s.id, t.id), varmap.kt(k, t.id)))
    for k in instance.curricula:
        members = instance.sessions_by_curriculum[k.id]
        for t in instance.timeslots:
            out.append([-varmap.kt(k.id, t.id)] + [varmap.ct(s, t.id) for s in members])
    return clause_block(out)


def _curriculum_session_pairs(instance: Instance) -> list[tuple[int, int]]:
    pairs = []
    for k in instance.curricula:
        members = instance.sessions_by_curriculum[k.id]
        pairs.extend(itertools.combinations(sorted(members), 2))
    return pairs


def _staff_session_pairs(instance: Instance) -> list[tuple[int, int]]:
    by_staff: dict[int, list[int]] = {}
    for s in instance.sessions:
        by_staff.setdefault(s.staff, []).append(s.id)
    pairs = []
    for staff_id in sorted(by_staff):
        pairs.extend(itertools.combinations(sorted(by_staff[staff_id]), 2))
    return pairs


def _pair_clash_clauses(instance, varmap, pairs, weights=None) -> ClauseView:
    """The clause (-ct(a, t), -ct(b, t)) for each session pair (a, b) of
    ``pairs``, then timeslot by timeslot, built by one broadcast shaped
    (pair, timeslot, literal).  ``weights`` gives one weight per pair, and
    None makes every clause hard."""
    T = len(instance.timeslots)
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    lits = -varmap.ct(pairs[:, None, :], np.arange(T)[:, None])
    n = len(pairs) * T
    if weights is not None:
        weights = np.repeat(np.array(weights, dtype=np.int64), T)
    return ClauseView(lits.reshape(-1), np.arange(0, 2 * n + 1, 2, dtype=np.int64), weights)


def curriculum_clashes(instance: Instance, varmap: VarMap) -> ClauseView:
    """Sessions of one curriculum never share a slot."""
    return _pair_clash_clauses(instance, varmap, _curriculum_session_pairs(instance))


def teacher_clashes(instance: Instance, varmap: VarMap) -> ClauseView:
    """Same-staff sessions never share a slot; pairs already forced apart by
    a shared curriculum are skipped (the clause would be identical)."""
    cur = set(_curriculum_session_pairs(instance))
    pairs = [p for p in _staff_session_pairs(instance) if p not in cur]
    return _pair_clash_clauses(instance, varmap, pairs)


def registration_clashes(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> ClauseView:
    """Soft clause per cross-curriculum registered pair, session pair, and slot."""
    pairs, weights = [], []
    for (c1, c2), students in cross_curriculum_pairs(instance).items():
        first, second = instance.courses[c1], instance.courses[c2]
        weight = _int64_weight(opts.registration_weight(students),
                               f"courses {first.label} and {second.label}")
        course_pairs = list(itertools.product(first.sessions, second.sessions))
        pairs += course_pairs
        weights += [weight] * len(course_pairs)
    return _pair_clash_clauses(instance, varmap, pairs, weights)


def room_clashes(instance: Instance, varmap: VarMap) -> ClauseView:
    """At most one session per room per timeslot: for sessions a < b, the
    clause (-ct(a,t), -ct(b,t), -cr(a,r), -cr(b,r)), room by room, then
    timeslot by timeslot, then pair by pair in ``itertools.combinations``
    order.  One broadcast builds them all, shaped (room, timeslot, pair,
    literal)."""
    sessions = np.arange(len(instance.sessions))
    neg_ct = -varmap.ct(sessions, np.arange(len(instance.timeslots))[:, None])
    neg_cr = -varmap.cr(sessions, np.arange(len(instance.rooms))[:, None])
    a, b = np.triu_indices(len(sessions), 1)  # row-major: combinations order
    R, T, P = len(neg_cr), len(neg_ct), len(a)
    lits = np.empty((R, T, P, 4), dtype=np.int64)
    lits[..., 0] = neg_ct[:, a]
    lits[..., 1] = neg_ct[:, b]
    lits[..., 2] = neg_cr[:, None, a]
    lits[..., 3] = neg_cr[:, None, b]
    n = R * T * P
    return ClauseView(lits.reshape(-1), np.arange(0, 4 * n + 1, 4, dtype=np.int64))


def _soft_units(literals, weights) -> ClauseView:
    """One soft unit clause per literal, ``weights`` giving their weights."""
    return ClauseView(np.array(literals, dtype=np.int64),
                      np.arange(len(literals) + 1, dtype=np.int64),
                      np.array(weights, dtype=np.int64))


def timeslot_unavailability(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> ClauseView:
    """Soft unit against each forbidden (session, timeslot) placement."""
    out = [-varmap.ct(s.id, t) for s in instance.sessions for t in sorted(s.forbidden_timeslots)]
    return _soft_units(out, [opts.unavailability_soft_weight()] * len(out))


def room_capacity(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> ClauseView:
    """Soft unit against each room too small for a session's enrollment."""
    out, weights = [], []
    for s in instance.sessions:
        for r in instance.rooms:
            if r.capacity < s.enrollment:
                weight = _int64_weight(opts.capacity_weight(s.enrollment - r.capacity),
                                       f"session {instance.session_label(s.id)} in room {r.label}")
                out.append(-varmap.cr(s.id, r.id))
                weights.append(weight)
    return _soft_units(out, weights)


def _template(n, exactly):
    """One row's clauses over placeholder leaves 1..n: ``exactly_one`` over
    leaves 1..exactly, then a negative unit on each later leaf.  Returns
    their literal and offset arrays and ``m``, the number of auxiliary
    variables, which are the placeholders n+1..n+m in allocation order."""
    fresh = itertools.count(n + 1)
    clauses = exactly_one(range(1, exactly + 1), fresh.__next__)
    clauses += [(-v,) for v in range(exactly + 1, n + 1)]
    literals, offsets, _ = clause_block(clauses).arrays()
    return literals, offsets, next(fresh) - n - 1


def _exactly_one_rows(varmap, tags, rows) -> ClauseView:
    """Hard clauses for ``rows``, row by row.  Each row is ``(leaves,
    exactly)``: its leaf literals, and how many leading leaves take the
    exactly-one (each later leaf takes a negative unit).  Row i gets its
    own block of auxiliary variables tagged ``tags[i]``, so the clauses,
    numbering and tags are those of one ``exactly_one`` call per row; the
    clauses come from one template per ``(len(leaves), exactly)``."""
    templates, row_templates = {}, []
    for leaves, exactly in rows:
        shape = (len(leaves), exactly)
        if shape not in templates:
            templates[shape] = _template(*shape)
        row_templates.append(templates[shape])
    flat = np.empty(sum(len(t[0]) for t in row_templates), dtype=np.int64)
    offsets = np.zeros(sum(len(t[1]) - 1 for t in row_templates) + 1, dtype=np.int64)
    lit_at = clause_at = 0
    for tag, (leaves, _), (literals, row_offsets, m) in zip(tags, rows, row_templates):
        start = varmap.aux_block(tag, m)
        # placeholder v is values[v - 1]: the leaves, then the row's aux block
        values = np.concatenate([leaves, np.arange(start, start + m)])
        flat[lit_at:lit_at + len(literals)] = np.sign(literals) * values[np.abs(literals) - 1]
        offsets[clause_at + 1:clause_at + len(row_offsets)] = lit_at + row_offsets[1:]
        lit_at += len(literals)
        clause_at += len(row_offsets) - 1
    return ClauseView(flat, offsets)


def _session_tags(instance, family):
    return [f"{family}/{instance.session_label(s.id)}/totalizer" for s in instance.sessions]


def room_assignment(instance: Instance, varmap: VarMap) -> ClauseView:
    """Exactly one room per session; labs restricted to lab rooms: a lab's
    exactly-one ranges over the lab rooms, then a negative unit forbids each
    other room."""
    rooms = np.arange(len(instance.rooms))
    lab_order = np.array(instance.lab_rooms + tuple(r.id for r in instance.rooms if not r.is_lab),
                         dtype=np.int64)
    rows = [(varmap.cr(s.id, lab_order), len(instance.lab_rooms)) if s.kind is SessionKind.LAB
            else (varmap.cr(s.id, rooms), len(rooms)) for s in instance.sessions]
    return _exactly_one_rows(varmap, _session_tags(instance, "room_assignment"), rows)


def meeting_count(instance: Instance, varmap: VarMap) -> ClauseView:
    """Exactly one timeslot per session.  Together with the sibling-session
    curriculum clash this schedules each course twice a week in distinct slots."""
    slots = np.arange(len(instance.timeslots))
    rows = [(varmap.ct(s.id, slots), len(slots)) for s in instance.sessions]
    return _exactly_one_rows(varmap, _session_tags(instance, "meeting_count"), rows)


def encode(instance: Instance, opts: EncodeOptions | None = None) -> tuple[WcnfFormula, VarMap]:
    """Compile the instance; returns the formula and its variable map."""
    formula, varmap, _ = encode_with_families(instance, opts)
    return formula, varmap


def encode_with_families(
    instance: Instance, opts: EncodeOptions | None = None
) -> tuple[WcnfFormula, VarMap, dict[str, range | list[int]]]:
    """Like encode(), also reporting which clause indices each family emitted:
    a ``range`` for each family, in emission order.

    A clause shared by curriculum_clashes and teacher_clashes appears once in
    the formula but is indexed under both families, so teacher_clashes is a
    list: those shared indices, then its own.
    """
    opts = opts or EncodeOptions()
    varmap = VarMap(instance)
    blocks: list[ClauseView] = []
    families: dict[str, range | list[int]] = {}
    count = 0

    def emit(family: str, block: ClauseView):
        nonlocal count
        blocks.append(block)
        families[family] = range(count, count + len(block))
        count += len(block)

    emit("link_ct_cd", link_ct_cd(instance, varmap))
    emit("link_ct_kt", link_ct_kt(instance, varmap))
    emit("curriculum_clashes", curriculum_clashes(instance, varmap))
    emit("registration_clashes", registration_clashes(instance, varmap, opts))
    emit("teacher_clashes", teacher_clashes(instance, varmap))
    emit("room_clashes", room_clashes(instance, varmap))
    emit("timeslot_unavailability", timeslot_unavailability(instance, varmap, opts))
    emit("room_capacity", room_capacity(instance, varmap, opts))
    emit("room_assignment", room_assignment(instance, varmap))
    emit("meeting_count", meeting_count(instance, varmap))

    # curriculum_clashes emits T clauses per pair, in pair order
    T = len(instance.timeslots)
    first = families["curriculum_clashes"].start
    staff_pairs = set(_staff_session_pairs(instance))
    shared = [
        idx
        for i, pair in enumerate(_curriculum_session_pairs(instance))
        if pair in staff_pairs
        for idx in range(first + i * T, first + (i + 1) * T)
    ]
    families["teacher_clashes"] = shared + list(families["teacher_clashes"])

    formula = WcnfFormula(varmap.num_vars, concat_clauses(blocks))
    return formula, varmap, families
