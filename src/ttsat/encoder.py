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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cardinality import exactly_one
from .cnf import Clause, WcnfFormula, gc_paused
from .model import (
    Instance,
    SessionKind,
    cross_curriculum_pairs,
    validate_instance,
    validation_errors,
)


class EncodeError(ValueError):
    """Instance cannot be encoded (invalid or structurally infeasible)."""


UNAVAILABILITY_WEIGHT = 10  # the paper's price of a forbidden timeslot


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
        self._aux_tags: list[tuple[str, int]] = []  # (tag, ordinal within tag)
        self._aux_counts: dict[str, int] = {}

    def ct(self, session: int, timeslot: int) -> int:
        return self._ct0 + session * self._T + timeslot

    def cd(self, session: int, day: int) -> int:
        return self._cd0 + session * self._D + day

    def cr(self, session: int, room: int) -> int:
        return self._cr0 + session * self._R + room

    def kt(self, curriculum: int, timeslot: int) -> int:
        return self._kt0 + curriculum * self._T + timeslot

    @property
    def base_num_vars(self) -> int:
        return self._aux0 - 1

    @property
    def num_vars(self) -> int:
        return self._aux0 - 1 + len(self._aux_tags)

    def new_aux(self, tag: str) -> int:
        ordinal = self._aux_counts.get(tag, 0) + 1
        self._aux_counts[tag] = ordinal
        self._aux_tags.append((tag, ordinal))
        return self._aux0 + len(self._aux_tags) - 1

    def allocator(self, tag: str):
        return lambda: self.new_aux(tag)

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
        tag, ordinal = self._aux_tags[var - self._aux0]
        return f"aux({tag} #{ordinal})"


FAMILY_ORDER = (
    "link_ct_cd",
    "link_ct_kt",
    "curriculum_clashes",
    "registration_clashes",
    "teacher_clashes",
    "room_clashes",
    "timeslot_unavailability",
    "room_capacity",
    "room_assignment",
    "meeting_count",
)


def link_ct_cd(instance: Instance, session_id: int, varmap: VarMap) -> list[Clause]:
    """Tie a session's timeslot variables to its day variables, both ways."""
    out = []
    for t in instance.timeslots:
        out.append(Clause((-varmap.ct(session_id, t.id), varmap.cd(session_id, t.day))))
    for d in instance.days:
        lits = [-varmap.cd(session_id, d.id)]
        lits += [varmap.ct(session_id, t) for t in instance.slots_by_day[d.id]]
        out.append(Clause(tuple(lits)))
    return out


def link_ct_kt(instance: Instance, varmap: VarMap) -> list[Clause]:
    """Tie session timeslot variables to curriculum timeslot variables."""
    out = []
    for s in instance.sessions:
        k = instance.courses[s.course].curriculum
        for t in instance.timeslots:
            out.append(Clause((-varmap.ct(s.id, t.id), varmap.kt(k, t.id))))
    for k in instance.curricula:
        members = instance.sessions_by_curriculum[k.id]
        for t in instance.timeslots:
            lits = [-varmap.kt(k.id, t.id)] + [varmap.ct(s, t.id) for s in members]
            out.append(Clause(tuple(lits)))
    return out


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


def _pair_clash_clauses(instance, varmap, pairs):
    out = []
    for a, b in pairs:
        for t in instance.timeslots:
            out.append(Clause((-varmap.ct(a, t.id), -varmap.ct(b, t.id))))
    return out


def teacher_clashes(instance: Instance, varmap: VarMap) -> list[Clause]:
    """Same-staff sessions never share a slot; pairs already forced apart by
    a shared curriculum are skipped (the clause would be identical)."""
    cur = set(_curriculum_session_pairs(instance))
    pairs = [p for p in _staff_session_pairs(instance) if p not in cur]
    return _pair_clash_clauses(instance, varmap, pairs)


def registration_clashes(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> list[Clause]:
    """Soft clause per cross-curriculum registered pair, session pair, and slot."""
    out = []
    for (c1, c2), students in cross_curriculum_pairs(instance).items():
        w = opts.registration_weight(students)
        for s1 in instance.courses[c1].sessions:
            for s2 in instance.courses[c2].sessions:
                for t in instance.timeslots:
                    out.append(
                        Clause((-varmap.ct(s1, t.id), -varmap.ct(s2, t.id)), weight=w)
                    )
    return out


def room_clashes(instance: Instance, varmap: VarMap) -> list[Clause]:
    """At most one session per room per timeslot: for sessions a < b, the
    clause (-ct(a,t), -ct(b,t), -cr(a,r), -cr(b,r))."""
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


def timeslot_unavailability(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> list[Clause]:
    """Soft unit against each forbidden (session, timeslot) placement."""
    w = opts.unavailability_soft_weight()
    out = []
    for s in instance.sessions:
        for t in sorted(s.forbidden_timeslots):
            out.append(Clause((-varmap.ct(s.id, t),), weight=w))
    return out


def room_capacity(instance: Instance, varmap: VarMap, opts: EncodeOptions) -> list[Clause]:
    """Soft unit against each room too small for a session's enrollment."""
    out = []
    for s in instance.sessions:
        for r in instance.rooms:
            if r.capacity < s.enrollment:
                w = opts.capacity_weight(s.enrollment - r.capacity)
                out.append(Clause((-varmap.cr(s.id, r.id),), weight=w))
    return out


def room_assignment(instance: Instance, varmap: VarMap) -> list[Clause]:
    """Exactly one room per session; labs restricted to lab rooms."""
    out = []
    for s in instance.sessions:
        if s.kind is SessionKind.LAB:
            eligible = list(instance.lab_rooms)
            if not eligible:
                raise EncodeError(
                    f"session '{instance.session_label(s.id)}' is a lab but no lab room exists"
                )
        else:
            eligible = [r.id for r in instance.rooms]
        lits = [varmap.cr(s.id, r) for r in eligible]
        tag = f"room_assignment/{instance.session_label(s.id)}/totalizer"
        out.extend(Clause(c) for c in exactly_one(lits, varmap.allocator(tag)))
        if s.kind is SessionKind.LAB:
            for r in instance.rooms:
                if not r.is_lab:
                    out.append(Clause((-varmap.cr(s.id, r.id),)))
    return out


def meeting_count(instance: Instance, varmap: VarMap) -> list[Clause]:
    """Exactly one timeslot per session.  Together with the sibling-session
    curriculum clash this schedules each course twice a week in distinct slots."""
    out = []
    for s in instance.sessions:
        lits = [varmap.ct(s.id, t.id) for t in instance.timeslots]
        tag = f"meeting_count/{instance.session_label(s.id)}/totalizer"
        out.extend(Clause(c) for c in exactly_one(lits, varmap.allocator(tag)))
    return out


def encode(instance: Instance, opts: EncodeOptions | None = None) -> tuple[WcnfFormula, VarMap]:
    """Compile the instance; returns the formula and its variable map."""
    formula, varmap, _ = encode_with_families(instance, opts)
    return formula, varmap


@gc_paused()
def encode_with_families(
    instance: Instance, opts: EncodeOptions | None = None
) -> tuple[WcnfFormula, VarMap, dict[str, list[int]]]:
    """Like encode(), also reporting which clause indices each family emitted.

    A clause shared by curriculum_clashes and teacher_clashes appears once in
    the formula but is indexed under both families.  The cyclic garbage
    collector is paused while the clauses are built (see ``cnf.gc_paused``).
    """
    opts = opts or EncodeOptions()
    errors = validation_errors(validate_instance(instance))
    if errors:
        raise EncodeError(f"instance is invalid: {errors[0].message}")
    if not instance.sessions:
        raise EncodeError("instance has no sessions to schedule")

    varmap = VarMap(instance)
    clauses: list[Clause] = []
    families: dict[str, list[int]] = {name: [] for name in FAMILY_ORDER}

    def emit(family: str, clause_list):
        start = len(clauses)
        clauses.extend(clause_list)
        families[family].extend(range(start, len(clauses)))

    for s in instance.sessions:
        emit("link_ct_cd", link_ct_cd(instance, s.id, varmap))
    emit("link_ct_kt", link_ct_kt(instance, varmap))

    staff_pairs = set(_staff_session_pairs(instance))
    for a, b in _curriculum_session_pairs(instance):
        shared = (a, b) in staff_pairs
        for t in instance.timeslots:
            idx = len(clauses)
            families["curriculum_clashes"].append(idx)
            if shared:
                families["teacher_clashes"].append(idx)
            clauses.append(Clause((-varmap.ct(a, t.id), -varmap.ct(b, t.id))))

    emit("registration_clashes", registration_clashes(instance, varmap, opts))
    emit("teacher_clashes", teacher_clashes(instance, varmap))
    emit("room_clashes", room_clashes(instance, varmap))
    emit("timeslot_unavailability", timeslot_unavailability(instance, varmap, opts))
    emit("room_capacity", room_capacity(instance, varmap, opts))
    emit("room_assignment", room_assignment(instance, varmap))
    emit("meeting_count", meeting_count(instance, varmap))

    formula = WcnfFormula(varmap.num_vars, tuple(clauses))
    return formula, varmap, families
