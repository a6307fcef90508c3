"""Turn solver models back into timetables and validate them semantically.

The validators here work from the Instance alone, never from the CNF, so
they are an independent check on the whole encode/solve pipeline: for any
model of the hard clauses, ``compute_cost(decode_timetable(...))`` must
equal the solver-reported cost.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from enum import Enum

from .cnf import Model
from .encoder import EncodeOptions, VarMap
from .model import Instance, SessionKind, cross_curriculum_pairs


class DecodeError(ValueError):
    """Model cannot be decoded into a timetable (encoder or solver bug)."""


class TimetableFormatError(ValueError):
    """Rendered-timetable text cannot be parsed back."""


@dataclass(frozen=True)
class Timetable:
    """Session id -> (timeslot id, room id). May represent invalid states so
    that hand-edited timetables can still be checked."""

    placements: dict[int, tuple[int, int]]


class HardViolationKind(Enum):
    ROOM_CLASH = "RoomClash"
    CURRICULUM_CLASH = "CurriculumClash"
    TEACHER_CLASH = "TeacherClash"
    LAB_ROOM = "LabRoom"
    COURSE_OVERLAP = "CourseOverlap"


class SoftViolationKind(Enum):
    REGISTRATION_CLASH = "RegistrationClash"
    UNAVAILABILITY = "Unavailability"
    CAPACITY_OVERFLOW = "CapacityOverflow"


@dataclass(frozen=True)
class HardViolation:
    kind: HardViolationKind
    detail: str


@dataclass(frozen=True)
class SoftViolation:
    kind: SoftViolationKind
    detail: str
    weight: int


@dataclass(frozen=True)
class ViolationReport:
    entries: tuple[SoftViolation, ...]

    @property
    def total_cost(self) -> int:
        return sum(e.weight for e in self.entries)


def _assignment(model) -> dict[int, bool]:
    return model.assignment if isinstance(model, Model) else model


def decode_timetable(model, varmap: VarMap, instance: Instance) -> Timetable:
    """Read each session's unique true ct and cr variable off the model.

    The model must satisfy the hard clauses; zero or multiple true ct/cr
    variables per session, or day/curriculum variables inconsistent with the
    timeslot choices, raise DecodeError.
    """
    assign = _assignment(model)
    placements: dict[int, tuple[int, int]] = {}
    for s in instance.sessions:
        label = instance.session_label(s.id)
        slots = [t.id for t in instance.timeslots if assign[varmap.ct(s.id, t.id)]]
        if len(slots) != 1:
            raise DecodeError(
                f"session '{label}' has {len(slots)} true timeslot variables, expected 1"
            )
        rooms = [r.id for r in instance.rooms if assign[varmap.cr(s.id, r.id)]]
        if len(rooms) != 1:
            raise DecodeError(
                f"session '{label}' has {len(rooms)} true room variables, expected 1"
            )
        placements[s.id] = (slots[0], rooms[0])
        slot_day = instance.timeslots[slots[0]].day
        for d in instance.days:
            expected = d.id == slot_day
            if assign[varmap.cd(s.id, d.id)] != expected:
                raise DecodeError(
                    f"session '{label}': day variable for '{d.label}' contradicts its timeslot"
                )
    for k in instance.curricula:
        members = instance.sessions_by_curriculum[k.id]
        for t in instance.timeslots:
            expected = any(placements[s][0] == t.id for s in members)
            if assign[varmap.kt(k.id, t.id)] != expected:
                raise DecodeError(
                    f"curriculum '{k.label}' timeslot variable for "
                    f"'{t.label}' contradicts the session placements"
                )
    return Timetable(placements)


def check_hard(timetable: Timetable, instance: Instance) -> list[HardViolation]:
    """Empty iff the timetable satisfies every hard scheduling rule."""
    out: list[HardViolation] = []
    pl = timetable.placements

    def name(sid):
        return instance.session_short(sid)

    placed = sorted(pl)
    for a, b in itertools.combinations(placed, 2):
        if pl[a] == pl[b]:
            t, r = pl[a]
            out.append(
                HardViolation(
                    HardViolationKind.ROOM_CLASH,
                    f"{name(a)} and {name(b)} both in {instance.rooms[r].label} "
                    f"at {instance.timeslots[t].label}",
                )
            )

    for a, b in itertools.combinations(placed, 2):
        if pl[a][0] != pl[b][0]:
            continue
        sa, sb = instance.sessions[a], instance.sessions[b]
        slot = instance.timeslots[pl[a][0]].label
        if sa.course == sb.course:
            out.append(
                HardViolation(
                    HardViolationKind.COURSE_OVERLAP,
                    f"{name(a)} and {name(b)} of the same course both at {slot}",
                )
            )
        elif instance.courses[sa.course].curriculum == instance.courses[sb.course].curriculum:
            out.append(
                HardViolation(
                    HardViolationKind.CURRICULUM_CLASH,
                    f"{name(a)} and {name(b)} share a curriculum and meet at {slot}",
                )
            )
        if sa.staff == sb.staff:
            out.append(
                HardViolation(
                    HardViolationKind.TEACHER_CLASH,
                    f"{name(a)} and {name(b)} share staff "
                    f"'{instance.staff[sa.staff].label}' and meet at {slot}",
                )
            )

    for sid in placed:
        s = instance.sessions[sid]
        room = instance.rooms[pl[sid][1]]
        if s.kind is SessionKind.LAB and not room.is_lab:
            out.append(
                HardViolation(
                    HardViolationKind.LAB_ROOM,
                    f"{name(sid)} placed in non-lab room {room.label}",
                )
            )
    return out


def compute_cost(
    timetable: Timetable, instance: Instance, opts: EncodeOptions | None = None
) -> ViolationReport:
    """Soft cost recomputed directly from the Instance, without any CNF."""
    opts = opts or EncodeOptions()
    pl = timetable.placements
    entries: list[SoftViolation] = []

    pair_students = cross_curriculum_pairs(instance)
    for (c1, c2), students in pair_students.items():
        w = opts.registration_weight(students)
        for s1 in instance.courses[c1].sessions:
            for s2 in instance.courses[c2].sessions:
                if s1 in pl and s2 in pl and pl[s1][0] == pl[s2][0]:
                    entries.append(
                        SoftViolation(
                            SoftViolationKind.REGISTRATION_CLASH,
                            f"{instance.session_short(s1)} and {instance.session_short(s2)} "
                            f"co-scheduled at {instance.timeslots[pl[s1][0]].label}",
                            w,
                        )
                    )

    w_unavail = opts.unavailability_soft_weight()
    for s in instance.sessions:
        if s.id in pl and pl[s.id][0] in s.forbidden_timeslots:
            entries.append(
                SoftViolation(
                    SoftViolationKind.UNAVAILABILITY,
                    f"{instance.session_short(s.id)} placed in forbidden "
                    f"{instance.timeslots[pl[s.id][0]].label}",
                    w_unavail,
                )
            )

    for s in instance.sessions:
        if s.id not in pl:
            continue
        room = instance.rooms[pl[s.id][1]]
        if room.capacity < s.enrollment:
            overflow = s.enrollment - room.capacity
            entries.append(
                SoftViolation(
                    SoftViolationKind.CAPACITY_OVERFLOW,
                    f"{instance.session_short(s.id)}: {s.enrollment} students in "
                    f"{room.label} (capacity {room.capacity})",
                    opts.capacity_weight(overflow),
                )
            )
    return ViolationReport(tuple(entries))


def render_timetable(timetable: Timetable, instance: Instance, fmt: str = "text") -> str:
    """Rooms-as-rows, timeslots-as-columns grid, plain text or CSV."""
    if fmt not in ("text", "csv"):
        raise TimetableFormatError(f"unknown format '{fmt}'")
    cells: dict[tuple[int, int], list[int]] = {}
    for sid in sorted(timetable.placements):
        t, r = timetable.placements[sid]
        cells.setdefault((r, t), []).append(sid)
    grid = []
    header = ["room"] + [t.label for t in instance.timeslots]
    for room in instance.rooms:
        row = [room.label]
        for t in instance.timeslots:
            sids = cells.get((room.id, t.id), [])
            row.append(" + ".join(instance.session_short(s) for s in sids))
        grid.append(row)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(grid)
        return buf.getvalue()
    widths = [max(len(str(row[i])) for row in [header] + grid) for i in range(len(header))]
    lines = []
    for row in [header] + grid:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def parse_timetable_csv(text: str, instance: Instance) -> Timetable:
    """Inverse of render_timetable(..., fmt="csv"). Requires every session to
    appear exactly once; cells may hold several sessions joined by '+'."""
    token_to_sid = {instance.session_short(s.id): s.id for s in instance.sessions}
    slot_by_label = {t.label: t.id for t in instance.timeslots}
    room_by_label = {r.label: r.id for r in instance.rooms}

    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    # tolerate result lines ("o ...", "s ...", "c ...") ahead of the grid
    while rows and rows[0][0].strip() != "room":
        rows.pop(0)
    if not rows:
        raise TimetableFormatError("no timetable grid found (header row starts with 'room')")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise TimetableFormatError("header must list at least one timeslot")
    slot_ids = []
    for label in header[1:]:
        if label not in slot_by_label:
            raise TimetableFormatError(f"unknown timeslot '{label}' in header")
        slot_ids.append(slot_by_label[label])

    placements: dict[int, tuple[int, int]] = {}
    for row in rows[1:]:
        room_label = row[0].strip()
        if room_label not in room_by_label:
            raise TimetableFormatError(f"unknown room '{room_label}'")
        rid = room_by_label[room_label]
        for col, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            if col >= len(slot_ids):
                raise TimetableFormatError(f"row '{room_label}' has too many columns")
            for token in cell.split("+"):
                token = token.strip()
                if token not in token_to_sid:
                    raise TimetableFormatError(f"unknown session '{token}'")
                sid = token_to_sid[token]
                if sid in placements:
                    raise TimetableFormatError(
                        f"session '{token}' appears more than once"
                    )
                placements[sid] = (slot_ids[col], rid)
    missing = [instance.session_short(s.id) for s in instance.sessions if s.id not in placements]
    if missing:
        raise TimetableFormatError(
            f"timetable is not total; missing sessions: {', '.join(missing)}"
        )
    return Timetable(placements)
