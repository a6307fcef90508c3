"""Timetabling instance model: types, JSON parsing, warnings, generation.

An instance file is a UTF-8 JSON document with label-based cross references:
every label and every reference is a JSON string, and no other value is
read as one.  Parsing assigns dense integer ids in file order.
``instance_from_doc`` is the one place where an instance is checked: it
raises ``ParseError`` for every invalid instance, so the rest of the
package never re-validates one.
``validate_instance`` only reports warnings about a valid instance.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class ParseError(ValueError):
    """Syntactically or referentially invalid instance file."""


class SessionKind(Enum):
    LECTURE = "lecture"
    SECTION = "section"
    LAB = "lab"


SHORT_KIND = {
    SessionKind.LECTURE: "lect.",
    SessionKind.SECTION: "sec.",
    SessionKind.LAB: "lab",
}


@dataclass(frozen=True)
class Day:
    id: int
    label: str


@dataclass(frozen=True)
class Timeslot:
    id: int
    day: int
    label: str


@dataclass(frozen=True)
class Room:
    id: int
    label: str
    capacity: int
    is_lab: bool


@dataclass(frozen=True)
class Staff:
    id: int
    label: str


@dataclass(frozen=True)
class Session:
    """One weekly meeting of a course; the schedulable unit."""

    id: int
    course: int
    kind: SessionKind
    staff: int
    enrollment: int
    forbidden_timeslots: frozenset[int]


@dataclass(frozen=True)
class Course:
    id: int
    label: str
    curriculum: int
    sessions: tuple[int, int]  # (lecture, section-or-lab)


@dataclass(frozen=True)
class Curriculum:
    id: int
    label: str
    courses: tuple[int, ...]


@dataclass(frozen=True)
class RegistrationGroup:
    courses: tuple[int, ...]
    students: int


@dataclass(frozen=True)
class Instance:
    """A valid timetabling instance.  Build one only through
    ``instance_from_doc`` (``parse_instance``, ``gen_random_instance`` and
    ``load_sample`` all do), which guarantees in-range ids, at least one
    day, timeslot, room and course, a timeslot on every day, a course in
    every curriculum, and a lab room whenever a session is a lab."""

    days: tuple[Day, ...]
    timeslots: tuple[Timeslot, ...]
    rooms: tuple[Room, ...]
    staff: tuple[Staff, ...]
    courses: tuple[Course, ...]
    sessions: tuple[Session, ...]
    curricula: tuple[Curriculum, ...]
    registration_groups: tuple[RegistrationGroup, ...]

    @cached_property
    def slots_by_day(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {d.id: [] for d in self.days}
        for t in self.timeslots:
            out[t.day].append(t.id)
        return {d: tuple(ts) for d, ts in out.items()}

    @cached_property
    def sessions_by_curriculum(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {k.id: [] for k in self.curricula}
        for k in self.curricula:
            for cid in k.courses:
                out[k.id].extend(self.courses[cid].sessions)
        return {k: tuple(s) for k, s in out.items()}

    @cached_property
    def lab_rooms(self) -> tuple[int, ...]:
        return tuple(r.id for r in self.rooms if r.is_lab)

    def session_label(self, sid: int) -> str:
        s = self.sessions[sid]
        return f"{self.courses[s.course].label}/{s.kind.value}"

    def session_short(self, sid: int) -> str:
        s = self.sessions[sid]
        return f"{self.courses[s.course].label} {SHORT_KIND[s.kind]}"


@dataclass(frozen=True)
class Finding:
    level: str  # "warning"; no instance that parses has an "error"
    message: str


def _as_obj(val, where):
    if not isinstance(val, dict):
        raise ParseError(f"{where}: expected an object")
    return val


def _get(obj, key, where, types, optional=False, default=None):
    if key not in obj:
        if optional:
            return default
        raise ParseError(f"{where}: missing key '{key}'")
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool) and types is int:
        raise ParseError(f"{where}: key '{key}' has the wrong type")
    return val


def _label_index(labels, what):
    """Each label's position; a label is a JSON string unique in its section."""
    index = {}
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ParseError(f"{what} #{i}: label must be a string")
        if label in index:
            raise ParseError(f"duplicate {what} label '{label}'")
        index[label] = i
    return index


def _ref(index, value, unknown):
    """The position of the label ``value`` names; any other value is an
    ``unknown`` reference."""
    if not isinstance(value, str) or value not in index:
        raise ParseError(f"{unknown} '{value}'")
    return index[value]


def parse_instance(text: str) -> Instance:
    """Parse a JSON instance file into a fully cross-linked Instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None
    return instance_from_doc(doc)


def instance_from_doc(doc) -> Instance:
    """Check a decoded instance document and build its Instance; an
    invalid document raises ``ParseError``."""
    doc = _as_obj(doc, "instance")
    for key in ("days", "timeslots", "rooms", "staff", "courses", "curricula", "registrations"):
        _get(doc, key, "instance", list)

    day_index = _label_index(doc["days"], "day")
    days = tuple(Day(i, lab) for i, lab in enumerate(doc["days"]))
    if not days:
        raise ParseError("at least one day is required")

    timeslots = []
    for i, raw in enumerate(doc["timeslots"]):
        obj = _as_obj(raw, f"timeslot #{i}")
        label = _get(obj, "label", f"timeslot #{i}", str)
        where = f"timeslot '{label}'"
        day = _ref(day_index, _get(obj, "day", where, str), f"{where} references unknown day")
        timeslots.append(Timeslot(i, day, label))
    slot_index = _label_index([t.label for t in timeslots], "timeslot")
    if not timeslots:
        raise ParseError("at least one timeslot is required")

    rooms = []
    for i, raw in enumerate(doc["rooms"]):
        obj = _as_obj(raw, f"room #{i}")
        label = _get(obj, "label", f"room #{i}", str)
        capacity = _get(obj, "capacity", f"room '{label}'", int)
        if capacity < 0:
            raise ParseError(f"room '{label}': capacity must be nonnegative")
        is_lab = _get(obj, "lab", f"room '{label}'", bool, optional=True, default=False)
        rooms.append(Room(i, label, capacity, is_lab))
    _label_index([r.label for r in rooms], "room")
    if not rooms:
        raise ParseError("at least one room is required")

    staff_index = _label_index(doc["staff"], "staff")
    staff = tuple(Staff(i, lab) for i, lab in enumerate(doc["staff"]))

    curriculum_index = _label_index(doc["curricula"], "curriculum")

    courses = []
    sessions = []
    curriculum_courses: dict[int, list[int]] = {i: [] for i in curriculum_index.values()}

    def parse_session(obj, course_id, kind, where):
        staff_id = _ref(staff_index, _get(obj, "staff", where, str), f"{where}: unknown staff")
        enrollment = _get(obj, "enrollment", where, int)
        if enrollment < 0:
            raise ParseError(f"{where}: enrollment must be nonnegative")
        forbidden = _get(obj, "forbidden", where, list, optional=True, default=[])
        forbidden_ids = frozenset(
            _ref(slot_index, f, f"{where}: unknown forbidden timeslot") for f in forbidden
        )
        sid = len(sessions)
        sessions.append(Session(sid, course_id, kind, staff_id, enrollment, forbidden_ids))
        return sid

    for i, raw in enumerate(doc["courses"]):
        obj = _as_obj(raw, f"course #{i}")
        label = _get(obj, "label", f"course #{i}", str)
        where = f"course '{label}'"
        cur_id = _ref(curriculum_index, _get(obj, "curriculum", where, str),
                      f"{where} references unknown curriculum")
        lecture_obj = _get(obj, "lecture", where, dict)
        second_obj = _get(obj, "second", where, dict)
        kind_label = _get(second_obj, "kind", f"{where} second session", str)
        if kind_label not in (SessionKind.SECTION.value, SessionKind.LAB.value):
            raise ParseError(f"{where}: second session kind must be 'section' or 'lab'")
        course_id = len(courses)
        lec = parse_session(lecture_obj, course_id, SessionKind.LECTURE, f"{where} lecture")
        snd = parse_session(second_obj, course_id, SessionKind(kind_label), f"{where} second session")
        courses.append(Course(course_id, label, cur_id, (lec, snd)))
        curriculum_courses[cur_id].append(course_id)
    course_index = _label_index([c.label for c in courses], "course")

    curricula = tuple(
        Curriculum(i, lab, tuple(curriculum_courses[i]))
        for i, lab in enumerate(doc["curricula"])
    )

    groups = []
    for i, raw in enumerate(doc["registrations"]):
        obj = _as_obj(raw, f"registration #{i}")
        course_list = _get(obj, "courses", f"registration #{i}", list)
        ids = {_ref(course_index, c, f"registration #{i}: unknown course") for c in course_list}
        if len(ids) < 2:
            raise ParseError(f"registration #{i}: needs at least two distinct courses")
        students = _get(obj, "students", f"registration #{i}", int)
        if students < 1:
            raise ParseError(f"registration #{i}: students must be positive")
        groups.append(RegistrationGroup(tuple(sorted(ids)), students))

    # rules over the resolved instance; the ones broken are reported together
    days_with_slots = {t.day for t in timeslots}
    broken = [f"day '{d.label}' owns no timeslots" for d in days if d.id not in days_with_slots]
    broken += [f"curriculum '{k.label}' contains no courses" for k in curricula if not k.courses]
    lab = next((s for s in sessions if s.kind is SessionKind.LAB), None)
    if lab is not None and not any(r.is_lab for r in rooms):
        broken.append(f"session '{courses[lab.course].label}/lab' is a lab but no lab room exists")
    if broken:
        raise ParseError("; ".join(broken))
    if not courses:
        raise ParseError("instance has no sessions to schedule")

    return Instance(
        days=days,
        timeslots=tuple(timeslots),
        rooms=tuple(rooms),
        staff=staff,
        courses=tuple(courses),
        sessions=tuple(sessions),
        curricula=curricula,
        registration_groups=tuple(groups),
    )


def serialize_instance(instance: Instance) -> str:
    """Inverse of parse_instance; deterministic JSON text."""
    doc = {
        "days": [d.label for d in instance.days],
        "timeslots": [
            {"label": t.label, "day": instance.days[t.day].label}
            for t in instance.timeslots
        ],
        "rooms": [
            {"label": r.label, "capacity": r.capacity, "lab": r.is_lab}
            for r in instance.rooms
        ],
        "staff": [s.label for s in instance.staff],
        "curricula": [k.label for k in instance.curricula],
        "courses": [],
        "registrations": [
            {
                "courses": [instance.courses[c].label for c in g.courses],
                "students": g.students,
            }
            for g in instance.registration_groups
        ],
    }

    def session_doc(sid, with_kind):
        s = instance.sessions[sid]
        out = {}
        if with_kind:
            out["kind"] = s.kind.value
        out["staff"] = instance.staff[s.staff].label
        out["enrollment"] = s.enrollment
        out["forbidden"] = [
            instance.timeslots[t].label for t in sorted(s.forbidden_timeslots)
        ]
        return out

    for c in instance.courses:
        lec, snd = c.sessions
        lec_doc = session_doc(lec, with_kind=False)
        snd_doc = session_doc(snd, with_kind=True)
        doc["courses"].append(
            {
                "label": c.label,
                "curriculum": instance.curricula[c.curriculum].label,
                "lecture": lec_doc,
                "second": snd_doc,
            }
        )
    return json.dumps(doc, indent=2) + "\n"


def validate_instance(instance: Instance) -> list[Finding]:
    """Satisfiability red flags of a valid instance, as warnings: a single
    timeslot, a session that soft-forbids every timeslot, a curriculum or a
    staff member with more sessions than timeslots, and more (lab) sessions
    than (lab) rooms × timeslots, counts that CDCL refutes slowly.  Invalid
    instances never get here; ``instance_from_doc`` rejects them."""
    findings: list[Finding] = []
    warn = lambda msg: findings.append(Finding("warning", msg))

    n_slots = len(instance.timeslots)
    if n_slots < 2:
        warn("every course needs 2 distinct timeslots, only 1 exists")
    for s in instance.sessions:
        if len(s.forbidden_timeslots) == n_slots:
            warn(f"session '{instance.session_label(s.id)}': all timeslots are soft-forbidden")
    by_staff = collections.Counter(s.staff for s in instance.sessions)
    groups = [(f"curriculum '{k.label}'", len(instance.sessions_by_curriculum[k.id]))
              for k in instance.curricula]
    groups += [(f"staff '{p.label}'", by_staff[p.id]) for p in instance.staff]
    for who, need in groups:
        if need > n_slots:
            warn(f"{who} needs {need} distinct timeslots, only {n_slots} exist")
    labs = sum(s.kind is SessionKind.LAB for s in instance.sessions)
    for what, need, rooms in (("lab ", labs, len(instance.lab_rooms)),
                              ("", len(instance.sessions), len(instance.rooms))):
        if need > rooms * n_slots:
            warn(f"{need} {what}sessions need distinct ({what}room, timeslot) places, "
                 f"only {rooms * n_slots} exist")
    return findings


def validation_errors(findings: list[Finding]) -> list[Finding]:
    """The error-level findings: always none for ``validate_instance``."""
    return [f for f in findings if f.level == "error"]


def cross_curriculum_pairs(instance: Instance) -> dict[tuple[int, int], int]:
    """Aggregate registration demand per cross-curriculum course pair.

    Same-curriculum pairs are dropped (they already clash hard); repeated
    pairs across groups have their student counts summed.  Keys are sorted
    course-id pairs, in sorted order.
    """
    out: dict[tuple[int, int], int] = {}
    for g in instance.registration_groups:
        for a, b in itertools.combinations(sorted(g.courses), 2):
            if instance.courses[a].curriculum == instance.courses[b].curriculum:
                continue
            out[(a, b)] = out.get((a, b), 0) + g.students
    return dict(sorted(out.items()))


def gen_random_instance(
    seed: int,
    *,
    days: int = 2,
    slots_per_day: int = 2,
    rooms: int = 2,
    courses: int = 3,
    curricula: int = 2,
    overlap_density: float = 0.5,
) -> Instance:
    """Deterministic random instance, built through ``instance_from_doc``."""
    if min(days, slots_per_day, rooms, courses, curricula) < 1:
        raise ValueError("all size parameters must be positive")
    if curricula > courses:
        raise ValueError(f"curricula ({curricula}) must not exceed courses ({courses})")
    if not 0.0 <= overlap_density <= 1.0:
        raise ValueError(f"overlap_density must be in [0, 1], got {overlap_density}")

    rng = random.Random(seed)
    n_slots = days * slots_per_day

    doc: dict = {"days": [f"d{i + 1}" for i in range(days)]}
    slot_labels = [f"t{i + 1}" for i in range(n_slots)]
    doc["timeslots"] = [
        {"label": slot_labels[i], "day": f"d{i // slots_per_day + 1}"}
        for i in range(n_slots)
    ]

    lab_flags = [rooms >= 2 and rng.random() < 0.4 for _ in range(rooms)]
    if rooms >= 2 and not any(lab_flags):
        lab_flags[-1] = True
    doc["rooms"] = [
        {
            "label": f"{'lab' if lab_flags[i] else 'r'}{i + 1}",
            "capacity": rng.choice([25, 40, 60, 90, 120]),
            "lab": lab_flags[i],
        }
        for i in range(rooms)
    ]
    has_lab = any(lab_flags)

    n_teachers = max(1, (2 * courses + 2) // 3)
    n_tas = max(1, (courses + 1) // 2)
    teachers = [f"prof{i + 1}" for i in range(n_teachers)]
    tas = [f"ta{i + 1}" for i in range(n_tas)]
    doc["staff"] = teachers + tas

    doc["curricula"] = [f"k{i + 1}" for i in range(curricula)]

    def forbidden_set():
        if rng.random() >= 0.25 or n_slots < 2:
            return []
        count = rng.randint(1, max(1, min(n_slots - 1, n_slots // 3)))
        return sorted(rng.sample(slot_labels, count), key=slot_labels.index)

    doc["courses"] = []
    for i in range(courses):
        # first `curricula` courses seed one curriculum each, rest go anywhere
        cur = i if i < curricula else rng.randrange(curricula)
        second_kind = "lab" if has_lab and rng.random() < 0.5 else "section"
        enrollment = rng.randint(5, 120)
        doc["courses"].append(
            {
                "label": f"c{i + 1}",
                "curriculum": f"k{cur + 1}",
                "lecture": {
                    "staff": rng.choice(teachers),
                    "enrollment": enrollment,
                    "forbidden": forbidden_set(),
                },
                "second": {
                    "kind": second_kind,
                    "staff": rng.choice(tas),
                    "enrollment": enrollment,
                    "forbidden": forbidden_set(),
                },
            }
        )

    doc["registrations"] = []
    course_cur = {c["label"]: c["curriculum"] for c in doc["courses"]}
    labels = [c["label"] for c in doc["courses"]]
    for a, b in itertools.combinations(labels, 2):
        if course_cur[a] == course_cur[b]:
            continue
        if rng.random() < overlap_density:
            doc["registrations"].append(
                {"courses": [a, b], "students": rng.randint(1, 40)}
            )

    return instance_from_doc(doc)
