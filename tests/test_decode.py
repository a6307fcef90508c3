import pytest

from helpers import assignment_for_placement
from ttsat.decode import (
    DecodeError,
    HardViolationKind,
    SoftViolationKind,
    Timetable,
    TimetableFormatError,
    check_hard,
    compute_cost,
    decode_timetable,
    parse_timetable_csv,
    render_timetable,
)
from ttsat.encoder import EncodeOptions, VarMap
from ttsat.model import parse_instance
from ttsat.solver import solve_maxsat


def label_maps(instance):
    courses = {c.label: c for c in instance.courses}
    slots = {t.label: t.id for t in instance.timeslots}
    rooms = {r.label: r.id for r in instance.rooms}
    return courses, slots, rooms


@pytest.fixture(scope="module")
def solved(sample_instance, sample_weighted):
    formula, varmap, _ = sample_weighted
    result = solve_maxsat(formula)
    timetable = decode_timetable(result.model, varmap, sample_instance)
    return result, timetable, varmap


def feasible_placement(instance):
    """A hand-built hard-feasible placement for the bundled instance:
    curriculum members on distinct slots, labs in lab rooms, no shared
    (slot, room) cell, and the two same-staff lectures apart."""
    courses, slots, rooms = label_maps(instance)
    layout = {
        ("CS101", 0): ("t5", "r2"), ("CS101", 1): ("t1", "lab2"),
        ("CS202", 0): ("t1", "r1"), ("CS202", 1): ("t2", "lab1"),
        ("M271", 0): ("t3", "r2"), ("M271", 1): ("t4", "r2"),
        ("CS304", 0): ("t1", "r2"), ("CS304", 1): ("t2", "lab2"),
        ("CS305", 0): ("t3", "r1"), ("CS305", 1): ("t4", "lab1"),
        ("CS402", 0): ("t2", "r1"), ("CS402", 1): ("t1", "lab1"),
        ("CS408", 0): ("t3", "lab1"), ("CS408", 1): ("t4", "lab2"),
    }
    placements = {}
    for (label, idx), (t, r) in layout.items():
        placements[courses[label].sessions[idx]] = (slots[t], rooms[r])
    return Timetable(placements)


class TestDecode:
    def test_hand_built_model(self, sample_instance):
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        assignment = assignment_for_placement(sample_instance, vm, tt.placements)
        decoded = decode_timetable(assignment, vm, sample_instance)
        assert decoded.placements == tt.placements

    def test_direct_readout(self, sample_instance):
        courses, slots, rooms = label_maps(sample_instance)
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        lec = courses["CS101"].sessions[0]
        decoded = decode_timetable(
            assignment_for_placement(sample_instance, vm, tt.placements),
            vm, sample_instance,
        )
        assert decoded.placements[lec] == (slots["t5"], rooms["r2"])

    def test_two_true_rooms_rejected(self, sample_instance):
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        assignment = assignment_for_placement(sample_instance, vm, tt.placements)
        sid = sample_instance.courses[0].sessions[0]
        other = next(r.id for r in sample_instance.rooms
                     if r.id != tt.placements[sid][1])
        assignment[vm.cr(sid, other)] = True
        with pytest.raises(DecodeError, match="2 true room variables"):
            decode_timetable(assignment, vm, sample_instance)

    def test_zero_true_slots_rejected(self, sample_instance):
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        assignment = assignment_for_placement(sample_instance, vm, tt.placements)
        sid = sample_instance.courses[0].sessions[0]
        assignment[vm.ct(sid, tt.placements[sid][0])] = False
        with pytest.raises(DecodeError, match="0 true timeslot variables"):
            decode_timetable(assignment, vm, sample_instance)

    def test_inconsistent_day_rejected(self, sample_instance):
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        assignment = assignment_for_placement(sample_instance, vm, tt.placements)
        sid = sample_instance.courses[0].sessions[0]
        day = sample_instance.timeslots[tt.placements[sid][0]].day
        assignment[vm.cd(sid, day)] = False
        with pytest.raises(DecodeError, match="day variable"):
            decode_timetable(assignment, vm, sample_instance)

    def test_inconsistent_kt_rejected(self, sample_instance):
        vm = VarMap(sample_instance)
        tt = feasible_placement(sample_instance)
        assignment = assignment_for_placement(sample_instance, vm, tt.placements)
        assignment[vm.kt(0, 0)] = not assignment[vm.kt(0, 0)]
        with pytest.raises(DecodeError, match="contradicts the session placements"):
            decode_timetable(assignment, vm, sample_instance)

    def test_full_solve_decodes_totally(self, sample_instance, solved):
        _, timetable, _ = solved
        assert sorted(timetable.placements) == [s.id for s in sample_instance.sessions]


class TestCheckHard:
    def test_feasible_placement_clean(self, sample_instance):
        assert check_hard(feasible_placement(sample_instance), sample_instance) == []

    def test_solved_fixture_clean(self, sample_instance, solved):
        _, timetable, _ = solved
        assert check_hard(timetable, sample_instance) == []

    def test_room_clash(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        sid = courses["CS101"].sessions[0]
        tt.placements[sid] = (slots["t1"], rooms["r1"])  # CS202 lect. sits there
        kinds = {v.kind for v in check_hard(tt, sample_instance)}
        assert HardViolationKind.ROOM_CLASH in kinds

    def test_lab_room_violation(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        lab = courses["CS202"].sessions[1]
        tt.placements[lab] = (slots["t5"], rooms["r1"])
        violations = check_hard(tt, sample_instance)
        assert any(v.kind is HardViolationKind.LAB_ROOM for v in violations)

    def test_curriculum_clash(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        # M271 lecture is also at t3; lab2 is free there
        tt.placements[courses["CS202"].sessions[0]] = (slots["t3"], rooms["lab2"])
        violations = check_hard(tt, sample_instance)
        assert [v.kind for v in violations] == [HardViolationKind.CURRICULUM_CLASH]

    def test_course_overlap(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        lec, lab = courses["CS101"].sessions
        tt.placements[lab] = (tt.placements[lec][0], rooms["lab1"])
        violations = check_hard(tt, sample_instance)
        assert any(v.kind is HardViolationKind.COURSE_OVERLAP for v in violations)

    def test_teacher_clash(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        # I2 teaches both CS202 and CS402 lectures; park both at t5 apart
        tt.placements[courses["CS202"].sessions[0]] = (slots["t5"], rooms["r1"])
        tt.placements[courses["CS402"].sessions[0]] = (slots["t5"], rooms["lab1"])
        violations = check_hard(tt, sample_instance)
        assert [v.kind for v in violations] == [HardViolationKind.TEACHER_CLASH]

    def test_violation_order(self, sample_instance):
        # room clashes first, then each same-slot pair's course overlap or
        # curriculum clash and its teacher clash, then lab rooms
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        moves = {
            ("CS101", 1): ("t5", "r2"), ("CS202", 0): ("t5", "r1"),
            ("CS202", 1): ("t3", "lab2"), ("CS305", 0): ("t1", "r1"),
            ("CS402", 0): ("t5", "lab1"), ("CS408", 1): ("t1", "lab1"),
        }
        for (label, idx), (t, r) in moves.items():
            tt.placements[courses[label].sessions[idx]] = (slots[t], rooms[r])
        K = HardViolationKind
        assert [(v.kind, v.detail) for v in check_hard(tt, sample_instance)] == [
            (K.ROOM_CLASH, "CS101 lect. and CS101 lab both in r2 at t5"),
            (K.ROOM_CLASH, "CS402 lab and CS408 lab both in lab1 at t1"),
            (K.COURSE_OVERLAP, "CS101 lect. and CS101 lab of the same course both at t5"),
            (K.TEACHER_CLASH, "CS202 lect. and CS402 lect. share staff 'I2' and meet at t5"),
            (K.CURRICULUM_CLASH, "CS202 lab and M271 lect. share a curriculum and meet at t3"),
            (K.CURRICULUM_CLASH, "CS304 lect. and CS305 lect. share a curriculum and meet at t1"),
            (K.TEACHER_CLASH, "CS304 lect. and CS305 lect. share staff 'I4' and meet at t1"),
            (K.CURRICULUM_CLASH, "CS402 lab and CS408 lab share a curriculum and meet at t1"),
            (K.LAB_ROOM, "CS101 lab placed in non-lab room r2"),
        ]


class TestComputeCost:
    def test_registration_clash_entry(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        # co-schedule the CS101 and M271 lectures at t3 (lab2 is free there)
        tt.placements[courses["CS101"].sessions[0]] = (slots["t3"], rooms["lab2"])
        report = compute_cost(tt, sample_instance, EncodeOptions(weighted=True))
        reg = [e for e in report.entries
               if e.kind is SoftViolationKind.REGISTRATION_CLASH]
        assert any(e.weight == 20 and "CS101" in e.detail and "M271" in e.detail
                   for e in reg)

    def test_unavailability_entry(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        # t2 is forbidden for the CS101 lecture; r2 is free there
        tt.placements[courses["CS101"].sessions[0]] = (slots["t2"], rooms["r2"])
        report = compute_cost(tt, sample_instance, EncodeOptions(weighted=True))
        hits = [e for e in report.entries if e.kind is SoftViolationKind.UNAVAILABILITY]
        assert any("CS101" in e.detail and e.weight == 10 for e in hits)

    def test_capacity_entry_weight_is_overflow(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        cs402_lec = courses["CS402"].sessions[0]  # 60 students
        tt.placements[cs402_lec] = (slots["t5"], rooms["r1"])  # capacity 50
        report = compute_cost(tt, sample_instance, EncodeOptions(weighted=True))
        hits = [e for e in report.entries
                if e.kind is SoftViolationKind.CAPACITY_OVERFLOW and "CS402" in e.detail]
        assert hits and hits[0].weight == 10

    def test_total_is_sum(self, sample_instance):
        report = compute_cost(feasible_placement(sample_instance), sample_instance,
                              EncodeOptions(weighted=True))
        assert report.total_cost == sum(e.weight for e in report.entries)

    def test_oracle_agreement_with_solver(self, sample_instance, solved):
        result, timetable, _ = solved
        report = compute_cost(timetable, sample_instance, EncodeOptions(weighted=True))
        assert report.total_cost == result.cost


class TestRender:
    def test_text_grid_shape(self, sample_instance, solved):
        _, timetable, _ = solved
        text = render_timetable(timetable, sample_instance, "text")
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per room
        assert lines[0].split()[:2] == ["room", "t1"]

    def test_csv_round_trip(self, sample_instance, solved):
        _, timetable, _ = solved
        text = render_timetable(timetable, sample_instance, "csv")
        parsed = parse_timetable_csv(text, sample_instance)
        assert parsed.placements == timetable.placements

    def test_csv_header(self, sample_instance):
        text = render_timetable(feasible_placement(sample_instance), sample_instance, "csv")
        assert text.splitlines()[0] == "room,t1,t2,t3,t4,t5"

    def test_empty_placements_render(self, sample_instance):
        text = render_timetable(Timetable({}), sample_instance, "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert all(line.count(",") == 5 for line in lines)

    def test_unknown_format(self, sample_instance):
        with pytest.raises(TimetableFormatError):
            render_timetable(Timetable({}), sample_instance, "html")

    def test_parse_rejects_unknown_session(self, sample_instance):
        text = render_timetable(feasible_placement(sample_instance), sample_instance, "csv")
        with pytest.raises(TimetableFormatError, match="unknown session"):
            parse_timetable_csv(text.replace("CS101 lect.", "CS999 lect."), sample_instance)

    @pytest.mark.parametrize("text, message", [
        ("o 3\n", "no timetable grid found (header row starts with 'room')"),
        ("room\n", "header must list at least one timeslot"),
        ("room,t1,t9\n", "unknown timeslot 't9' in header"),
        ("room,t1\nr9,CS101 lect.\n", "unknown room 'r9'"),
        ("room,t1\nr1,,CS101 lect.\n", "row 'r1' has too many columns"),
        ("room,t1,t2\nr1,CS101 lect.,CS101 lect.\n",
         "session 'CS101 lect.' appears more than once"),
    ], ids=["no-grid", "no-timeslot", "unknown-timeslot", "unknown-room", "too-many-columns",
            "session-twice"])
    def test_parse_input_error(self, sample_instance, text, message):
        with pytest.raises(TimetableFormatError) as exc:
            parse_timetable_csv(text, sample_instance)
        assert str(exc.value) == message

    def test_parse_rejects_missing_session(self, sample_instance):
        text = render_timetable(feasible_placement(sample_instance), sample_instance, "csv")
        with pytest.raises(TimetableFormatError, match="not total"):
            parse_timetable_csv(text.replace("CS101 lect.", ""), sample_instance)

    def test_double_booked_cell_round_trips(self, sample_instance):
        tt = feasible_placement(sample_instance)
        courses, slots, rooms = label_maps(sample_instance)
        a = courses["CS101"].sessions[0]
        b = courses["CS202"].sessions[0]
        tt.placements[a] = tt.placements[b]
        text = render_timetable(tt, sample_instance, "csv")
        assert "+" in text
        parsed = parse_timetable_csv(text, sample_instance)
        assert parsed.placements[a] == parsed.placements[b]

    def test_csv_round_trip_of_a_label_with_plus(self, sample_instance, sample_json):
        # "C++ lect." names one session: its cell is not split at the "+"
        instance = parse_instance(sample_json.replace('"CS101"', '"C++"'))
        timetable = feasible_placement(sample_instance)
        text = render_timetable(timetable, instance, "csv")
        assert "C++ lect." in text
        assert parse_timetable_csv(text, instance).placements == timetable.placements

    def test_double_booked_cell_with_a_label_holding_plus(self, sample_instance, sample_json):
        # the cell "C++ lect. + CS202 lect." holds two sessions
        instance = parse_instance(sample_json.replace('"CS101"', '"C++"'))
        timetable = feasible_placement(sample_instance)
        courses, _, _ = label_maps(instance)
        a = courses["C++"].sessions[0]
        b = courses["CS202"].sessions[0]
        timetable.placements[a] = timetable.placements[b]
        text = render_timetable(timetable, instance, "csv")
        assert "C++ lect. + CS202 lect." in text
        parsed = parse_timetable_csv(text, instance)
        assert parsed.placements == timetable.placements
        kinds = [v.kind for v in check_hard(parsed, instance)]
        assert kinds.count(HardViolationKind.ROOM_CLASH) == 1
