import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import OVERLOADED_COUNTS
from ttsat.model import (
    ParseError,
    SessionKind,
    cross_curriculum_pairs,
    gen_random_instance,
    instance_from_doc,
    parse_instance,
    serialize_instance,
    validate_instance,
    validation_errors,
)
from ttsat.sample import sample_text


def doc_of(sample_json):
    return json.loads(sample_json)


def add_empty_day(doc):
    doc["days"].append("d9")


def add_empty_curriculum(doc):
    doc["curricula"].append("k9")


def drop_lab_rooms(doc):
    for r in doc["rooms"]:
        r["lab"] = False


def drop_courses(doc):
    doc["courses"], doc["curricula"], doc["registrations"] = [], [], []


# the rules the parser alone checks once every reference has resolved
RESOLVED_RULES = [
    pytest.param(add_empty_day, "day 'd9' owns no timeslots", id="empty-day"),
    pytest.param(add_empty_curriculum, "curriculum 'k9' contains no courses",
                 id="empty-curriculum"),
    pytest.param(drop_lab_rooms, "session 'CS101/lab' is a lab but no lab room exists",
                 id="lab-without-lab-room"),
    pytest.param(drop_courses, "instance has no sessions to schedule", id="no-courses"),
]


def set_in(path, value):
    """A change that sets the value at ``path`` in a document and returns it."""
    def change(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        return doc
    return change


def drop_key(key):
    """A change that deletes a top-level key of a document and returns it."""
    def change(doc):
        del doc[key]
        return doc
    return change


def forbid_number_named_like_a_timeslot(doc):
    """Forbid the number 1 next to a timeslot labelled "1", which it must not name."""
    doc["timeslots"].append({"label": "1", "day": "d1"})
    doc["courses"][0]["second"]["forbidden"] = [1]
    return doc


# input errors raised while the document is read, each with its message
INPUT_ERRORS = [
    pytest.param(lambda doc: [doc], "instance: expected an object", id="not-an-object"),
    pytest.param(drop_key("rooms"), "instance: missing key 'rooms'", id="missing-key"),
    pytest.param(set_in(["days"], "d1"), "instance: key 'days' has the wrong type",
                 id="wrong-type"),
    pytest.param(set_in(["days"], []), "at least one day is required", id="no-day"),
    pytest.param(set_in(["days", 1], 1), "day #1: label must be a string",
                 id="numeric-day-label"),
    pytest.param(set_in(["staff", 0], None), "staff #0: label must be a string",
                 id="null-staff-label"),
    pytest.param(set_in(["curricula", 2], ["k3"]), "curriculum #2: label must be a string",
                 id="list-curriculum-label"),
    pytest.param(set_in(["timeslots"], []), "at least one timeslot is required",
                 id="no-timeslot"),
    pytest.param(set_in(["rooms", 0, "capacity"], -1),
                 "room 'r1': capacity must be nonnegative", id="negative-capacity"),
    pytest.param(set_in(["courses", 0, "lecture", "enrollment"], -1),
                 "course 'CS101' lecture: enrollment must be nonnegative",
                 id="negative-enrollment"),
    pytest.param(set_in(["courses", 0, "second", "forbidden"], ["t9"]),
                 "course 'CS101' second session: unknown forbidden timeslot 't9'",
                 id="unknown-forbidden-timeslot"),
    pytest.param(forbid_number_named_like_a_timeslot,
                 "course 'CS101' second session: unknown forbidden timeslot '1'",
                 id="numeric-forbidden-timeslot"),
    pytest.param(set_in(["courses", 0, "curriculum"], "k9"),
                 "course 'CS101' references unknown curriculum 'k9'",
                 id="unknown-curriculum"),
    pytest.param(set_in(["registrations", 0, "students"], 0),
                 "registration #0: students must be positive", id="no-students"),
]


def node_paths(node, path=()):
    """The path to every node of a decoded JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, (*path, key))


def label_lists(instance):
    return [
        [d.label for d in instance.days],
        [t.label for t in instance.timeslots],
        [r.label for r in instance.rooms],
        [p.label for p in instance.staff],
        [k.label for k in instance.curricula],
        [c.label for c in instance.courses],
    ]


def doc_label_lists(doc):
    return [
        doc["days"],
        [t["label"] for t in doc["timeslots"]],
        [r["label"] for r in doc["rooms"]],
        doc["staff"],
        doc["curricula"],
        [c["label"] for c in doc["courses"]],
    ]


# the sample plus a staff member that no session names, so that a label
# no reference resolves is among the nodes replaced
FUZZ_DOC = json.loads(sample_text())
FUZZ_DOC["staff"].append("TA8")
JSON_VALUES = [None, True, False, 0, 1, -1, 1.5, "", "1", "t1", [], {}, [1], [[1]], ["t1"],
               {"label": "x"}]


class TestParse:
    @pytest.mark.parametrize("breaks, message", INPUT_ERRORS)
    def test_input_error(self, sample_json, breaks, message):
        doc = breaks(doc_of(sample_json))
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == message

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(list(node_paths(FUZZ_DOC))), st.sampled_from(JSON_VALUES))
    @example(("staff", 12), 1)
    def test_any_node_replaced(self, path, value):
        # one node swapped for any JSON value: an input error, or an
        # instance whose labels are the document's own strings
        doc = set_in(path, value)(copy.deepcopy(FUZZ_DOC)) if path else value
        try:
            instance = instance_from_doc(doc)
        except ParseError:
            return
        labels = label_lists(instance)
        assert labels == doc_label_lists(doc)
        assert all(type(label) is str for group in labels for label in group)

    def test_lab_and_forbidden_are_optional(self, sample_json):
        doc = doc_of(sample_json)
        for room in doc["rooms"]:
            if not room["lab"]:
                del room["lab"]
        for course in doc["courses"]:
            for session in (course["lecture"], course["second"]):
                del session["forbidden"]
        instance = parse_instance(json.dumps(doc))
        assert [r.is_lab for r in instance.rooms] == [False, False, True, True]
        assert all(not s.forbidden_timeslots for s in instance.sessions)

    def test_sample_counts(self, sample_instance):
        i = sample_instance
        assert len(i.days) == 3
        assert len(i.timeslots) == 5
        assert len(i.rooms) == 4
        assert len(i.courses) == 7
        assert len(i.curricula) == 4
        assert len(i.sessions) == 14
        assert len(i.staff) == 12

    def test_sample_structure(self, sample_instance):
        i = sample_instance
        m271 = next(c for c in i.courses if c.label == "M271")
        kinds = {i.sessions[s].kind for s in m271.sessions}
        assert kinds == {SessionKind.LECTURE, SessionKind.SECTION}
        cs101 = next(c for c in i.courses if c.label == "CS101")
        lec = i.sessions[cs101.sessions[0]]
        assert lec.enrollment == 75
        assert {i.timeslots[t].label for t in lec.forbidden_timeslots} == {"t1", "t2"}

    def test_zero_rooms(self, sample_json):
        doc = doc_of(sample_json)
        doc["rooms"] = []
        with pytest.raises(ParseError, match="at least one room"):
            parse_instance(json.dumps(doc))

    def test_timeslot_with_missing_day(self, sample_json):
        doc = doc_of(sample_json)
        doc["timeslots"][0]["day"] = "d9"
        with pytest.raises(ParseError, match="unknown day 'd9'"):
            parse_instance(json.dumps(doc))

    def test_duplicate_label(self, sample_json):
        doc = doc_of(sample_json)
        doc["rooms"][1]["label"] = "r1"
        with pytest.raises(ParseError, match="duplicate room label 'r1'"):
            parse_instance(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            parse_instance('{"days": [,]}')

    def test_registration_needs_two_courses(self, sample_json):
        doc = doc_of(sample_json)
        doc["registrations"].append({"courses": ["CS101"], "students": 5})
        with pytest.raises(ParseError, match="two distinct courses"):
            parse_instance(json.dumps(doc))

    def test_unknown_registration_course(self, sample_json):
        doc = doc_of(sample_json)
        doc["registrations"][0]["courses"] = ["CS101", "NOPE"]
        with pytest.raises(ParseError, match="unknown course 'NOPE'"):
            parse_instance(json.dumps(doc))

    def test_unknown_staff(self, sample_json):
        doc = doc_of(sample_json)
        doc["courses"][0]["lecture"]["staff"] = "ghost"
        with pytest.raises(ParseError, match="unknown staff 'ghost'"):
            parse_instance(json.dumps(doc))

    def test_bad_second_kind(self, sample_json):
        doc = doc_of(sample_json)
        doc["courses"][0]["second"]["kind"] = "seminar"
        with pytest.raises(ParseError, match="'section' or 'lab'"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("breaks, message", RESOLVED_RULES)
    def test_resolved_rule(self, sample_json, breaks, message):
        doc = doc_of(sample_json)
        breaks(doc)
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == message

    def test_resolved_rules_reported_together(self, sample_json):
        doc = doc_of(sample_json)
        add_empty_day(doc)
        add_empty_curriculum(doc)
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(doc))
        assert str(exc.value) == (
            "day 'd9' owns no timeslots; curriculum 'k9' contains no courses"
        )


class TestValidate:
    def test_sample_has_no_findings_at_error_level(self, sample_instance):
        assert validation_errors(validate_instance(sample_instance)) == []

    def test_pigeonhole_warning(self, sample_json):
        # move every course into one curriculum: 14 sessions vs 5 slots
        doc = doc_of(sample_json)
        for c in doc["courses"]:
            c["curriculum"] = "k1"
        doc["curricula"] = ["k1"]
        instance = parse_instance(json.dumps(doc))
        warnings = [f.message for f in validate_instance(instance) if f.level == "warning"]
        assert any("needs 14 distinct timeslots, only 5 exist" in w for w in warnings)

    def test_all_forbidden_warning(self, sample_json):
        doc = doc_of(sample_json)
        doc["courses"][0]["lecture"]["forbidden"] = ["t1", "t2", "t3", "t4", "t5"]
        instance = parse_instance(json.dumps(doc))
        warnings = [f.message for f in validate_instance(instance) if f.level == "warning"]
        assert any("all timeslots are soft-forbidden" in w for w in warnings)

    @pytest.mark.parametrize("name", OVERLOADED_COUNTS)
    def test_count_warning(self, name):
        doc, message = OVERLOADED_COUNTS[name]
        findings = validate_instance(parse_instance(json.dumps(doc)))
        assert [(f.level, f.message) for f in findings] == [("warning", message)]

    def test_single_timeslot_warning_not_error(self, sample_json):
        doc = doc_of(sample_json)
        doc["days"] = ["d1"]
        doc["timeslots"] = [{"label": "t1", "day": "d1"}]
        for c in doc["courses"]:
            c["lecture"]["forbidden"] = []
            c["second"]["forbidden"] = []
        instance = parse_instance(json.dumps(doc))
        findings = validate_instance(instance)
        assert validation_errors(findings) == []
        assert any("only 1 exist" in f.message for f in findings)


class TestSerialize:
    def test_parse_serialize_parse_idempotent(self, sample_json, sample_instance):
        text = serialize_instance(sample_instance)
        again = parse_instance(text)
        assert again == sample_instance
        assert serialize_instance(again) == text

    def test_generated_round_trip(self):
        instance = gen_random_instance(11, days=3, slots_per_day=2, rooms=3,
                                       courses=5, curricula=3, overlap_density=0.7)
        assert parse_instance(serialize_instance(instance)) == instance


class TestPartition:
    def test_curricula_partition_courses(self, sample_instance):
        seen = []
        for k in sample_instance.curricula:
            seen.extend(k.courses)
        assert sorted(seen) == [c.id for c in sample_instance.courses]

    def test_cross_curriculum_pairs_aggregate(self, sample_instance):
        pairs = cross_curriculum_pairs(sample_instance)
        by_label = {
            tuple(sorted((sample_instance.courses[a].label, sample_instance.courses[b].label))): w
            for (a, b), w in pairs.items()
        }
        assert by_label == {
            ("CS101", "M271"): 20,
            ("CS305", "M271"): 15,
            ("CS408", "M271"): 5,
            ("CS304", "CS402"): 10,
        }


class TestGenerator:
    PARAMS = dict(days=2, slots_per_day=2, rooms=2, courses=3, curricula=2,
                  overlap_density=0.5)

    def test_deterministic_per_seed(self):
        a = gen_random_instance(1, **self.PARAMS)
        b = gen_random_instance(1, **self.PARAMS)
        assert serialize_instance(a) == serialize_instance(b)

    def test_seed_sensitivity(self):
        a = gen_random_instance(1, **self.PARAMS)
        b = gen_random_instance(2, **self.PARAMS)
        assert serialize_instance(a) != serialize_instance(b)
        assert validation_errors(validate_instance(b)) == []

    def test_zero_density_means_no_groups(self):
        inst = gen_random_instance(5, days=2, slots_per_day=2, rooms=2,
                                   courses=4, curricula=2, overlap_density=0.0)
        assert inst.registration_groups == ()

    def test_always_validates_clean(self):
        for seed in range(40):
            inst = gen_random_instance(seed, days=2, slots_per_day=2, rooms=2,
                                       courses=4, curricula=2, overlap_density=0.6)
            assert validation_errors(validate_instance(inst)) == [], f"seed {seed}"

    def test_infeasible_params(self):
        with pytest.raises(ValueError, match="must not exceed"):
            gen_random_instance(0, days=1, slots_per_day=1, rooms=1,
                                courses=2, curricula=3, overlap_density=0.5)
        with pytest.raises(ValueError, match="positive"):
            gen_random_instance(0, days=0, slots_per_day=1, rooms=1,
                                courses=1, curricula=1, overlap_density=0.5)
        with pytest.raises(ValueError, match="overlap_density"):
            gen_random_instance(0, days=1, slots_per_day=2, rooms=1,
                                courses=1, curricula=1, overlap_density=1.5)
