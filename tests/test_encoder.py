import hashlib
import itertools
import json

import pytest

from helpers import all_placements, assignment_for_placement, semantic_optimum
from ttsat.cnf import write_dimacs
from ttsat.decode import check_hard, compute_cost
from ttsat.encoder import (
    EncodeError,
    EncodeOptions,
    VarMap,
    encode,
    link_ct_cd,
    link_ct_kt,
    meeting_count,
    registration_clashes,
    room_assignment,
    room_capacity,
    room_clashes,
    teacher_clashes,
    timeslot_unavailability,
)
from ttsat.model import gen_random_instance, parse_instance
from ttsat.solver import solve_maxsat, solve_sat


def by_label(instance):
    courses = {c.label: c for c in instance.courses}
    slots = {t.label: t.id for t in instance.timeslots}
    rooms = {r.label: r.id for r in instance.rooms}
    return courses, slots, rooms


class TestVarMap:
    def test_base_variable_count(self, sample_weighted):
        formula, varmap, _ = sample_weighted
        # |S|*|T| + |S|*|D| + |S|*|R| + |K|*|T| = 14*5 + 14*3 + 14*4 + 4*5
        assert varmap.base_num_vars == 14 * 5 + 14 * 3 + 14 * 4 + 4 * 5 == 188
        # pairwise exactly-one allocates no auxiliaries on this instance
        assert formula.num_vars == 188

    def test_explain_ct(self, sample_instance):
        vm = VarMap(sample_instance)
        cs101_lec = sample_instance.courses[0].sessions[0]
        assert vm.explain(vm.ct(cs101_lec, 0)) == "ct(CS101/lecture, t1)"

    def test_explain_aux_names_origin(self, sample_instance):
        vm = VarMap(sample_instance)
        aux = vm.new_aux("room_assignment/CS202/lab/totalizer")
        assert vm.explain(aux) == "aux(room_assignment/CS202/lab/totalizer #1)"

    def test_explain_out_of_range(self, sample_instance):
        vm = VarMap(sample_instance)
        with pytest.raises(EncodeError, match="out of range"):
            vm.explain(vm.num_vars + 1)

    def test_injective_over_all_vars(self, sample_weighted):
        _, vm, _ = sample_weighted
        descriptions = {vm.explain(v) for v in range(1, vm.num_vars + 1)}
        assert len(descriptions) == vm.num_vars


class TestLinkFamilies:
    def test_ct_cd_for_one_session(self, sample_instance):
        vm = VarMap(sample_instance)
        cs101_lec = sample_instance.courses[0].sessions[0]
        clauses = link_ct_cd(sample_instance, cs101_lec, vm)
        assert len(clauses) == 5 + 3
        lits = {c.literals for c in clauses}
        assert (-vm.ct(cs101_lec, 0), vm.cd(cs101_lec, 0)) in lits
        # day d3 owns only t5
        assert (-vm.cd(cs101_lec, 2), vm.ct(cs101_lec, 4)) in lits

    def test_ct_cd_family_total(self, sample_weighted):
        _, _, families = sample_weighted
        assert len(families["link_ct_cd"]) == 14 * (5 + 3) == 112

    def test_ct_kt_counts(self, sample_instance, sample_weighted):
        vm = VarMap(sample_instance)
        clauses = link_ct_kt(sample_instance, vm)
        assert len(clauses) == 14 * 5 + 4 * 5 == 90
        forward = [c for c in clauses if len(c.literals) == 2]
        assert len(forward) == 70
        _, _, families = sample_weighted
        assert len(families["link_ct_kt"]) == 90

    def test_ct_kt_forward_form(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = link_ct_kt(sample_instance, vm)
        cs101_lec = sample_instance.courses[0].sessions[0]
        lits = {c.literals for c in clauses}
        for t in range(5):
            assert (-vm.ct(cs101_lec, t), vm.kt(0, t)) in lits


class TestClashFamilies:
    def test_curriculum_pair_clauses(self, sample_instance, sample_weighted):
        _, vm, families = sample_weighted
        courses, _, _ = by_label(sample_instance)
        cs202_lec = courses["CS202"].sessions[0]
        m271_lec = courses["M271"].sessions[0]
        formula = sample_weighted[0]
        cur_clauses = {formula.clauses[i].literals for i in families["curriculum_clashes"]}
        for t in range(5):
            assert (-vm.ct(cs202_lec, t), -vm.ct(m271_lec, t)) in cur_clauses
        # 19 same-curriculum session pairs, 5 slots each
        assert len(families["curriculum_clashes"]) == 19 * 5 == 95

    def test_own_course_sibling_pair_clashes(self, sample_instance, sample_weighted):
        formula, vm, families = sample_weighted
        courses, _, _ = by_label(sample_instance)
        lec, lab = courses["CS101"].sessions
        cur_clauses = {formula.clauses[i].literals for i in families["curriculum_clashes"]}
        assert sum(
            1 for t in range(5) if (-vm.ct(lec, t), -vm.ct(lab, t)) in cur_clauses
        ) == 5

    def test_teacher_clashes_standalone(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = teacher_clashes(sample_instance, vm)
        courses, _, _ = by_label(sample_instance)
        cs202_lec = courses["CS202"].sessions[0]
        cs402_lec = courses["CS402"].sessions[0]
        assert len(clauses) == 5
        assert {c.literals for c in clauses} == {
            (-vm.ct(cs202_lec, t), -vm.ct(cs402_lec, t)) for t in range(5)
        }

    def test_shared_pair_tagged_in_both_families(self, sample_weighted):
        formula, _, families = sample_weighted
        cur = set(families["curriculum_clashes"])
        teach = set(families["teacher_clashes"])
        shared = cur & teach
        # the two same-staff lectures share a curriculum: 5 shared clauses
        assert len(shared) == 5
        assert len(teach) == 10
        # shared clauses appear once in the formula
        assert len(formula.clauses) == len({id(c) for c in formula.clauses})

    def test_three_sessions_one_teacher(self):
        text = json.dumps({
            "days": ["d1"], "timeslots": [{"label": "t1", "day": "d1"},
                                          {"label": "t2", "day": "d1"}],
            "rooms": [{"label": "r1", "capacity": 10, "lab": False}],
            "staff": ["p", "q"],
            "curricula": ["k1", "k2", "k3"],
            "courses": [
                {"label": f"c{i}", "curriculum": f"k{i}",
                 "lecture": {"staff": "p", "enrollment": 5, "forbidden": []},
                 "second": {"kind": "section", "staff": "q", "enrollment": 5, "forbidden": []}}
                for i in (1, 2, 3)
            ],
            "registrations": [],
        })
        instance = parse_instance(text)
        vm = VarMap(instance)
        lec_pairs = teacher_clashes(instance, vm)
        # staff p: 3 lectures -> C(3,2) pairs; staff q: 3 seconds -> 3 pairs; 2 slots
        assert len(lec_pairs) == 6 * 2

    def test_room_clash_count_and_shape(self, sample_instance, sample_weighted):
        formula, vm, families = sample_weighted
        assert len(families["room_clashes"]) == 4 * 5 * (14 * 13 // 2) == 1820
        courses, _, rooms = by_label(sample_instance)
        cs101_lec = courses["CS101"].sessions[0]
        cs202_lec = courses["CS202"].sessions[0]
        family = {formula.clauses[i].literals for i in families["room_clashes"]}
        assert (
            -vm.ct(cs101_lec, 0), -vm.ct(cs202_lec, 0),
            -vm.cr(cs101_lec, rooms["r1"]), -vm.cr(cs202_lec, rooms["r1"]),
        ) in family

    def test_minimal_instance_room_clash_count(self):
        inst = gen_random_instance(0, days=1, slots_per_day=2, rooms=1,
                                   courses=1, curricula=1, overlap_density=0)
        vm = VarMap(inst)
        # one course = one session pair: |R| * |T| * 1
        clauses = room_clashes(inst, vm)
        assert len(clauses) == 1 * 2 * 1


class TestSoftFamilies:
    def test_registration_covers_exactly_four_pairs(self, sample_instance):
        vm = VarMap(sample_instance)
        opts = EncodeOptions(weighted=True)
        clauses = registration_clashes(sample_instance, vm, opts)
        # 4 cross-curriculum course pairs x 2x2 session pairs x 5 slots
        assert len(clauses) == 4 * 4 * 5 == 80
        assert sorted({c.weight for c in clauses}) == [5, 10, 15, 20]

    def test_registration_weight_for_specific_pair(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = registration_clashes(sample_instance, vm, EncodeOptions(weighted=True))
        courses, _, _ = by_label(sample_instance)
        cs101_lec = courses["CS101"].sessions[0]
        m271_lec = courses["M271"].sessions[0]
        hits = [
            c for c in clauses
            if c.literals == (-vm.ct(cs101_lec, 0), -vm.ct(m271_lec, 0))
        ]
        assert len(hits) == 1 and hits[0].weight == 20

    def test_same_curriculum_group_emits_nothing(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = registration_clashes(sample_instance, vm, EncodeOptions(weighted=True))
        courses, _, _ = by_label(sample_instance)
        m271 = set(courses["M271"].sessions)
        cs202 = set(courses["CS202"].sessions)
        for c in clauses:
            touched = {abs(l) for l in c.literals}
            assert not any(
                vm.ct(a, t) in touched and vm.ct(b, t) in touched
                for a in m271 for b in cs202 for t in range(5)
            )

    def test_three_course_group_expands_pairwise(self):
        text = json.dumps({
            "days": ["d1"], "timeslots": [{"label": "t1", "day": "d1"},
                                          {"label": "t2", "day": "d1"}],
            "rooms": [{"label": "r1", "capacity": 99, "lab": False}],
            "staff": ["p1", "p2", "p3"],
            "curricula": ["k1", "k2", "k3"],
            "courses": [
                {"label": f"c{i}", "curriculum": f"k{i}",
                 "lecture": {"staff": f"p{i}", "enrollment": 5, "forbidden": []},
                 "second": {"kind": "section", "staff": f"p{i}", "enrollment": 5, "forbidden": []}}
                for i in (1, 2, 3)
            ],
            "registrations": [{"courses": ["c1", "c2", "c3"], "students": 7}],
        })
        instance = parse_instance(text)
        vm = VarMap(instance)
        clauses = registration_clashes(instance, vm, EncodeOptions(weighted=True))
        # 3 pairs x 4 session pairs x 2 slots, all weight 7
        assert len(clauses) == 3 * 4 * 2
        assert {c.weight for c in clauses} == {7}

    def test_unavailability_clauses(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = timeslot_unavailability(sample_instance, vm, EncodeOptions(weighted=True))
        assert len(clauses) == 7
        assert {c.weight for c in clauses} == {10}
        courses, slots, _ = by_label(sample_instance)
        cs101_lec = courses["CS101"].sessions[0]
        lits = {c.literals for c in clauses}
        assert (-vm.ct(cs101_lec, slots["t1"]),) in lits
        assert (-vm.ct(cs101_lec, slots["t2"]),) in lits
        # the course table governs: CS202 lecture is forbidden t5
        cs202_lec = courses["CS202"].sessions[0]
        assert (-vm.ct(cs202_lec, slots["t5"]),) in lits
        assert (-vm.ct(cs202_lec, slots["t4"]),) not in lits

    def test_capacity_clauses(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = room_capacity(sample_instance, vm, EncodeOptions(weighted=True))
        # 6 courses with 51+ students x 2 sessions x 2 small rooms
        assert len(clauses) == 24
        courses, _, rooms = by_label(sample_instance)
        for sid in courses["M271"].sessions:
            pair = [c for c in clauses
                    if c.literals in {(-vm.cr(sid, rooms["r1"]),), (-vm.cr(sid, rooms["lab1"]),)}]
            assert len(pair) == 2
            assert all(c.weight == 90 - 50 for c in pair)

    def test_capacity_unit_example(self):
        # 60 students into a 50-seat room costs 10
        opts = EncodeOptions(weighted=True)
        assert opts.capacity_weight(60 - 50) == 10



class TestRoomAssignment:
    def test_lab_session_restricted_to_labs(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = room_assignment(sample_instance, vm)
        courses, _, rooms = by_label(sample_instance)
        cs202_lab = courses["CS202"].sessions[1]
        lits = {c.literals for c in clauses}
        assert (vm.cr(cs202_lab, rooms["lab1"]), vm.cr(cs202_lab, rooms["lab2"])) in lits
        assert (-vm.cr(cs202_lab, rooms["lab1"]), -vm.cr(cs202_lab, rooms["lab2"])) in lits
        assert (-vm.cr(cs202_lab, rooms["r1"]),) in lits
        assert (-vm.cr(cs202_lab, rooms["r2"]),) in lits

    def test_section_session_eligible_everywhere(self, sample_instance):
        vm = VarMap(sample_instance)
        clauses = room_assignment(sample_instance, vm)
        courses, _, _ = by_label(sample_instance)
        m271_sec = courses["M271"].sessions[1]
        lits = {c.literals for c in clauses}
        assert tuple(vm.cr(m271_sec, r) for r in range(4)) in lits

    def test_single_room_forces_unit(self):
        inst = gen_random_instance(3, days=1, slots_per_day=2, rooms=1,
                                   courses=1, curricula=1, overlap_density=0)
        vm = VarMap(inst)
        clauses = room_assignment(inst, vm)
        assert all(len(c.literals) == 1 and c.literals[0] > 0 for c in clauses)

    def test_lab_without_lab_room_raises(self, sample_json):
        doc = json.loads(sample_json)
        for r in doc["rooms"]:
            r["lab"] = False
        instance = parse_instance(json.dumps(doc))
        vm = VarMap(instance)
        with pytest.raises(EncodeError, match="no lab room"):
            room_assignment(instance, vm)


class TestMeetingCount:
    def test_course_level_slot_pairs(self, sample_instance):
        # one course's two sessions over 5 slots: exactly-one per session plus
        # the sibling clash admits 20 ordered placements, i.e. C(5,2) = 10
        # unordered course-level slot sets
        text = json.dumps({
            "days": ["d1"],
            "timeslots": [{"label": f"t{i}", "day": "d1"} for i in range(1, 6)],
            "rooms": [{"label": "r1", "capacity": 99, "lab": False}],
            "staff": ["p", "q"],
            "curricula": ["k1"],
            "courses": [{
                "label": "c1", "curriculum": "k1",
                "lecture": {"staff": "p", "enrollment": 5, "forbidden": []},
                "second": {"kind": "section", "staff": "q", "enrollment": 5, "forbidden": []},
            }],
            "registrations": [],
        })
        instance = parse_instance(text)
        vm = VarMap(instance)
        clauses = [c.literals for c in meeting_count(instance, vm)]
        s1, s2 = instance.courses[0].sessions
        for t in range(5):
            clauses.append((-vm.ct(s1, t), -vm.ct(s2, t)))
        models = []
        for bits in itertools.product((False, True), repeat=10):
            assignment = {}
            for t in range(5):
                assignment[vm.ct(s1, t)] = bits[t]
                assignment[vm.ct(s2, t)] = bits[5 + t]
            if all(any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses):
                models.append(bits)
        assert len(models) == 20
        course_slot_sets = {
            frozenset(t for t in range(5) if bits[t] or bits[5 + t]) for bits in models
        }
        assert len(course_slot_sets) == 10

    def test_two_slots_tight(self):
        inst = gen_random_instance(1, days=1, slots_per_day=2, rooms=2,
                                   courses=1, curricula=1, overlap_density=0)
        formula, vm = encode(inst, EncodeOptions())
        s1, s2 = inst.courses[0].sessions
        res = solve_sat([c.literals for c in formula.hard_clauses])
        assert res.status.value == "sat"
        # sessions forced onto distinct slots
        m = res.model
        assert m[vm.ct(s1, 0)] != m[vm.ct(s2, 0)]

    def test_one_slot_two_sessions_unsat(self, sample_json):
        doc = json.loads(sample_json)
        doc["days"] = ["d1"]
        doc["timeslots"] = [{"label": "t1", "day": "d1"}]
        doc["courses"] = doc["courses"][:1]
        doc["curricula"] = ["k1"]
        doc["registrations"] = []
        doc["courses"][0]["lecture"]["forbidden"] = []
        doc["courses"][0]["second"]["forbidden"] = []
        instance = parse_instance(json.dumps(doc))
        formula, vm = encode(instance, EncodeOptions())
        res = solve_sat([c.literals for c in formula.hard_clauses])
        assert res.status.value == "unsat"


class TestEncodeWhole:
    def test_weighted_and_partial_share_hard_clauses(self, sample_weighted, sample_partial):
        fw = sample_weighted[0]
        fp = sample_partial[0]
        assert [c.literals for c in fw.clauses] == [c.literals for c in fp.clauses]
        assert fw.hard_clauses == fp.hard_clauses
        assert all(c.weight == 1 for c in fp.soft_clauses)

    def test_top_is_soft_sum_plus_one(self, sample_weighted):
        formula = sample_weighted[0]
        assert formula.top == formula.soft_weight_sum + 1 == 1603

    # sha256 of write_dimacs (no comments) and of the explain lines of the
    # bundled sample; any change to the paper encoding's clauses, their
    # order or the variable numbering changes these
    @pytest.mark.parametrize("weighted, dimacs_sha256, explain_sha256", [
        (True, "e2f2a9dacf83745b71bbd1ab77f8553bab0088fb9eec529238132596d05af002",
         "98852d341e64b5174172bf7914c7667b465e0b3e57e5daa9115d7996a5979f14"),
        (False, "2b8eb4403f72dd82e57773d9d5216ef1720eb65f24b34feec9f5267bf6dc90b8",
         "98852d341e64b5174172bf7914c7667b465e0b3e57e5daa9115d7996a5979f14"),
    ])
    def test_paper_encoding_pinned(self, sample_instance, weighted, dimacs_sha256,
                                   explain_sha256):
        formula, vm = encode(sample_instance, EncodeOptions(weighted=weighted))
        explain = "\n".join(vm.explain(v) for v in range(1, vm.num_vars + 1))
        assert hashlib.sha256(write_dimacs(formula).encode()).hexdigest() == dimacs_sha256
        assert hashlib.sha256(explain.encode()).hexdigest() == explain_sha256

    # the sample has 5 timeslots and 4 rooms, so every exactly-one there is
    # pairwise; this instance's 10 timeslots and 9 rooms take the totalizer
    # path, and its single lab room the one-literal unit
    @pytest.mark.parametrize("weighted, dimacs_sha256", [
        (True, "e5bdf1af3a536c435dd4a565c3256b2a5241d26539f48ae4cdc203688536a7fa"),
        (False, "e02a9182070e1f46d6e1f465822ab5524e29d26a45920ce68b6fe9211ca36f7d"),
    ])
    def test_totalizer_encoding_pinned(self, weighted, dimacs_sha256):
        instance = gen_random_instance(11, days=2, slots_per_day=5, rooms=9,
                                       courses=4, curricula=2)
        formula, vm = encode(instance, EncodeOptions(weighted=weighted))
        explain = [vm.explain(v) for v in range(1, vm.num_vars + 1)]
        assert (formula.num_vars, len(formula.clauses)) == (634, 5059)
        aux_families = [line[4:line.index("/")] for line in explain if line.startswith("aux(")]
        assert aux_families.count("meeting_count") == 272
        assert aux_families.count("room_assignment") == 174
        assert len(aux_families) == 446
        assert hashlib.sha256(write_dimacs(formula).encode()).hexdigest() == dimacs_sha256
        assert (hashlib.sha256("\n".join(explain).encode()).hexdigest()
                == "6b901a56ffef7419fd2ae22b728a7f21d6eb2a75e60a8e5d7dbad3865f45384c")

    def test_deterministic_bytes(self, sample_instance):
        first, _ = encode(sample_instance, EncodeOptions(weighted=True))
        second, _ = encode(sample_instance, EncodeOptions(weighted=True))
        assert write_dimacs(first) == write_dimacs(second)

    def test_invalid_instance_rejected(self, sample_json):
        doc = json.loads(sample_json)
        # curriculum with zero courses is a validation error
        doc["curricula"].append("k9")
        instance = parse_instance(json.dumps(doc))
        with pytest.raises(EncodeError, match="invalid"):
            encode(instance)


class TestCostFaithfulness:
    def test_placement_models_match_validator(self):
        instance = gen_random_instance(9, days=2, slots_per_day=2, rooms=2,
                                       courses=2, curricula=2, overlap_density=1.0)
        opts = EncodeOptions(weighted=True)
        formula, vm = encode(instance, opts)
        assert formula.num_vars == vm.base_num_vars  # no auxiliaries
        hard = [c.literals for c in formula.hard_clauses]
        feasible = 0
        for timetable in all_placements(instance):
            assignment = assignment_for_placement(instance, vm, timetable.placements)
            hard_ok = all(any(assignment[abs(l)] == (l > 0) for l in c) for c in hard)
            assert hard_ok == (not check_hard(timetable, instance))
            if hard_ok:
                feasible += 1
                report = compute_cost(timetable, instance, opts)
                assert formula.falsified_weight(assignment) == report.total_cost
        assert feasible > 0

    def test_micro_optimum_matches_semantic_enumeration(self):
        opts = EncodeOptions(weighted=True)
        for seed in (0, 1, 2):
            instance = gen_random_instance(seed, days=2, slots_per_day=2, rooms=2,
                                           courses=2, curricula=2, overlap_density=0.8)
            formula, vm = encode(instance, opts)
            want = semantic_optimum(instance, opts)
            got = solve_maxsat(formula)
            if want is None:
                assert got.status.value == "hard-unsat"
            else:
                assert got.cost == want
