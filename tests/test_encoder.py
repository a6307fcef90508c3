import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_placements,
    assignment_for_placement,
    base_num_vars,
    family_clauses,
    reference_room_clashes,
    semantic_optimum,
    solve_clauses,
)
from ttsat.cardinality import exactly_one
from ttsat.cnf import write_dimacs
from ttsat.decode import check_hard, compute_cost
from ttsat.encoder import (
    EncodeError,
    EncodeOptions,
    VarMap,
    _exactly_one_rows,
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
from ttsat.solver import solve_maxsat


def by_label(instance):
    courses = {c.label: c for c in instance.courses}
    slots = {t.label: t.id for t in instance.timeslots}
    rooms = {r.label: r.id for r in instance.rooms}
    return courses, slots, rooms


class TestVarMap:
    def test_base_variable_count(self, sample_weighted):
        formula, varmap, _ = sample_weighted
        # |S|*|T| + |S|*|D| + |S|*|R| + |K|*|T| = 14*5 + 14*3 + 14*4 + 4*5
        assert base_num_vars(varmap) == 14 * 5 + 14 * 3 + 14 * 4 + 4 * 5 == 188
        # pairwise exactly-one allocates no auxiliaries on this instance
        assert formula.num_vars == 188

    def test_explain_ct(self, sample_instance):
        vm = VarMap(sample_instance)
        cs101_lec = sample_instance.courses[0].sessions[0]
        assert vm.explain(vm.ct(cs101_lec, 0)) == "ct(CS101/lecture, t1)"

    def test_explain_aux_names_origin(self, sample_instance):
        vm = VarMap(sample_instance)
        first = vm.aux_block("room_assignment/CS202/lab/totalizer", 2)
        assert first == base_num_vars(vm) + 1 and vm.num_vars == first + 1
        assert vm.explain(first) == "aux(room_assignment/CS202/lab/totalizer #1)"
        assert vm.explain(first + 1) == "aux(room_assignment/CS202/lab/totalizer #2)"

    def test_aux_block_skips_empty_blocks(self, sample_instance):
        vm = VarMap(sample_instance)
        base = base_num_vars(vm)
        # an empty block allocates nothing and starts where the next one does
        starts = [vm.aux_block(tag, size) for tag, size in [("a", 2), ("b", 0), ("c", 3)]]
        assert starts == [base + 1, base + 3, base + 3]
        assert [vm.explain(v) for v in range(base + 1, vm.num_vars + 1)] == [
            "aux(a #1)", "aux(a #2)", "aux(c #1)", "aux(c #2)", "aux(c #3)"]

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
        own = {vm.ct(cs101_lec, t) for t in range(5)} | {vm.cd(cs101_lec, d) for d in range(3)}
        # each clause opens with a negated variable of the session it links
        lits = {c.literals for c in link_ct_cd(sample_instance, vm) if -c.literals[0] in own}
        assert len(lits) == 5 + 3
        assert {abs(l) for c in lits for l in c} == own
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
        cur_clauses = {c.literals for c in family_clauses(formula, families["curriculum_clashes"])}
        for t in range(5):
            assert (-vm.ct(cs202_lec, t), -vm.ct(m271_lec, t)) in cur_clauses
        # 19 same-curriculum session pairs, 5 slots each
        assert len(families["curriculum_clashes"]) == 19 * 5 == 95

    def test_own_course_sibling_pair_clashes(self, sample_instance, sample_weighted):
        formula, vm, families = sample_weighted
        courses, _, _ = by_label(sample_instance)
        lec, lab = courses["CS101"].sessions
        cur_clauses = {c.literals for c in family_clauses(formula, families["curriculum_clashes"])}
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
        lits = [c.literals for c in formula.clauses]
        assert all(lits.count(c.literals) == 1 for c in family_clauses(formula, shared))

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
        family = {c.literals for c in family_clauses(formula, families["room_clashes"])}
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

    @pytest.mark.parametrize("seed, days, slots, rooms, courses", [
        (0, 2, 3, 3, 4),
        (3, 5, 4, 6, 12),
        (5, 2, 2, 1, 3),  # a single room
        (6, 1, 1, 4, 3),  # a single timeslot
        (7, 1, 1, 1, 2),  # both
        (8, 2, 2, 2, 1),
    ])
    def test_room_clashes_match_reference(self, seed, days, slots, rooms, courses):
        inst = gen_random_instance(seed, days=days, slots_per_day=slots, rooms=rooms,
                                   courses=courses, curricula=1)
        vm = VarMap(inst)
        want = reference_room_clashes(inst, vm)
        got = room_clashes(inst, vm)
        assert len(got) == len(want) == rooms * days * slots * math.comb(2 * courses, 2)
        assert list(got) == want


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


def per_row_exactly_ones(vm, tags, rows):
    """The clauses and aux explain lines of one ``exactly_one`` call per row,
    with one fresh variable per auxiliary, allocated in row order; ``rows``
    lists ``(leaves, exactly)``, the leaves past ``exactly`` taking a
    negative unit each."""
    clauses, explain = [], []
    fresh = itertools.count(vm.num_vars + 1)
    for tag, (leaves, exactly) in zip(tags, rows):
        ordinals = itertools.count(1)

        def alloc():
            explain.append(f"aux({tag} #{next(ordinals)})")
            return next(fresh)

        clauses += exactly_one(leaves[:exactly], alloc)
        clauses += [(-l,) for l in leaves[exactly:]]
    return clauses, explain


@st.composite
def row_shapes(draw):
    """Two row shapes of 1-40 leaves, each with the number of leading leaves
    that take the exactly-one (the rest take units, as a lab's non-lab rooms
    do), and the shape of each of 1-5 rows."""
    shapes = []
    for _ in range(2):
        n = draw(st.integers(1, 40))
        shapes.append((n, draw(st.integers(1, n))))
    kinds = draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=5))
    return shapes, kinds, draw(st.integers(0, 2**32 - 1))


class TestExactlyOneTemplate:
    @settings(deadline=None)
    @given(row_shapes())
    @example(([(8, 8), (9, 9)], [0, 1, 0], 0))  # largest pairwise, smallest totalizer
    @example(([(25, 25), (10, 3)], [1, 0, 1, 1], 1))  # totalizer; lab shape with units
    @example(([(1, 1), (40, 1)], [1, 1, 0, 0, 1], 2))  # one-literal unit; 39 trailing units
    def test_rows_match_per_row_calls(self, sample_instance, case):
        (shapes, kinds, seed) = case
        rng = np.random.default_rng(seed)
        widths = [shapes[k][0] for k in kinds]
        # distinct variables, either sign, across all rows
        pool = (rng.permutation(sum(widths)) + 1) * rng.choice((-1, 1), sum(widths))
        bounds = np.cumsum([0] + widths)
        rows = [(pool[a:b].tolist(), shapes[k][1]) for a, b, k in zip(bounds, bounds[1:], kinds)]
        tags = [f"family/row{i}/totalizer" for i in range(len(kinds))]
        want_vm, got_vm = VarMap(sample_instance), VarMap(sample_instance)
        want, want_explain = per_row_exactly_ones(want_vm, tags, rows)
        got = _exactly_one_rows(got_vm, tags, rows)
        assert [c.literals for c in got] == want
        assert all(c.is_hard for c in got)
        base = base_num_vars(got_vm)
        assert got_vm.num_vars == base + len(want_explain)
        assert [got_vm.explain(v) for v in range(base + 1, got_vm.num_vars + 1)] == want_explain


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
        res = solve_clauses([c.literals for c in formula.clauses if c.is_hard])
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
        res = solve_clauses([c.literals for c in formula.clauses if c.is_hard])
        assert res.status.value == "unsat"


class TestEncodeWhole:
    def test_weighted_and_partial_share_hard_clauses(self, sample_weighted, sample_partial):
        fw = sample_weighted[0]
        fp = sample_partial[0]
        assert [c.literals for c in fw.clauses] == [c.literals for c in fp.clauses]
        assert [c for c in fw.clauses if c.is_hard] == [c for c in fp.clauses if c.is_hard]
        assert all(w == 1 for w in fp.soft_weights)

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

    # six rooms and twelve courses: room_clashes is most of the formula
    @pytest.mark.parametrize("weighted, dimacs_sha256", [
        (True, "23aec6d4a3031589d42a302c13e5978d4e066eb09b46df5c4f514a3f45b1fe06"),
        (False, "08e0f9d34033f233527ce1d354ab64f210eb10761ca88eb40744e50d06143568"),
    ])
    def test_many_room_encoding_pinned(self, weighted, dimacs_sha256):
        instance = gen_random_instance(3, days=5, slots_per_day=4, rooms=6,
                                       courses=12, curricula=4)
        formula, _ = encode(instance, EncodeOptions(weighted=weighted))
        assert (formula.num_vars, len(formula.clauses)) == (2936, 52219)
        assert hashlib.sha256(write_dimacs(formula).encode()).hexdigest() == dimacs_sha256

    # the encode-large benchmark instance, the only pinned shape with a
    # 10-room lecture totalizer (and a 25-slot one per session)
    @pytest.mark.parametrize("weighted, dimacs_sha256", [
        (True, "d1d8a54db94a6e267e7768ac78b8b8138035c8b6cef2148c8202fd0e48909e05"),
        (False, "8a8fe0414e0bcbba4f81333cabd5a54b28c95a42f18f1756e985a9a5a573322c"),
    ])
    def test_encode_large_encoding_pinned(self, weighted, dimacs_sha256):
        instance = gen_random_instance(5, days=5, slots_per_day=5, rooms=10,
                                       courses=30, curricula=6)
        formula, vm = encode(instance, EncodeOptions(weighted=weighted))
        explain = "\n".join(vm.explain(v) for v in range(1, vm.num_vars + 1))
        assert (formula.num_vars, len(formula.clauses)) == (11058, 530908)
        assert hashlib.sha256(write_dimacs(formula).encode()).hexdigest() == dimacs_sha256
        assert (hashlib.sha256(explain.encode()).hexdigest()
                == "a888bc5ce9eb3f495ec7e85cc3a3dff965e342713466483e55799771c7daa4c9")

    def test_formula_repr_stays_short(self):
        # the repr names the clause view, not each of its 530,908 clauses
        formula, _ = encode(gen_random_instance(5, days=5, slots_per_day=5, rooms=10,
                                                courses=30, curricula=6))
        assert len(repr(formula)) < 1000

    def test_deterministic_bytes(self, sample_instance):
        first, _ = encode(sample_instance, EncodeOptions(weighted=True))
        second, _ = encode(sample_instance, EncodeOptions(weighted=True))
        assert write_dimacs(first) == write_dimacs(second)


class TestCostFaithfulness:
    def test_placement_models_match_validator(self):
        instance = gen_random_instance(9, days=2, slots_per_day=2, rooms=2,
                                       courses=2, curricula=2, overlap_density=1.0)
        opts = EncodeOptions(weighted=True)
        formula, vm = encode(instance, opts)
        assert formula.num_vars == base_num_vars(vm)  # no auxiliaries
        hard = [c.literals for c in formula.clauses if c.is_hard]
        feasible = 0
        for timetable in all_placements(instance):
            assignment = assignment_for_placement(instance, vm, timetable.placements)
            hard_ok = all(any(assignment[abs(l)] == (l > 0) for l in c) for c in hard)
            assert hard_ok == (not check_hard(timetable, instance))
            cost = formula.falsified_weight(assignment)
            assert (cost is not None) == hard_ok
            if hard_ok:
                feasible += 1
                assert cost == compute_cost(timetable, instance, opts).total_cost
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
