"""Reference optima for the benchmark's solve jobs, independent of the builtin solver.

``PINNED_OPTIMA`` holds the optimum of every default solve job.  The sample
pins (10 weighted, 2 partial) are the ones ``tests/test_acceptance.py`` and
``tests/test_cli.py`` assert; the generated-instance pins were confirmed with
``milp_optimum``: HiGHS (through ``scipy.optimize.milp``) on the standard
linearization of the WCNF formula.  ``python3 perfbench/selftest.py``
re-runs that confirmation; timed runs never do.

``PINNED_ENCODINGS`` holds the variable count and the per-family clause
counts of every default ``encode-large`` job.

Run as a script, this module prints the MILP optimum of each given solve
job as JSON; ``run.py`` calls it in a child process for non-default seeds,
so that SciPy never enters the measured process.
"""

from __future__ import annotations

import json
import sys

# (instance key, weighted) -> optimum.  Instance keys are built by
# run.instance_key(): "sample" or "gen:<seed>:<days>x<slots>x<rooms>x<courses>x<curricula>".
PINNED_OPTIMA = {
    ("sample", True): 10,
    ("sample", False): 2,
    ("gen:3:5x4x6x12x4", True): 20,
    ("gen:3:5x4x6x12x4", False): 1,
    ("gen:4:5x5x8x16x5", True): 0,
    ("gen:4:5x5x8x16x5", False): 0,
}

# instance key -> counts of its weighted encoding.  A clause shared by
# curriculum_clashes and teacher_clashes counts in both families.
PINNED_ENCODINGS = {
    "gen:5:5x5x10x30x6": {
        "vars": 11058,
        "clauses": 530908,
        "families": {
            "link_ct_cd": 1800, "link_ct_kt": 1650, "curriculum_clashes": 8350,
            "registration_clashes": 18000, "teacher_clashes": 1250,
            "room_clashes": 442500, "timeslot_unavailability": 92, "room_capacity": 286,
            "room_assignment": 6900, "meeting_count": 50280,
        },
    },
    "gen:6:5x5x10x30x6": {
        "vars": 11364,
        "clauses": 531830,
        "families": {
            "link_ct_cd": 1800, "link_ct_kt": 1650, "curriculum_clashes": 8350,
            "registration_clashes": 17900, "teacher_clashes": 1150,
            "room_clashes": 442500, "timeslot_unavailability": 66, "room_capacity": 150,
            "room_assignment": 8259, "meeting_count": 50280,
        },
    },
}


def milp_optimum(formula) -> int:
    """Minimum falsified soft weight of a WcnfFormula, by 0/1 integer programming.

    One binary per variable and one relaxation binary per soft clause.  A
    clause (l1 v ... v lk) becomes sum(pos x) - sum(neg x) + r >= 1 - #neg,
    with r only on soft clauses; the objective is sum(w * r).
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = formula.num_vars
    softs = [c for c in formula.clauses if not c.is_hard]
    ncols = n + len(softs)
    rows, cols, vals, lower = [], [], [], []
    soft_idx = 0
    for i, c in enumerate(formula.clauses):
        neg = 0
        for lit in c.literals:
            rows.append(i)
            cols.append(abs(lit) - 1)
            vals.append(1.0 if lit > 0 else -1.0)
            neg += lit < 0
        if not c.is_hard:
            rows.append(i)
            cols.append(n + soft_idx)
            vals.append(1.0)
            soft_idx += 1
        lower.append(1.0 - neg)
    a = csr_matrix((vals, (rows, cols)), shape=(len(formula.clauses), ncols))
    cost = np.zeros(ncols)
    cost[n:] = [c.weight for c in softs]
    res = milp(
        cost,
        constraints=LinearConstraint(a, lb=np.array(lower), ub=np.inf),
        integrality=np.ones(ncols),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not prove an optimum: {res.message}")
    return int(round(res.fun))


def main(argv: list[str]) -> int:
    """argv: <src dir> then JSON [[key, instance json text, weighted], ...] on stdin."""
    sys.path.insert(0, argv[0])
    from ttsat.encoder import EncodeOptions, encode
    from ttsat.model import parse_instance

    out = []
    for key, text, weighted in json.load(sys.stdin):
        formula, _ = encode(parse_instance(text), EncodeOptions(weighted=weighted))
        out.append([key, weighted, milp_optimum(formula)])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
