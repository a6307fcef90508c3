"""The two cardinality encodings ttsat uses.

* ``exactly_one``: the paper's "one timeslot / one room per session".
  Pairwise (no auxiliary variables) for up to 8 literals, a totalizer above.
* ``totalizer``: a balanced merge tree whose root outputs form a unary
  counter of a literal set, encoded in both directions (Bailleux &
  Boufkhad, CP 2003).  The solver's OLL engine builds one over each core;
  any bound is one unit clause on its outputs.

Clauses are tuples of signed ints; ``alloc`` is a zero-argument callable
returning a fresh variable.  Both encodings have the projection property:
an assignment of the original variables extends to a model of the emitted
clauses iff the constraint holds.
"""

from __future__ import annotations

import itertools

PAIRWISE_MAX = 8  # largest exactly-one encoded pairwise


class CardinalityError(ValueError):
    """Invalid cardinality request."""


def exactly_one(lits, alloc) -> list[tuple[int, ...]]:
    """Clauses satisfiable (over ``lits`` plus fresh variables) iff exactly
    one of ``lits`` is true."""
    lits = [int(l) for l in lits]
    if not lits:
        raise CardinalityError("cardinality constraint over an empty literal list")
    if any(l == 0 for l in lits):
        raise CardinalityError("literal 0 is not allowed")
    if len({abs(l) for l in lits}) != len(lits):
        raise CardinalityError("literals must range over distinct variables")
    if len(lits) == 1:
        return [(lits[0],)]
    if len(lits) <= PAIRWISE_MAX:
        return [(-a, -b) for a, b in itertools.combinations(lits, 2)] + [tuple(lits)]
    clauses, outs = totalizer(lits, alloc)
    clauses.append((-outs[1],))
    clauses.append((outs[0],))
    return clauses


def totalizer(lits, alloc):
    """Unary counter ``(clauses, outputs)``: outputs[i] <=> "at least i+1 of
    ``lits`` are true"; the caller sets any bound (a lone literal counts itself)."""
    clauses: list[tuple[int, ...]] = []
    return clauses, _totalizer_node(list(lits), alloc, clauses)


def _totalizer_node(segment, alloc, clauses):
    # Balanced merge tree; node outputs o[0..s-1] with o[i] <=> "at least i+1
    # true" over the node's leaves, constrained in both directions.  A plain
    # recursive function, not a closure: a self-referencing closure is a
    # reference cycle that would keep ``alloc``'s owner (a solver) alive
    # until the next full garbage collection.
    if len(segment) == 1:
        return [segment[0]]
    mid = len(segment) // 2
    left = _totalizer_node(segment[:mid], alloc, clauses)
    right = _totalizer_node(segment[mid:], alloc, clauses)
    p, q = len(left), len(right)
    out = [alloc() for _ in range(p + q)]
    for i in range(p + 1):
        for j in range(q + 1):
            if i + j >= 1:
                ante = []
                if i:
                    ante.append(-left[i - 1])
                if j:
                    ante.append(-right[j - 1])
                clauses.append(tuple(ante + [out[i + j - 1]]))
            if i + j + 1 <= p + q:
                head = []
                if i < p:
                    head.append(left[i])
                if j < q:
                    head.append(right[j])
                clauses.append(tuple(head + [-out[i + j]]))
    return out
