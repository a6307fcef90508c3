"""The two cardinality encodings ttsat uses.

* ``exactly_one``: the paper's "one timeslot / one room per session".
  Pairwise (no auxiliary variables) for up to 8 literals, a totalizer above.
* ``Totalizer``: a balanced merge tree whose root outputs form a unary
  counter of a literal set, encoded in both directions (Bailleux &
  Boufkhad, CP 2003).  Any bound is one unit clause on its outputs.  With
  a cap every node keeps at most that many outputs, which still bounds the
  count at any k < cap (Martins et al., CP 2014).  A ``Totalizer`` keeps
  its merge tree and raises its cap in place, adding only the clauses of
  the new outputs.  The solver's OLL engine keeps one over each core,
  capped one output past the bound it uses; the encoder's ``exactly_one``
  counts in full.

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
    if len(lits) <= PAIRWISE_MAX:
        return [(-a, -b) for a, b in itertools.combinations(lits, 2)] + [tuple(lits)]
    counter = Totalizer(lits)
    clauses = counter.count_to(None, alloc)
    clauses.append((-counter.outputs[1],))
    clauses.append((counter.outputs[0],))
    return clauses


class Totalizer:
    """Unary counter over ``lits``: ``outputs[i]`` <=> "at least i+1 of
    ``lits`` are true"; the caller sets any bound.  It keeps its merge
    tree, so that it can count further later: ``count_to`` returns only
    the clauses of the outputs it adds (Martins et al., CP 2014).
    ``outputs`` starts empty (the lone literal for one literal) and grows
    in place."""

    __slots__ = ("lits", "_root")

    def __init__(self, lits):
        self.lits = list(lits)
        self._root = _totalizer_tree(self.lits)

    @property
    def outputs(self) -> list[int]:
        return self._root[0]

    def count_to(self, cap, alloc) -> list[tuple[int, ...]]:
        """Clauses that give every node up to ``cap`` outputs (None: all),
        so that the outputs read "at least 1" to "at least cap" and bound
        the count at any k < cap; the clauses returned earlier stay as they
        are."""
        clauses: list[tuple[int, ...]] = []
        _count_to(self._root, len(self.lits) if cap is None else cap, alloc, clauses)
        return clauses


def _totalizer_tree(segment):
    # Balanced merge tree of [outputs, left, right, leaves] nodes; a leaf's
    # outputs are its literal
    if len(segment) == 1:
        return [[segment[0]], None, None, 1]
    mid = len(segment) // 2
    return [[], _totalizer_tree(segment[:mid]), _totalizer_tree(segment[mid:]), len(segment)]


def _count_to(node, cap, alloc, clauses):
    # Node outputs o[0..s-1] with o[i] <=> "at least i+1 true" over the
    # node's leaves, s = min(leaves, cap), constrained in both directions.
    # The clause of a pair (i, j) of child counts is the same at any cap
    # that has it, so a node that grows from (p0, q0, s0) emits only the
    # pairs that (p0, q0, s0) lacked.  A plain recursive function, not a
    # closure: a self-referencing closure is a reference cycle that would
    # keep ``alloc``'s owner (a solver) alive until the next full garbage
    # collection.
    out, left_node, right_node, leaves = node
    s0 = len(out)
    if s0 >= min(leaves, cap):
        return
    left, right = left_node[0], right_node[0]
    p0, q0 = len(left), len(right)
    _count_to(left_node, cap, alloc, clauses)
    _count_to(right_node, cap, alloc, clauses)
    p, q = len(left), len(right)
    s = min(p + q, cap)
    out += [alloc() for _ in range(s - s0)]
    # a child's part of the up clause of pair (i, j), "left >= i and
    # right >= j imply at least i+j", and of its down clause, "at least
    # i+j+1 implies left >= i+1 or right >= j+1", indexed by i or j
    l_ante = [()] + [(-l,) for l in left]
    r_ante = [()] + [(-l,) for l in right]
    l_head = [(l,) for l in left] + [()]
    r_head = [(l,) for l in right] + [()]
    for i in range(p + 1):
        # a pair the node had (i <= p0, j <= q0) already has its up clause
        # if i+j <= s0 and its down clause if i+j < s0
        up_from = min(q0, s0 - i) + 1 if i <= p0 else 0
        down_from = min(q0, s0 - i - 1) + 1 if i <= p0 else 0
        for j in range(min(q, s - i) + 1):
            if i + j >= 1 and j >= up_from:
                clauses.append(l_ante[i] + r_ante[j] + (out[i + j - 1],))
            if i + j < s and j >= down_from:
                clauses.append(l_head[i] + r_head[j] + (-out[i + j],))
