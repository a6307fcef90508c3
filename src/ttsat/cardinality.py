"""CNF encodings of at-most / at-least / exactly-k cardinality constraints.

Three schemes are provided:

* pairwise: no auxiliary variables; for at-most-k it forbids every
  (k+1)-subset, so it is only sensible for k = 1 or tiny inputs.
* sequential counter: unary running counters r[i][j] <=> "at least j of the
  first i literals are true", encoded in both directions.
* totalizer: a balanced merge tree whose root outputs form a unary counter
  of the whole literal set, also encoded in both directions.

Every encoder returns ``(clauses, aux_vars)`` where clauses are tuples of
signed ints and aux_vars lists the fresh variables drawn from the allocator.
All encodings have the projection property: an assignment of the original
variables extends to a model of the emitted clauses iff the bound holds.
"""

from __future__ import annotations

import itertools
from enum import Enum


class CardinalityError(ValueError):
    """Invalid cardinality request."""


class Scheme(Enum):
    PAIRWISE = "pairwise"
    SEQUENTIAL_COUNTER = "seqcounter"
    TOTALIZER = "totalizer"


class BoundKind(Enum):
    AT_MOST = "at_most"
    AT_LEAST = "at_least"
    EXACTLY = "exactly"


class VarAllocator:
    """Monotone counter handing out fresh variable indices."""

    def __init__(self, next_var: int):
        if next_var < 1:
            raise CardinalityError("allocator must start at a positive variable")
        self.next_var = next_var

    def __call__(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v


def default_scheme(k: int, n: int) -> Scheme:
    """Pairwise for at-most-one over few literals, totalizer otherwise."""
    return Scheme.PAIRWISE if k == 1 and n <= 8 else Scheme.TOTALIZER


def encode_at_most(k, literals, scheme=None, alloc=None):
    """Clauses satisfiable (over base + aux) iff at most k literals are true.

    k >= len(literals) is vacuous and emits nothing; k = 0 emits unit
    negations directly.
    """
    lits = _check_literals(k, literals)
    n = len(lits)
    if k >= n:
        return [], []
    if k == 0:
        return [(-l,) for l in lits], []
    scheme = scheme or default_scheme(k, n)
    if scheme is Scheme.PAIRWISE:
        return [tuple(-l for l in combo) for combo in itertools.combinations(lits, k + 1)], []
    if scheme is Scheme.SEQUENTIAL_COUNTER:
        return _seq_counter(lits, k, _need_alloc(alloc), upper=True, lower=False)
    return _totalizer(lits, k, _need_alloc(alloc), upper=True, lower=False)


def encode_at_least(k, literals, scheme=None, alloc=None):
    """Clauses satisfiable iff at least k literals are true. k = 0 is vacuous."""
    lits = _check_literals(k, literals)
    n = len(lits)
    if k == 0:
        return [], []
    if k > n:
        raise CardinalityError(f"at least {k} of {n} literals is unsatisfiable")
    if k == n:
        return [(l,) for l in lits], []
    scheme = scheme or default_scheme(k, n)
    if scheme is Scheme.PAIRWISE:
        # any (n-k+1)-subset must contain a true literal
        return [tuple(combo) for combo in itertools.combinations(lits, n - k + 1)], []
    if scheme is Scheme.SEQUENTIAL_COUNTER:
        return _seq_counter(lits, k, _need_alloc(alloc), upper=False, lower=True)
    return _totalizer(lits, k, _need_alloc(alloc), upper=False, lower=True)


def encode_exactly(k, literals, scheme=None, alloc=None):
    """Conjunction of at-most-k and at-least-k over the same literals.

    Counter-based schemes share one counter structure for both bounds;
    pairwise concatenates the two independent encodings.
    """
    lits = _check_literals(k, literals)
    n = len(lits)
    if k > n:
        raise CardinalityError(f"exactly {k} of {n} literals is unsatisfiable")
    if k == 0:
        return [(-l,) for l in lits], []
    if k == n:
        return [(l,) for l in lits], []
    scheme = scheme or default_scheme(k, n)
    if scheme is Scheme.PAIRWISE:
        upper, _ = encode_at_most(k, lits, Scheme.PAIRWISE)
        lower, _ = encode_at_least(k, lits, Scheme.PAIRWISE)
        return upper + lower, []
    if scheme is Scheme.SEQUENTIAL_COUNTER:
        return _seq_counter(lits, k, _need_alloc(alloc), upper=True, lower=True)
    return _totalizer(lits, k, _need_alloc(alloc), upper=True, lower=True)


def _check_literals(k, literals):
    lits = [int(l) for l in literals]
    if not lits:
        raise CardinalityError("cardinality constraint over an empty literal list")
    if any(l == 0 for l in lits):
        raise CardinalityError("literal 0 is not allowed")
    if len({abs(l) for l in lits}) != len(lits):
        raise CardinalityError("literals must range over distinct variables")
    if int(k) < 0:
        raise CardinalityError(f"bound must be nonnegative, got {k}")
    return lits


def _need_alloc(alloc):
    if alloc is None:
        raise CardinalityError("this scheme needs a fresh-variable allocator")
    return alloc


def _seq_counter(lits, k, alloc, upper, lower):
    # r[i][j] <=> at least j of lits[0..i-1] are true, for j <= min(i, m).
    # The at-most bound reads column k+1, the at-least bound column k.
    n = len(lits)
    m = k + 1 if upper else k
    clauses: list[tuple[int, ...]] = []
    aux: list[int] = []
    r = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, min(i, m) + 1):
            v = alloc()
            aux.append(v)
            r[i][j] = v
    for i in range(1, n + 1):
        x = lits[i - 1]
        for j in range(1, min(i, m) + 1):
            rij = r[i][j]
            # count >= j  =>  r[i][j]
            if j == 1:
                clauses.append((-x, rij))
            else:
                clauses.append((-x, -r[i - 1][j - 1], rij))
            if j < i:
                clauses.append((-r[i - 1][j], rij))
            # r[i][j]  =>  count >= j
            if j < i:
                clauses.append((-rij, x, r[i - 1][j]))
                if j >= 2:
                    clauses.append((-rij, r[i - 1][j - 1], r[i - 1][j]))
            else:
                clauses.append((-rij, x))
                if j >= 2:
                    clauses.append((-rij, r[i - 1][j - 1]))
    if upper:
        clauses.append((-r[n][k + 1],))
    if lower:
        clauses.append((r[n][k],))
    return clauses, aux


def _totalizer(lits, k, alloc, upper, lower):
    # Balanced merge tree; node outputs o[0..s-1] with o[i] <=> "at least i+1
    # true" over the node's leaves, constrained in both directions.
    clauses: list[tuple[int, ...]] = []
    aux: list[int] = []

    def build(segment):
        if len(segment) == 1:
            return [segment[0]]
        mid = len(segment) // 2
        left = build(segment[:mid])
        right = build(segment[mid:])
        p, q = len(left), len(right)
        out = []
        for _ in range(p + q):
            v = alloc()
            aux.append(v)
            out.append(v)
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

    outs = build(list(lits))
    if upper:
        clauses.append((-outs[k],))
    if lower:
        clauses.append((outs[k - 1],))
    return clauses, aux
