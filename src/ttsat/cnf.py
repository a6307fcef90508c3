"""Weighted CNF formulas and DIMACS WCNF serialization.

Literals are nonzero integers: ``v`` means variable ``v`` is true, ``-v``
means it is false.  A clause weight of ``None`` marks the clause as hard;
hard clauses are serialized with the formula's top weight.

Storage.  A ``WcnfFormula`` holds its clauses once, as three parallel
pieces: one flat int64 array of every literal in formula order, an int64
array of clause offsets (clause ``i`` is ``literals[offsets[i]:offsets[i +
1]]``) and a list of per-clause weights (Python ints, ``None`` for hard).
No Python object is kept per clause.

Views.  ``clauses`` is a ``ClauseView`` of those whole arrays: a
read-only sequence of ``Clause`` that builds a ``Clause`` only when
indexed or iterated, takes ``len()`` from its weights, and compares with
another view by array equality.  ``soft_weights`` lists the soft clauses'
weights in formula order.  Iteration and the SAT core's loading read
``lists()``, one new list per clause; ``write_dimacs``, the formula's
check and model evaluation read ``arrays()``.  Both walk the arrays
``CLAUSE_CHUNK`` clauses at a time with ``clause_chunks``.  Only ttsat
builds views: ``clause_block``, ``concat_clauses``, ``parse_dimacs`` and
the encoder's families.

Checking.  ``Clause`` and ``ClauseView`` are unchecked; ``WcnfFormula``
checks every clause once, when it is built.  Given any iterable of
``Clause``, it first converts it to the same arrays; an entry that is no
``Clause`` or holds a value int64 cannot is malformed, and the per-clause
check names the first bad clause.  Given a view, it takes its arrays as
they are.  The check proper runs in numpy on the arrays, in chunks, then
re-checks only the first bad clause on its own, which raises that
clause's ``CnfError``; the message is the one a clause-by-clause check
gives.  ``num_vars`` must fit int64, as every literal must.  A formula's
arrays are read-only; given a view, the formula keeps that view's very
arrays, not copies, and makes them read-only for their other holders
too.

DIMACS WCNF goes out and comes in in bulk.  ``write_dimacs`` formats the
arrays ``CLAUSE_CHUNK`` clauses at a time, each chunk as one token array
joined once, and joins the chunks' text.  ``parse_dimacs`` reads each text
one way.  When numpy provably reads every clause line as the per-line
reader would, it reads them in blocks of about ``PARSE_CHUNK``
characters, each with one ``np.fromstring`` whose values become the
block's arrays.  Any oddity (a line end other than "\n", comments among
the clauses, "h" lines, odd tokens) sends the whole text to the per-line
reader instead, so the clauses and the ``line N: ...`` errors are the same
either way.  A file read in text mode, as the CLI reads one, has had its
CRLF and CR line ends made "\n" already.

``gc_paused`` switches the cyclic garbage collector off around the code
that builds one Python object per clause: the per-line reader, which
keeps a literal tuple per clause, and the builtin Max-SAT solve, whose
solver keeps a list per clause to its end.  Those objects form no cycles,
so the collector's passes find nothing to free.
"""

from __future__ import annotations

import gc
import numbers
import operator
import warnings
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

# characters per block of clause lines that parse_dimacs reads in numpy
PARSE_CHUNK = 1 << 20
# clauses per chunk of clause_chunks, the step of the work that makes
# temporaries per literal or per clause (the formula's check, a view's
# lists(), write_dimacs), so that those stay small
CLAUSE_CHUNK = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max


class CnfError(ValueError):
    """Malformed clause, formula, DIMACS text, or solver output."""


@contextmanager
def gc_paused():
    """Switch the cyclic garbage collector off for the block (or, used as
    ``@gc_paused()``, the decorated call), then restore the caller's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of literals. ``weight is None`` means hard.

    Unchecked on its own: ``WcnfFormula`` rejects malformed clauses.
    """

    literals: tuple[int, ...]
    weight: int | None = None

    @property
    def is_hard(self) -> bool:
        return self.weight is None


def _offsets(lengths) -> np.ndarray:
    """Clause offsets from clause lengths: 0, then their running sum."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def clause_chunks(literals, offsets, step=None):
    """Walk clause arrays ``step`` clauses at a time (``CLAUSE_CHUNK`` when
    None): yield, per chunk, the number of its first clause, its literals
    and its offsets counted from 0.  Arrays of no clause yield nothing."""
    step = CLAUSE_CHUNK if step is None else step
    for start in range(0, len(offsets) - 1, step):
        bounds = offsets[start:start + step + 1]
        yield start, literals[bounds[0]:bounds[-1]], bounds - bounds[0]


def _largest_variable(literals) -> int:
    """The largest ``abs`` of an int64 literal array, 0 when it is empty."""
    return max(int(literals.max(initial=0)), -int(literals.min(initial=0)))


def _literal_table(n, count, value=None):
    """``value(l)`` (``l`` when None) for each literal ``l`` in -n..n, indexed
    by ``l + n``; None when ``n`` passes ``count``, the literals it serves."""
    if n > count:
        return None
    table = np.arange(-n, n + 1).astype(object)
    return table if value is None else np.array(list(map(value, table.tolist())), dtype=object)


class ClauseView(Sequence):
    """Read-only sequence of ``Clause`` over whole clause arrays.

    Clause ``i`` is ``literals[offsets[i]:offsets[i + 1]]`` with weight
    ``weights[i]``.  A ``Clause`` is built only when the view is indexed
    (by an integer) or iterated; ``lists()`` gives the literals alone.
    Views compare only with views, by their arrays.  The constructor is
    internal (outside code passes ``Clause`` objects or calls
    ``clause_block``), and ``WcnfFormula`` checks the clauses."""

    __slots__ = ("_literals", "_offsets", "_weights")

    def __init__(self, literals, offsets, weights):
        self._literals = literals
        self._offsets = offsets
        self._weights = weights

    def __len__(self):
        return len(self._weights)

    def __getitem__(self, i):
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("clause index out of range")
        i %= n
        start, end = self._offsets[i:i + 2].tolist()
        return Clause(tuple(self._literals[start:end].tolist()), self._weights[i])

    def __iter__(self):
        return map(Clause, map(tuple, self.lists()), self._weights)

    def __eq__(self, other):
        if not isinstance(other, ClauseView):
            return NotImplemented
        return (np.array_equal(self._offsets, other._offsets)
                and np.array_equal(self._literals, other._literals)
                and self._weights == other._weights)

    def __repr__(self):
        return f"ClauseView({list(self)!r})"

    def arrays(self) -> tuple[np.ndarray, np.ndarray, list]:
        """``(literals, offsets, weights)``: the stored arrays themselves,
        not to be modified."""
        return self._literals, self._offsets, self._weights

    def lists(self):
        """One new list of literals per clause, in order, made per chunk;
        equal literals are one int object when ``_literal_table`` has a table."""
        literals = self._literals
        n = _largest_variable(literals)
        table = _literal_table(n, len(literals))
        chunks = ((chunk.tolist() if table is None else table[chunk + n].tolist(), bounds.tolist())
                  for _, chunk, bounds in clause_chunks(literals, self._offsets))
        return chain.from_iterable(map(flat.__getitem__, map(slice, bounds, bounds[1:]))
                                   for flat, bounds in chunks)


def clause_block(literals, weights=None) -> ClauseView:
    """A view over new arrays, one clause per sequence of integer literals
    in ``literals``; ``weights`` gives one weight per clause, and None (the
    default) makes every clause hard.  Raises TypeError on a value that is
    not an integer and OverflowError on one that passes int64."""
    literals = list(literals)
    lengths = np.fromiter(map(len, literals), dtype=np.int64, count=len(literals))
    flat = np.fromiter(map(operator.index, chain.from_iterable(literals)),
                       dtype=np.int64, count=int(lengths.sum()))
    if weights is None:
        weights = [None] * len(literals)
    else:
        weights = [w if w is None or type(w) is int else operator.index(w) for w in weights]
    return ClauseView(flat, _offsets(lengths), weights)


def concat_clauses(blocks) -> ClauseView:
    """One view over new arrays holding the clauses of ``blocks`` (views), in order."""
    parts = [block.arrays() for block in blocks]
    if not parts:
        return clause_block(())
    literals = np.concatenate([p[0] for p in parts])
    lengths = np.concatenate([np.diff(p[1]) for p in parts])
    weights = list(chain.from_iterable(p[2] for p in parts))
    return ClauseView(literals, _offsets(lengths), weights)


_literals = operator.attrgetter("literals")
_weight = operator.attrgetter("weight")


def _clause_view(clauses) -> ClauseView:
    """``clause_block`` of a sequence of ``Clause``; TypeError on any other entry."""
    if not all(issubclass(t, Clause) for t in set(map(type, clauses))):
        raise TypeError("expected Clause")
    return clause_block(map(_literals, clauses), map(_weight, clauses))


@dataclass(frozen=True)
class WcnfFormula:
    """Ordered weighted clause set.

    ``clauses`` is any iterable of ``Clause``, or a ``ClauseView`` built in
    ttsat; either way the formula stores it as arrays and shows it as a
    ``ClauseView`` (see the module docstring).  ``top`` is the hard-clause
    sentinel weight and must exceed the sum of all soft weights.  When not
    given it defaults to that sum plus one.  Construction checks every
    clause: nonempty, integer literals, no literal 0, no variable twice,
    every variable within ``num_vars``, soft weights integers of at least
    1.  A bad formula raises the ``CnfError`` of its first bad clause.
    ``soft_weights`` lists the soft clauses' weights in formula order, and
    ``max_var`` is the largest variable a clause holds (0 with no clauses).

    Given a ``ClauseView``, the formula takes over its literal and offset
    arrays: it stores them as they are, not copies, and clears their
    ``writeable`` flag, so the caller can no longer change them in place
    either.  A copy would double the memory a large formula's arrays take
    while it is built.  An iterable of ``Clause`` is converted to new arrays
    first, which the formula owns alone.
    """

    num_vars: int
    clauses: Sequence[Clause]
    top: int | None = None
    soft_weights: list = field(init=False, repr=False, compare=False)
    soft_weight_sum: int = field(init=False, repr=False, compare=False)
    max_var: int = field(init=False, repr=False, compare=False)
    # per clause, whether it is hard
    _hard: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num_vars = self.num_vars
        if num_vars < 1:
            raise CnfError("formula needs at least one variable")
        if num_vars > _INT64_MAX:
            raise CnfError(f"num_vars={num_vars} does not fit in int64, as every literal must")
        source = self.clauses
        if isinstance(source, ClauseView):
            literals, offsets, weights = source.arrays()
        else:
            source = tuple(source)
            try:
                literals, offsets, weights = _clause_view(source).arrays()
            except (TypeError, OverflowError):
                # an entry numpy cannot hold is malformed; the per-clause
                # check names the first bad one
                _clause_check(source, num_vars)
                raise
        hard = np.fromiter(map(operator.is_, weights, repeat(None)),
                           dtype=bool, count=len(weights))
        soft_weights = list(compress(weights, (~hard).tolist()))
        bad = _first_bad_clause(literals, offsets, num_vars)
        if min(soft_weights, default=1) < 1:
            light = next(i for i, w in enumerate(weights) if w is not None and w < 1)
            bad = light if bad is None else min(bad, light)
        if bad is not None:
            _clause_check((source[bad],), num_vars)
        soft_sum = sum(soft_weights)
        top = soft_sum + 1 if self.top is None else int(self.top)
        if top <= soft_sum:
            raise CnfError(f"top weight {top} must exceed soft weight sum {soft_sum}")
        literals.flags.writeable = offsets.flags.writeable = False
        object.__setattr__(self, "clauses", ClauseView(literals, offsets, weights))
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "soft_weights", soft_weights)
        object.__setattr__(self, "soft_weight_sum", soft_sum)
        object.__setattr__(self, "max_var", _largest_variable(literals))
        object.__setattr__(self, "_hard", hard)

    def hard_satisfied(self, assignment) -> bool:
        """Whether a total assignment satisfies every hard clause."""
        return bool(self._satisfied(assignment)[self._hard].all())

    def falsified_weight(self, assignment) -> int:
        """Total weight of soft clauses falsified by a total assignment."""
        falsified = ~self._satisfied(assignment)[~self._hard]
        return sum(compress(self.soft_weights, falsified.tolist()))

    def _satisfied(self, assignment) -> np.ndarray:
        """Per clause, whether a ``{variable: bool}`` assignment makes one of
        its literals true."""
        # literal l is true iff truth[l]: -v indexes from the end, and a
        # variable the assignment leaves out makes neither literal true
        truth = np.zeros(2 * self.num_vars + 1, dtype=bool)
        variables = np.fromiter(assignment, dtype=np.int64, count=len(assignment))
        values = np.fromiter(assignment.values(), dtype=bool, count=len(assignment))
        known = (variables >= 1) & (variables <= self.num_vars)
        truth[variables[known]] = values[known]
        truth[-variables[known]] = ~values[known]
        literals, offsets, _ = self.clauses.arrays()
        if not len(literals):
            return np.zeros(0, dtype=bool)
        return np.logical_or.reduceat(truth[literals], offsets[:-1])


def _first_bad_clause(literals, offsets, num_vars):
    """The number of the first clause that is empty, holds a variable
    outside 1..num_vars (literal 0 included) or repeats a variable; None
    when every clause is sound.  ``num_vars`` fits int64.  The clauses are
    checked ``CLAUSE_CHUNK`` at a time, or fewer when the chunk's (clause,
    variable) keys would pass int64: only where variables pass about
    2**63 / CLAUSE_CHUNK, down to one clause a chunk near 2**63."""
    # the keys hold no variable above this: one outside 1..num_vars becomes 0
    largest = min(num_vars, _largest_variable(literals))
    step = max(1, min(CLAUSE_CHUNK, _INT64_MAX // (largest + 1)))
    for start, chunk, bounds in clause_chunks(literals, offsets, step):
        bad = _first_bad_in_chunk(chunk, bounds, num_vars)
        if bad is not None:
            return start + bad
    return None


def _first_bad_in_chunk(literals, offsets, num_vars):
    """``_first_bad_clause`` of one chunk, its offsets counted from 0."""
    lengths = np.diff(offsets)
    n = len(lengths)
    variables = np.abs(literals)  # abs(-2**63) stays negative: outside below
    outside = (variables < 1) | (variables > num_vars)
    first = [np.flatnonzero(lengths < 1)[:1],
             np.searchsorted(offsets, np.flatnonzero(outside)[:1], side="right") - 1]
    # such a clause is bad already; 0 keeps the (clause, variable) keys in range
    variables[outside] = 0
    # a variable repeats within a clause iff a (clause, variable) key
    # repeats; the keys stay below n * span, which the chunk's size keeps
    # at most 2**63
    span = int(variables.max(initial=0)) + 1
    base = np.arange(0, n * span, span, dtype=np.int64)  # each clause's first key
    keys = variables + np.repeat(base, lengths)
    keys.sort(kind="stable")  # adaptive: the keys are already sorted by clause
    repeat_key = keys[1:][keys[1:] == keys[:-1]][:1]
    first.append(np.searchsorted(base, repeat_key, side="right") - 1)
    bad = np.concatenate(first)
    return int(bad.min()) if len(bad) else None


def _clause_check(clauses, num_vars):
    """Check clauses one by one, raising the ``CnfError`` of the first bad one."""
    for c in clauses:
        if not isinstance(c, Clause):
            raise CnfError(f"expected Clause, got {type(c).__name__}")
        lits = c.literals
        if not lits:
            raise CnfError("clause must contain at least one literal")
        if not all(isinstance(l, numbers.Integral) for l in lits):
            raise CnfError(f"clause {lits} has a literal that is not an integer")
        variables = set(map(abs, lits))
        if 0 in variables:
            raise CnfError(f"0 is the clause terminator, not a literal, in {lits}")
        if len(variables) != len(lits):
            raise CnfError(f"a variable occurs twice in clause {lits}")
        if max(variables) > num_vars:
            raise CnfError(
                f"variable {max(variables)} in clause {lits} exceeds num_vars={num_vars}"
            )
        if c.weight is not None:
            if not isinstance(c.weight, numbers.Integral):
                raise CnfError(f"soft clause weight must be an integer, got {c.weight!r}")
            if c.weight < 1:
                raise CnfError(f"soft clause weight must be >= 1, got {c.weight}")


def write_dimacs(formula: WcnfFormula, comments: tuple[str, ...] = ()) -> str:
    """Serialize to classic WCNF ("p wcnf <vars> <clauses> <top>"), LF endings.

    Clause order is preserved exactly; hard clauses carry the top weight.
    The clause lines are formatted ``CLAUSE_CHUNK`` clauses at a time, each
    chunk as one array of tokens (weight, literals, "0\\n" per clause)
    filled from the formula's arrays and joined once, so the temporaries
    stay the size of a chunk and the text is built by one final join.  A
    literal's text comes from a table of ``str(l)`` for every literal,
    indexed by ``l + num_vars``; the table is built only when ``num_vars``
    is at most the formula's literal count, so its size stays bounded by
    the formula's, and ``str`` serves otherwise.  A comment that holds a
    line break raises ``CnfError``, since the reader would take its second
    line for a clause.
    """
    for c in comments:
        if c.splitlines() not in ([c], []):
            raise CnfError(f"comment {c!r} contains a line break")
    head = "".join(f"c {c}\n" for c in comments)
    head += f"p wcnf {formula.num_vars} {len(formula.clauses)} {formula.top}\n"
    literals, offsets, weights = formula.clauses.arrays()
    n = formula.num_vars
    table = _literal_table(n, len(literals), str)
    weight_text = {w: str(formula.top if w is None else w) for w in set(weights)}
    pieces = [head]
    for start, lits, chunk in clause_chunks(literals, offsets):
        if table is not None:
            literal_text = table[lits + n]
        else:
            literal_text = np.array(list(map(str, lits.tolist())), dtype=object)
        shift = 2 * np.arange(len(chunk) - 1)
        tokens = np.empty(len(lits) + 2 * len(shift), dtype=object)
        tokens[chunk[:-1] + shift] = list(map(weight_text.__getitem__,
                                              weights[start:start + len(shift)]))
        tokens[np.arange(len(lits)) + np.repeat(shift + 1, np.diff(chunk))] = literal_text
        tokens[chunk[1:] + shift + 1] = "0\n"
        pieces.append(" ".join(tokens.tolist()).replace("\n ", "\n"))
    return "".join(pieces)


def parse_dimacs(text: str) -> WcnfFormula:
    """Parse WCNF text. Classic headers are canonical; the header-less
    "h"-marker variant is accepted too, its ``num_vars`` the largest
    variable.  Weights >= top normalize to hard.

    Only syntax is checked here, with line numbers: at most one header, and
    it comes before every clause.  ``WcnfFormula`` checks the clauses
    themselves.

    Each text is read one way.  The leading comment and header lines go to
    the per-line reader; the rest is cut at newlines into blocks of about
    ``PARSE_CHUNK`` characters, and when numpy provably reads every block
    as the per-line reader would (``_read_clause_block``), the blocks'
    arrays are joined.  Otherwise, or when the leading lines already hold
    a clause (a line end other than "\n" among them), the whole text is
    read line by line, so the clauses and the ``line N: ...`` errors are
    always those of the per-line reader.  Its clauses become one view,
    unless a literal passes int64; the formula is then built from
    ``Clause`` objects, and its check names the first bad clause."""
    blocks = _blocks(text)
    lead = next(blocks)
    header, literals, weights = _read_lines(lead.splitlines())
    top = None if header is None else header[2]
    views = []
    for block in () if weights else blocks:
        views.append(_read_clause_block(block, top))
        if views[-1] is None:
            break
    if weights or None in views:
        if len(lead) < len(text):
            header, literals, weights = _read_lines(text.splitlines())
        try:
            clauses = clause_block(literals, weights)
        except OverflowError:
            # a literal past int64: the formula's check names the first bad clause
            clauses = list(map(Clause, literals, weights))
    else:
        clauses = concat_clauses(views)
    num_vars, num_clauses, top = header or (None, None, None)
    if not clauses and num_vars is None:
        raise CnfError("no header and no clauses found")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(
            f"header declares {num_clauses} clauses but file contains {len(clauses)}"
        )
    if num_vars is None:
        if isinstance(clauses, ClauseView):
            num_vars = _largest_variable(clauses.arrays()[0])
        else:
            num_vars = max(map(abs, chain.from_iterable(literals)))
    return WcnfFormula(num_vars, clauses, top)


def _blocks(text):
    """Cut ``text`` after newlines: first the leading comment and header
    lines ("" when there are none), then blocks of about ``PARSE_CHUNK``
    characters (a longer line makes a longer block).  Any text after the
    last newline is a block of its own, so every other block ends with a
    newline."""
    pos, n = 0, len(text)
    while text.startswith(("c", "p"), pos):
        pos = text.find("\n", pos) + 1 or n
    yield text[:pos]
    while pos < n:
        end = text.rfind("\n", pos, pos + PARSE_CHUNK) + 1
        if end <= pos:
            end = text.find("\n", pos + PARSE_CHUNK) + 1 or n
        yield text[pos:end]
        pos = end


@gc_paused()
def _read_lines(lines):
    """The per-line reader: ``(header, literals, weights)`` of ``lines``,
    the first of which is line 1.  ``header`` is ``(num_vars, num_clauses,
    top)``, or None; ``literals`` holds one tuple per clause and
    ``weights`` its weight, None for hard."""
    header = top = None
    literals: list[tuple[int, ...]] = []
    weights: list[int | None] = []
    add_literals, add_weight = literals.append, weights.append
    for lineno, line in enumerate(lines, start=1):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if header is not None or weights:
                where = "second header" if header is not None else "header after clauses"
                raise CnfError(f"line {lineno}: {where} {s!r}")
            parts = s.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise CnfError(f"line {lineno}: malformed header {s!r}")
            try:
                header = num_vars, num_clauses, top = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {s!r}") from None
            if num_vars < 1 or num_clauses < 0 or top < 1:
                raise CnfError(f"line {lineno}: malformed header {s!r}")
            continue
        tokens = s.split()
        if tokens[-1] != "0":
            raise CnfError(f"line {lineno}: clause missing terminating 0")
        try:
            weight = None if tokens[0] == "h" else int(tokens[0])
            lits = tuple(map(int, tokens[1:-1]))
        except ValueError:
            raise CnfError(f"line {lineno}: bad token in clause {s!r}") from None
        if weight is not None and top is not None and weight >= top:
            weight = None
        add_literals(lits)
        add_weight(weight)
    return header, literals, weights


# deleting these leaves nothing of a block of plain clause lines
_CLAUSE_LINE_CHARS = str.maketrans("", "", "0123456789 -\n")


def _read_clause_block(block, top):
    """The clauses of a block of "<weight> <literal>... 0" lines, read with
    one ``np.fromstring`` whose values become the view's arrays; None when
    the per-line reader might read the block otherwise.

    The checks leave only tokens of an optional "-" and digits, on which
    numpy and ``int`` agree unless the token passes int64, where numpy
    saturates: only digits, spaces, "-" and newlines (no other line
    separator, no "c", "p" or "h" line); every "-" after a space and before
    a digit; every line, the last included, ends in " 0\n", and that 0 is
    the line's only zero value (no "-0", "00", blank line or trailing
    space); no saturated value.  A line " 0" reads as it does per line, as
    a clause of no literals whose weight is its terminator."""
    lines = block.count("\n")
    if not (block.endswith("\n") and not block.translate(_CLAUSE_LINE_CHARS)
            and block.count(" 0\n") == lines
            and block.count("-") == block.count(" -") and "- " not in block):
        return None
    with warnings.catch_warnings():
        # numpy 1.x reports unparsed text with a warning, 2.x with ValueError
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(block, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    ends = np.flatnonzero(values == 0)
    if len(ends) != lines or values.max() == _INT64_MAX or values.min() == -_INT64_MAX - 1:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    is_literal = np.ones(len(values), dtype=bool)
    is_literal[starts] = False
    is_literal[ends] = False
    weights = values[starts].astype(object)
    if top is not None:
        # no value read here reaches int64's max, so min() keeps the test exact
        weights[values[starts] >= min(top, _INT64_MAX)] = None
    lengths = np.maximum(ends - starts - 1, 0)
    return ClauseView(values[is_literal], _offsets(lengths), weights.tolist())
