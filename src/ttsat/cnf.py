"""Weighted CNF formulas and DIMACS WCNF serialization.

Literals are nonzero integers: ``v`` means variable ``v`` is true, ``-v``
means it is false.  A ``Clause`` weight of ``None`` marks the clause as
hard; hard clauses are serialized with the formula's top weight.

Storage.  A ``WcnfFormula`` holds its clauses once, as three parallel int64
arrays: every literal in formula order, the clause offsets (clause ``i`` is
``literals[offsets[i]:offsets[i + 1]]``) and one weight per clause, 0 for
hard.  Soft weights are at least 1 and must fit int64.  No Python object
is kept per clause, and only this module reads or writes the hard 0.

Views.  ``clauses`` is a ``ClauseView`` of those whole arrays: an
iterable of ``Clause`` records (weight ``None`` or a Python int), built
one at a time as it is iterated, with no indexing.  It takes ``len()``
from its weights and compares with another view by array equality.
``soft_weights`` lists the soft clauses' weights in formula order, as
Python ints.  Iteration and the SAT core's loading read ``lists()``, one
new list per clause; ``write_dimacs`` and the formula's check read
``arrays()``, and all of them walk the arrays ``CLAUSE_CHUNK`` clauses at a
time with ``clause_chunks``; ``falsified_weight`` reads them whole.  Only
ttsat builds views: ``clause_block``, ``concat_clauses``, ``parse_dimacs``
and the encoder's families.

Checking.  ``Clause`` and ``ClauseView`` are unchecked; ``WcnfFormula``
takes a view and nothing else, and checks every clause once, when it is
built.  Every clause value takes its int64 form once, where it enters, and
is checked there.  ``clause_block`` raises TypeError on a Python-side
value that is no integer, OverflowError on one past int64 and ValueError
on a soft weight below 1; the per-line reader of ``parse_dimacs`` raises
the ``CnfError`` "line N: ..." of a soft weight below 1 or a value past
int64; the encoder names a soft weight past int64.  The formula takes a
view's arrays as they are, weights too, and checks the clauses in numpy,
in chunks; for the first bad clause it finds, a message is built from
that clause's literals.  ``num_vars`` must fit int64, as every literal
must.  A formula's arrays are read-only: the formula keeps the view it is
given, its very arrays, not copies, and makes them read-only for their
other holders too.

DIMACS WCNF goes out and comes in in bulk.  ``write_dimacs`` formats the
arrays ``CLAUSE_CHUNK`` clauses at a time, each chunk as one token array
joined once, and joins the chunks' text.  Each token carries its own
separator ("<weight> ", "<literal> ", "0\n"), so a chunk's text is one
``"".join`` of its tokens, with no pass that mends separators.
``parse_dimacs`` reads each text one way.  When numpy provably reads
every clause line as the per-line reader would, it reads them in blocks
of about ``PARSE_CHUNK`` characters.  A first pass proves each block on
its ASCII bytes (its characters, where its "-" and line ends stand) and
counts its clauses and literals, holding one block's bytes at a time.
The formula's literal, offset and weight arrays are then made once, at
their final size, and each block's one ``np.fromstring`` fills its own
slices of them, once its values number exactly its spaces and newlines:
one value per token, no lone "-" and no doubled separator.  Any oddity (a
line end other than "\n", comments among the clauses, "h" lines, odd
tokens) sends the whole text to the per-line reader instead, so the
clauses and the ``line N: ...`` errors are the same either way.  A file
read in text mode, as the CLI reads one, has had its CRLF and CR line
ends made "\n" already.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# characters per block of clause lines that parse_dimacs reads in numpy
PARSE_CHUNK = 1 << 20
# clauses per chunk of clause_chunks, the step of the work that makes
# temporaries per literal or per clause (the formula's check, a view's
# lists(), write_dimacs), so that those stay small
CLAUSE_CHUNK = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


class CnfError(ValueError):
    """Malformed clause, formula, DIMACS text, or solver output."""


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


class ClauseView:
    """Iterable of ``Clause`` over whole clause arrays.

    Clause ``i`` is ``literals[offsets[i]:offsets[i + 1]]`` with weight
    ``weights[i]`` of an int64 array, 0 for hard (no ``weights``: all
    hard).  Iteration builds the ``Clause`` records, their weights None or
    Python ints, one at a time; a view has no indexing.  ``lists()`` gives
    the literals alone.  Views compare only with views, by their arrays.
    The constructor is internal (outside code calls ``clause_block``), and
    ``WcnfFormula`` checks the clauses."""

    __slots__ = ("_literals", "_offsets", "_weights")

    def __init__(self, literals, offsets, weights=None):
        self._literals = literals
        self._offsets = offsets
        self._weights = np.zeros(len(offsets) - 1, dtype=np.int64) if weights is None else weights

    def __len__(self):
        return len(self._weights)

    def __iter__(self):
        weights = (w or None for w in self._weights.tolist())
        return map(Clause, map(tuple, self.lists()), weights)

    def __eq__(self, other):
        if not isinstance(other, ClauseView):
            return NotImplemented
        return all(map(np.array_equal, self.arrays(), other.arrays()))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(literals, offsets, weights)``: the stored arrays themselves,
        not to be modified."""
        return self._literals, self._offsets, self._weights

    def hard(self) -> np.ndarray:
        """Per clause, whether it is hard."""
        return self._weights == 0

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
    in ``literals``; ``weights`` gives one weight per clause, None for hard,
    and None (the default) makes every clause hard.  Raises TypeError on a
    value that is not an integer, OverflowError on one that passes int64
    and ValueError on a soft weight below 1."""
    literals = list(literals)
    lengths = np.fromiter(map(len, literals), dtype=np.int64, count=len(literals))
    flat = np.fromiter(map(operator.index, chain.from_iterable(literals)),
                       dtype=np.int64, count=int(lengths.sum()))
    if weights is not None:
        weights = list(weights)
        hard = weights.count(None)
        weights = np.array([0 if w is None else w if type(w) is int else operator.index(w)
                            for w in weights], dtype=np.int64)
        if np.count_nonzero(weights < 1) != hard:  # a soft 0 must not pass for hard
            raise ValueError("soft clause weight below 1")
    return ClauseView(flat, _offsets(lengths), weights)


def concat_clauses(blocks) -> ClauseView:
    """One view over new arrays holding the clauses of ``blocks`` (views), in order."""
    parts = [block.arrays() for block in blocks]
    if not parts:
        return clause_block(())
    literals, offsets, weights = zip(*parts)
    lengths = np.concatenate([np.diff(o) for o in offsets])
    return ClauseView(np.concatenate(literals), _offsets(lengths), np.concatenate(weights))


@dataclass(frozen=True)
class WcnfFormula:
    """Ordered weighted clause set.

    ``clauses`` is a ``ClauseView`` (from ``clause_block``,
    ``concat_clauses``, the encoder or ``parse_dimacs``); anything else
    raises TypeError.  ``top`` is the hard-clause sentinel weight and must
    exceed the sum of all soft weights.  When not given it defaults to
    that sum plus one.  Construction checks every clause: nonempty, no
    literal 0, no variable twice, every variable within ``num_vars``.  A
    bad formula raises the ``CnfError`` of its first bad clause.  The
    view's weights are taken as they are: ``clause_block``, the readers
    and the encoder have checked them.  ``soft_weights`` lists the soft
    clauses' weights in formula order, as Python ints, and ``max_var`` is
    the largest variable a clause holds (0 with no clauses).

    The formula keeps the view it is given, and with it the view's literal,
    offset and weight arrays, not copies; it clears their ``writeable``
    flag, so the caller can no longer change them in place either.  A copy
    would double the memory a large formula's arrays take while it is
    built.
    """

    num_vars: int
    clauses: ClauseView
    top: int | None = None
    soft_weights: list = field(init=False, repr=False, compare=False)
    soft_weight_sum: int = field(init=False, repr=False, compare=False)
    max_var: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num_vars = self.num_vars
        if num_vars < 1:
            raise CnfError("formula needs at least one variable")
        if num_vars > _INT64_MAX:
            raise CnfError(f"num_vars={num_vars} does not fit in int64, as every literal must")
        if not isinstance(self.clauses, ClauseView):
            raise TypeError(f"expected ClauseView, got {type(self.clauses).__name__}")
        literals, offsets, weights = self.clauses.arrays()
        max_var = _largest_variable(literals)
        bad = _first_bad_clause(literals, offsets, num_vars, max_var)
        if bad is not None:
            lits = tuple(literals[offsets[bad]:offsets[bad + 1]].tolist())
            raise CnfError(_bad_clause_message(lits, num_vars))
        soft_weights = weights[weights != 0].tolist()
        soft_sum = sum(soft_weights)
        top = soft_sum + 1 if self.top is None else int(self.top)
        if top <= soft_sum:
            raise CnfError(f"top weight {top} must exceed soft weight sum {soft_sum}")
        literals.flags.writeable = offsets.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "soft_weights", soft_weights)
        object.__setattr__(self, "soft_weight_sum", soft_sum)
        object.__setattr__(self, "max_var", max_var)

    def falsified_weight(self, model) -> int | None:
        """The weight of the soft clauses ``model`` falsifies, an exact Python
        int, or None when it falsifies a hard clause: one pass prices and
        checks it.  ``model[v]`` is variable v's value in a bool array of
        ``num_vars + 1`` slots, else ValueError; ``model[0]`` is not read."""
        model = np.asarray(model, dtype=bool)
        if model.shape != (self.num_vars + 1,):
            raise ValueError(f"model of shape {model.shape} for num_vars={self.num_vars}")
        literals, offsets, weights = self.clauses.arrays()
        if not len(literals):
            return 0
        # literal l is true iff truth[l], -v from the end, over 1..max_var only
        truth = np.concatenate((model[:self.max_var + 1], ~model[self.max_var:0:-1]))
        falsified = weights[~np.logical_or.reduceat(truth[literals], offsets[:-1])]
        # a falsified hard clause shows as its weight 0
        return sum(falsified.tolist()) if falsified.all() else None


def _first_bad_clause(literals, offsets, num_vars, max_var):
    """The number of the first clause that is empty, holds a variable
    outside 1..num_vars (literal 0 included) or repeats a variable; None
    when every clause is sound.  ``num_vars`` fits int64, and ``max_var``
    is the literals' ``_largest_variable``.  The clauses are
    checked ``CLAUSE_CHUNK`` at a time, or fewer when the chunk's (clause,
    variable) keys would pass int64: only where variables pass about
    2**63 / CLAUSE_CHUNK, down to one clause a chunk near 2**63."""
    # the keys hold no variable above this: one outside 1..num_vars becomes 0
    largest = min(num_vars, max_var)
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


def _bad_clause_message(lits, num_vars) -> str:
    """What is wrong with ``lits``, a clause ``_first_bad_clause`` rejects:
    checked in order, it is empty, holds 0, repeats a variable or passes
    ``num_vars``."""
    if not lits:
        return "clause must contain at least one literal"
    variables = set(map(abs, lits))
    if 0 in variables:
        return f"0 is the clause terminator, not a literal, in {lits}"
    if len(variables) != len(lits):
        return f"a variable occurs twice in clause {lits}"
    return f"variable {max(variables)} in clause {lits} exceeds num_vars={num_vars}"


def write_dimacs(formula: WcnfFormula, comments: tuple[str, ...] = ()) -> str:
    """Serialize to classic WCNF ("p wcnf <vars> <clauses> <top>"), LF endings.

    Clause order is preserved exactly; hard clauses carry the top weight.
    A clause line is the tokens "<weight> ", "<literal> " per literal and
    "0\\n": each token ends in its own separator, so text is only ever
    joined, never mended.  The lines are formatted ``CLAUSE_CHUNK``
    clauses at a time, each chunk as one array of int codes, filled from
    the formula's arrays, into one array of words: "0\\n", the top
    weight, the distinct soft weights sorted, then ``f"{l} "`` for every
    literal -num_vars..num_vars.  The chunk's words are joined once, so the
    temporaries stay the size of a chunk and the text is built by one
    final join.  The literal words are built only when ``num_vars`` is at
    most the formula's literal count, so their number stays bounded by the
    formula's; otherwise each chunk formats its own literals.  A comment
    that holds a line break raises ``CnfError``, since the reader would
    take its second line for a clause.
    """
    for c in comments:
        if c.splitlines() not in ([c], []):
            raise CnfError(f"comment {c!r} contains a line break")
    head = "".join(f"c {c}\n" for c in comments)
    head += f"p wcnf {formula.num_vars} {len(formula.clauses)} {formula.top}\n"
    literals, offsets, weights = formula.clauses.arrays()
    n = formula.num_vars
    # sorted with 0 (hard) first: weight w's word is words[1 + its index], the top's for 0
    distinct = np.unique(np.append(weights[weights != 0], 0))
    words = np.array(["0\n", f"{formula.top} ", *map("{} ".format, distinct[1:].tolist())],
                     dtype=object)
    table = _literal_table(n, len(literals), "{} ".format)
    if table is not None:
        literal_code = len(words) + n
        words = np.concatenate([words, table])
    pieces = [head]
    for start, lits, chunk in clause_chunks(literals, offsets):
        if table is None:
            chunk_words = np.concatenate(
                [words, np.array(list(map("{} ".format, lits.tolist())), dtype=object)])
            lit_codes = np.arange(len(words), len(chunk_words))
        else:
            chunk_words, lit_codes = words, lits + literal_code
        end = start + len(chunk) - 1
        shift = 2 * np.arange(end - start)
        codes = np.zeros(len(lits) + 2 * len(shift), dtype=np.int64)  # "0\n" by default
        codes[chunk[:-1] + shift] = 1 + np.searchsorted(distinct, weights[start:end])
        codes[np.arange(len(lits)) + np.repeat(shift + 1, np.diff(chunk))] = lit_codes
        pieces.append("".join(chunk_words[codes].tolist()))
    return "".join(pieces)


def parse_dimacs(text: str) -> WcnfFormula:
    """Parse WCNF text. Classic headers are canonical; the header-less
    "h"-marker variant is accepted too, its ``num_vars`` the largest
    variable.  Weights >= top normalize to hard.

    Syntax is checked here, with line numbers: at most one header, and it
    comes before every clause.  The per-line reader also names the line of
    a soft weight below 1 and of a value past int64.  ``WcnfFormula``
    checks the clauses themselves.

    Each text is read one way.  The leading comment and header lines go to
    the per-line reader; the rest is cut at newlines into blocks of about
    ``PARSE_CHUNK`` characters, which ``_read_clause_blocks`` reads in
    numpy when it can prove that numpy reads every block as the per-line
    reader would.  Otherwise, or when the leading lines already hold a
    clause (a line end other than "\n" among them), the whole text is read
    line by line, so the clauses and the ``line N: ...`` errors are always
    those of the per-line reader.  Either reader returns the clauses as one
    view over int64 arrays."""
    cuts = _cuts(text)
    lead = text[:cuts[0]]
    header, clauses = _read_lines(lead.splitlines())
    top = None if header is None else header[2]
    blocks = None if clauses else _read_clause_blocks(text, cuts, top)
    if blocks is not None:
        clauses = blocks
    elif len(lead) < len(text):
        header, clauses = _read_lines(text.splitlines())
    num_vars, num_clauses, top = header or (None, None, None)
    if not clauses and num_vars is None:
        raise CnfError("no header and no clauses found")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(
            f"header declares {num_clauses} clauses but file contains {len(clauses)}"
        )
    if num_vars is None:
        num_vars = _largest_variable(clauses.arrays()[0])
    return WcnfFormula(num_vars, clauses, top)


def _cuts(text):
    """Where ``text`` is cut, each time after a newline: first the end of
    the leading comment and header lines (0 when there are none), then the
    end of each block of about ``PARSE_CHUNK`` characters (a longer line
    makes a longer block), the last at ``len(text)``.  Any text after the
    last newline is a block of its own, so every other block ends with a
    newline."""
    pos, n = 0, len(text)
    while text.startswith(("c", "p"), pos):
        pos = text.find("\n", pos) + 1 or n
    cuts = [pos]
    while pos < n:
        end = text.rfind("\n", pos, pos + PARSE_CHUNK) + 1
        if end <= pos:
            end = text.find("\n", pos + PARSE_CHUNK) + 1 or n
        cuts.append(end)
        pos = end
    return cuts


def _read_lines(lines):
    """The per-line reader: ``(header, clauses)`` of ``lines``, the first
    of which is line 1.  ``header`` is ``(num_vars, num_clauses, top)``, or
    None; ``clauses`` is a view over new int64 arrays, weight 0 for hard.
    A soft weight below 1 and a value past int64 raise the ``CnfError`` of
    their line.  It keeps a flat list each of literals, clause lengths and
    weights, and no object per clause."""
    header = top = None
    literals: list[int] = []
    lengths: list[int] = []
    weights: list[int] = []
    add_length, add_weight = lengths.append, weights.append
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
            weight = 0 if tokens[0] == "h" else int(tokens[0])
            lits = tuple(map(int, tokens[1:-1]))
        except ValueError:
            raise CnfError(f"line {lineno}: bad token in clause {s!r}") from None
        if top is not None and weight >= top:
            weight = 0
        elif weight < 1 and tokens[0] != "h":
            raise CnfError(f"line {lineno}: soft clause weight must be >= 1, got {weight}")
        if weight > _INT64_MAX:
            raise CnfError(f"line {lineno}: soft clause weight {weight} does not fit in int64")
        if lits and (min(lits) < _INT64_MIN or max(lits) > _INT64_MAX):
            big = next(l for l in lits if not _INT64_MIN <= l <= _INT64_MAX)
            raise CnfError(f"line {lineno}: literal {big} does not fit in int64")
        literals += lits
        add_length(len(lits))
        add_weight(weight)
    clauses = ClauseView(np.array(literals, dtype=np.int64),
                         _offsets(np.array(lengths, dtype=np.int64)),
                         np.array(weights, dtype=np.int64))
    return header, clauses


# deleting these bytes leaves nothing of a block of plain clause lines
_CLAUSE_LINE_BYTES = b"0123456789 -\n"


def _read_clause_blocks(text, cuts, top):
    """The clauses of ``text[cuts[0]:]``, the blocks between successive
    ``cuts``, read in numpy as one view; None when the per-line reader
    might read a block otherwise.

    A first pass checks and measures each block on its bytes
    (``_clause_block_shape``), holding one block's bytes at a time.  The
    literal, offset and weight arrays are then made once, at their final
    size, and ``_read_clause_block`` reads each block into its own slices
    of them.  The clause lengths go into the offset array, which one
    running sum then makes offsets."""
    bounds = list(zip(cuts, cuts[1:]))
    shapes = []
    for start, end in bounds:
        shapes.append(_clause_block_shape(text[start:end]))
        if shapes[-1] is None:
            return None
    num_clauses = sum(clauses for clauses, _ in shapes)
    literals = np.empty(sum(lits for _, lits in shapes), dtype=np.int64)
    offsets = np.zeros(num_clauses + 1, dtype=np.int64)
    weights = np.empty(num_clauses, dtype=np.int64)
    clause = literal = 0
    for (start, end), (clauses, lits) in zip(bounds, shapes):
        if _read_clause_block(text[start:end], top, literals[literal:literal + lits],
                              offsets[clause + 1:clause + 1 + clauses],
                              weights[clause:clause + clauses]) is None:
            return None
        clause += clauses
        literal += lits
    np.cumsum(offsets, out=offsets)
    return ClauseView(literals, offsets, weights)


def _clause_block_shape(block):
    """``(clauses, literals)``, the counts of a block of "<weight>
    <literal>... 0" lines, when its bytes pass the checks numpy's reading
    rests on; None otherwise.

    The block holds only ASCII digits, spaces, "-" and newlines (no other
    line separator, no "c", "p" or "h" line); every "-" follows a space;
    every line, the last included, ends in " 0\n".  What is left to prove,
    ``_read_clause_block`` proves from the counts: a line of ``k`` literals
    holds ``k + 2`` values, one per space and newline, a count that needs
    the final "\n": without it a trailing space or a lone "-" ("5 1 ",
    "5 - 2") balances the count of a line with no terminating 0."""
    if not block.isascii():
        return None
    raw = block.encode("ascii")
    lines = raw.count(b"\n")
    if not (raw.endswith(b"\n") and not raw.translate(None, _CLAUSE_LINE_BYTES)
            and raw.count(b" 0\n") == lines and raw.count(b"-") == raw.count(b" -")):
        return None
    return lines, raw.count(b" ") - lines


def _read_clause_block(block, top, literals, lengths, weights):
    """Read ``block``, which ``_clause_block_shape`` has passed, with one
    ``np.fromstring`` of its text into the slices it measured: its
    literals, the literal count of each clause and each clause's weight (0
    for hard).  True when numpy provably read it as the per-line reader
    would; None otherwise, with the slices in an unknown state.

    numpy makes at most one value of a token those checks pass.  So the
    block holds exactly one value per separator only when it has no lone
    "-" (numpy reads "- 2" as -2) and no doubled, leading or trailing
    separator.  Its tokens are then an optional "-" and digits, on which
    numpy and ``int`` agree unless the token passes int64, where numpy
    saturates.  Also ruled out: a second zero value on a line ("-0", "00",
    blank line); a saturated value.  A line " 0" (a soft weight 0 to the
    per-line reader) needs no rule: its space is a leading or doubled
    separator, so the block holds fewer values than separators."""
    with warnings.catch_warnings():
        # numpy 1.x reports unparsed text with a warning, 2.x with ValueError
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(block, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if len(values) != len(literals) + 2 * len(weights):
        return None
    ends = np.flatnonzero(values == 0)
    if len(ends) != len(weights) or values.max() == _INT64_MAX or values.min() == _INT64_MIN:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    np.subtract(ends, starts + 1, out=lengths)
    is_literal = np.ones(len(values), dtype=bool)
    is_literal[starts] = False
    is_literal[ends] = False
    literals[:] = values[is_literal]
    weights[:] = values[starts]
    if top is not None:
        # no value read here reaches int64's max, so min() keeps the test exact
        weights[weights >= min(top, _INT64_MAX)] = 0
    return True
