"""Weighted CNF formulas and DIMACS WCNF serialization.

Literals are nonzero integers: ``v`` means variable ``v`` is true, ``-v``
means it is false.  A clause weight of ``None`` marks the clause as hard;
hard clauses are serialized with the formula's top weight.

``Clause`` is a plain record; ``WcnfFormula`` is where clauses are checked,
once each, when the formula is built.  The check runs in numpy over
``CHECK_CHUNK`` clauses at a time; a chunk that fails, or whose literals
numpy cannot hold as int64, is checked again clause by clause, which raises
the ``CnfError`` of its first bad clause.

DIMACS WCNF goes out and comes in in bulk.  ``write_dimacs`` builds one flat
list of tokens and joins it once.  ``parse_dimacs`` reads its clause lines
in blocks of about ``PARSE_CHUNK`` characters, each with one
``np.fromstring``; a block that numpy might read otherwise than the
per-line reader (CR line ends, comments, "h" lines, odd tokens) goes to the
per-line reader, so the clauses and the ``line N: ...`` errors are the
same either way.

Building a large formula allocates hundreds of thousands of clause objects
and frees none of them, so the cyclic garbage collector's passes over them
find nothing to free.  ``gc_paused`` switches it off while the encoder,
``parse_dimacs`` and the solver's loading loop build their clauses.
"""

from __future__ import annotations

import gc
import numbers
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

# clauses per bulk check; bounds the check's temporary arrays
CHECK_CHUNK = 1 << 14
# characters per block of clause lines that parse_dimacs reads in numpy
PARSE_CHUNK = 1 << 20


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

    def satisfied_by(self, assignment) -> bool:
        return any(assignment[abs(l)] == (l > 0) for l in self.literals)


@dataclass(frozen=True)
class WcnfFormula:
    """Ordered weighted clause set.

    ``top`` is the hard-clause sentinel weight and must exceed the sum of all
    soft weights.  When not given it defaults to that sum plus one.
    Construction checks every clause: nonempty, integer literals, no literal
    0, no variable twice, every variable within ``num_vars``, soft weights at
    least 1.  It checks ``CHECK_CHUNK`` clauses at a time in numpy and
    re-checks a chunk clause by clause only to name its first bad clause, so
    the ``CnfError`` is the same either way.  The same pass keeps the hard
    and soft clauses apart, in formula order.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    top: int | None = None
    hard_clauses: tuple[Clause, ...] = field(init=False, repr=False, compare=False)
    soft_clauses: tuple[Clause, ...] = field(init=False, repr=False, compare=False)
    soft_weight_sum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clauses = tuple(self.clauses)
        num_vars = self.num_vars
        if num_vars < 1:
            raise CnfError("formula needs at least one variable")
        hard, soft = [], []
        soft_sum = 0
        for start in range(0, len(clauses), CHECK_CHUNK):
            chunk = clauses[start:start + CHECK_CHUNK]
            checked = _bulk_check(chunk, num_vars, soft_sum)
            if checked is None:
                checked = _clause_check(chunk, num_vars, soft_sum)
            chunk_hard, chunk_soft, soft_sum = checked
            hard += chunk_hard
            soft += chunk_soft
        top = soft_sum + 1 if self.top is None else int(self.top)
        if top <= soft_sum:
            raise CnfError(f"top weight {top} must exceed soft weight sum {soft_sum}")
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "hard_clauses", tuple(hard))
        object.__setattr__(self, "soft_clauses", tuple(soft))
        object.__setattr__(self, "soft_weight_sum", soft_sum)

    def hard_satisfied(self, assignment) -> bool:
        """Whether a total assignment satisfies every hard clause."""
        true = _true_literals(assignment)
        return not any(true.isdisjoint(c.literals) for c in self.hard_clauses)

    def falsified_weight(self, assignment) -> int:
        """Total weight of soft clauses falsified by a total assignment."""
        true = _true_literals(assignment)
        return sum(c.weight for c in self.soft_clauses if true.isdisjoint(c.literals))


def _true_literals(assignment) -> set[int]:
    """The literals a ``{variable: bool}`` assignment makes true."""
    return {v if value else -v for v, value in assignment.items()}


def _clause_check(chunk, num_vars, soft_sum):
    """Check clauses one by one; returns (hard, soft, soft_sum plus their
    soft weights) or raises the ``CnfError`` of the first bad clause."""
    hard, soft = [], []
    for c in chunk:
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
        if c.weight is None:
            hard.append(c)
        else:
            if c.weight < 1:
                raise CnfError(f"soft clause weight must be >= 1, got {c.weight}")
            soft.append(c)
            soft_sum += c.weight
    return hard, soft, soft_sum


_literals = operator.attrgetter("literals")
_weight = operator.attrgetter("weight")


def _bulk_check(chunk, num_vars, soft_sum):
    """The checks of ``_clause_check`` over a whole chunk at once.  Returns
    its result, or None when the chunk fails or holds values numpy does not
    represent exactly (non-int literals, or any beyond int64); the caller
    then runs ``_clause_check`` on the chunk."""
    if not all(issubclass(t, Clause) for t in set(map(type, chunk))):
        return None
    try:
        lits = list(map(_literals, chunk))
        lengths = np.fromiter(map(len, lits), dtype=np.intp, count=len(lits))
        flat = np.array(list(chain.from_iterable(lits)))
        weights = list(map(_weight, chunk))
        is_hard = list(map(operator.is_, weights, repeat(None)))
        is_soft = list(map(operator.not_, is_hard))
        hard = list(compress(chunk, is_hard))
        soft = list(compress(chunk, is_soft))
        soft_weights = list(compress(weights, is_soft))
        if any(map(operator.lt, soft_weights, repeat(1))):
            return None
        soft_sum = sum(soft_weights, soft_sum)
    except (TypeError, ValueError):
        return None
    if lengths.min() < 1 or flat.dtype != np.int64 or flat.ndim != 1:
        return None
    variables = np.abs(flat)  # -2**63 stays negative and fails the next test
    if variables.min() < 1 or int(variables.max()) > num_vars:
        return None
    # a variable repeats within a clause iff (clause, variable) keys repeat;
    # a chunk whose keys would pass int64 goes to the per-clause check
    span = int(variables.max()) + 1
    if len(chunk) * span >= 2**63:
        return None
    keys = np.repeat(np.arange(len(chunk), dtype=np.int64), lengths) * span + variables
    keys.sort(kind="stable")  # adaptive: the keys are already sorted by clause
    if (keys[1:] == keys[:-1]).any():
        return None
    return hard, soft, soft_sum


def write_dimacs(formula: WcnfFormula, comments: tuple[str, ...] = ()) -> str:
    """Serialize to classic WCNF ("p wcnf <vars> <clauses> <top>"), LF endings.

    Clause order is preserved exactly; hard clauses carry the top weight.
    The clause lines are one flat list of tokens (weight, literals, "0\\n"
    per clause) joined once.  A literal's text comes from a table of
    ``str(l)`` for every literal, indexed by ``l`` itself (negative ``l``
    from the end); the table is built only when ``num_vars`` is at most the
    formula's literal count, so its size stays bounded by the formula's,
    and ``str`` serves otherwise.  A comment that holds a line break raises
    ``CnfError``, since the reader would take its second line for a clause.
    """
    for c in comments:
        if c.splitlines() not in ([c], []):
            raise CnfError(f"comment {c!r} contains a line break")
    head = "".join(f"c {c}\n" for c in comments)
    head += f"p wcnf {formula.num_vars} {len(formula.clauses)} {formula.top}\n"
    n = formula.num_vars
    if n <= sum(map(len, map(_literals, formula.clauses))):
        table = [str(l) for l in range(n + 1)] + [str(l) for l in range(-n, 0)]
        literal_text = table.__getitem__
    else:
        literal_text = str
    top = str(formula.top)
    tokens = []
    append = tokens.append
    for c in formula.clauses:
        w = c.weight
        append(top if w is None else str(w))
        tokens += map(literal_text, c.literals)
        append("0\n")
    return head + " ".join(tokens).replace("\n ", "\n")


@gc_paused()
def parse_dimacs(text: str) -> WcnfFormula:
    """Parse WCNF text. Classic headers are canonical; the header-less
    "h"-marker variant is accepted too. Weights >= top normalize to hard.

    Only syntax is checked here, with line numbers: at most one header, and
    it comes before every clause.  ``WcnfFormula`` checks the clauses
    themselves.

    The leading comment and header lines go to the per-line reader; the
    rest is cut at newlines into blocks of about ``PARSE_CHUNK``
    characters.  A block that numpy provably reads as the per-line reader
    would is read in numpy (``_read_clause_block``); any other goes to the
    per-line reader with its true starting line number, so the clauses and
    the ``line N: ...`` errors are those of reading the text line by line."""
    header, clauses = _read_clauses(text)
    num_vars, num_clauses, top = header or (None, None, None)
    if not clauses and num_vars is None:
        raise CnfError("no header and no clauses found")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(
            f"header declares {num_clauses} clauses but file contains {len(clauses)}"
        )
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c.literals), default=0)
    return WcnfFormula(num_vars, tuple(clauses), top)


def _read_clauses(text):
    """The header ``(num_vars, num_clauses, top)``, or None, and the clauses
    of ``text``, read block by block."""
    header = None
    clauses: list[Clause] = []
    lineno = 1
    for block in _blocks(text):
        read = _read_clause_block(block, None if header is None else header[2])
        if read is None:
            lines = block.splitlines()
            header = _read_lines(lines, lineno, header, clauses)
            lineno += len(lines)
        else:
            clauses += read
            lineno += len(read)
    return header, clauses


def _blocks(text):
    """Cut ``text`` after newlines: first the leading comment and header
    lines, then blocks of about ``PARSE_CHUNK`` characters (a longer line
    makes a longer block).  Any text after the last newline is a block of
    its own, so every other block ends with a newline."""
    pos, n = 0, len(text)
    while text.startswith(("c", "p"), pos):
        pos = text.find("\n", pos) + 1 or n
    if pos:
        yield text[:pos]
    while pos < n:
        end = text.rfind("\n", pos, pos + PARSE_CHUNK) + 1
        if end <= pos:
            end = text.find("\n", pos + PARSE_CHUNK) + 1 or n
        yield text[pos:end]
        pos = end


def _read_lines(lines, lineno, header, clauses):
    """The per-line reader: appends the clauses of ``lines`` (the first is
    line ``lineno`` of the file) to ``clauses``.  ``header`` is the
    ``(num_vars, num_clauses, top)`` read so far, or None; returns it as it
    stands after these lines."""
    top = None if header is None else header[2]
    append = clauses.append
    for lineno, line in enumerate(lines, start=lineno):
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if header is not None or clauses:
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
        append(Clause(lits, weight))
    return header


# deleting these leaves nothing of a block of plain clause lines
_CLAUSE_LINE_CHARS = str.maketrans("", "", "0123456789 -\n")
_INT64_MAX = np.iinfo(np.int64).max


def _read_clause_block(block, top):
    """The clauses of a block of "<weight> <literal>... 0" lines, read with
    one ``np.fromstring``; None when the per-line reader might read the
    block otherwise.

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
    weights = values[starts].astype(object)
    if top is not None:
        # no value read here reaches int64's max, so min() keeps the test exact
        weights[values[starts] >= min(top, _INT64_MAX)] = None
    flat = values.tolist()
    literals = [tuple(flat[a:b]) for a, b in zip((starts + 1).tolist(), ends.tolist())]
    return list(map(Clause, literals, weights.tolist()))
