"""Weighted CNF formulas, DIMACS WCNF serialization, and solver-output parsing.

Literals are nonzero integers: ``v`` means variable ``v`` is true, ``-v``
means it is false.  A clause weight of ``None`` marks the clause as hard;
hard clauses are serialized with the formula's top weight.

``Clause`` is a plain record; ``WcnfFormula`` is where clauses are checked,
once each, when the formula is built.  The check runs in numpy over
``CHECK_CHUNK`` clauses at a time; a chunk that fails, or whose literals
numpy cannot hold as int64, is checked again clause by clause, which raises
the ``CnfError`` of its first bad clause.

Building a large formula allocates hundreds of thousands of clause objects
and frees none of them, so the cyclic garbage collector's passes over them
find nothing to free.  ``gc_paused`` switches it off while the encoder,
``parse_dimacs`` and the solver's loading loop build their clauses.
"""

from __future__ import annotations

import gc
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat

import numpy as np

# clauses per bulk check; bounds the check's temporary arrays
CHECK_CHUNK = 1 << 14


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
    """
    lines = [f"c {c}" for c in comments]
    lines.append(f"p wcnf {formula.num_vars} {len(formula.clauses)} {formula.top}")
    for c in formula.clauses:
        w = formula.top if c.is_hard else c.weight
        lines.append(f"{w} {' '.join(map(str, c.literals))} 0")
    return "\n".join(lines) + "\n"


@gc_paused()
def parse_dimacs(text: str) -> WcnfFormula:
    """Parse WCNF text. Classic headers are canonical; the header-less
    "h"-marker variant is accepted too. Weights >= top normalize to hard.

    Only syntax is checked here, with line numbers: at most one header, and
    it comes before every clause.  ``WcnfFormula`` checks the clauses
    themselves."""
    num_vars = num_clauses = top = None
    clauses: list[Clause] = []
    append = clauses.append
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens and tokens[-1] == "0":
            # the common line, "<weight> <literal>... 0", in one conversion
            try:
                ints = tuple(map(int, tokens))
            except ValueError:
                pass
            else:
                weight = ints[0]
                if top is not None and weight >= top:
                    weight = None
                append(Clause(ints[1:-1], weight))
                continue
        s = line.strip()
        if not s or s.startswith("c"):
            continue
        if s.startswith("p"):
            if num_vars is not None or clauses:
                where = "second header" if num_vars is not None else "header after clauses"
                raise CnfError(f"line {lineno}: {where} {s!r}")
            parts = s.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise CnfError(f"line {lineno}: malformed header {s!r}")
            try:
                num_vars, num_clauses, top = (int(x) for x in parts[2:])
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {s!r}") from None
            if num_vars < 1 or num_clauses < 0 or top < 1:
                raise CnfError(f"line {lineno}: malformed header {s!r}")
            continue
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
    if not clauses and num_vars is None:
        raise CnfError("no header and no clauses found")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise CnfError(
            f"header declares {num_clauses} clauses but file contains {len(clauses)}"
        )
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c.literals), default=0)
    return WcnfFormula(num_vars, tuple(clauses), top)


class OutputStatus(Enum):
    OPTIMUM = "OPTIMUM"
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SolverOutput:
    status: OutputStatus
    cost: int | None
    model: dict[int, bool] | None
    # an "s" line named the status: UNKNOWN with it is the solver's own
    # verdict, UNKNOWN without it means the output carried no status at all
    stated: bool = False


def parse_solver_output(text: str, num_vars: int | None = None) -> SolverOutput:
    """Read Max-SAT evaluation style output: "o <cost>", "s <status>", "v" lines.

    The last "o" line and the last "s" line win; an "s" line with a tag
    other than OPTIMUM FOUND, SAT..., UNSAT... or UNKNOWN states nothing.
    "v" lines may carry signed literals (classic) or a single contiguous
    0/1 string.  With ``num_vars`` given, literals out of range are an
    error and unmentioned variables default to false.
    """
    status = OutputStatus.UNKNOWN
    stated = False
    cost = None
    vtokens: list[str] = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("o ") or s == "o":
            parts = s.split()
            if len(parts) == 2:
                try:
                    cost = int(parts[1])
                except ValueError:
                    raise CnfError(f"bad objective line {s!r}") from None
        elif s.startswith("s "):
            tag = s[2:].strip().upper()
            stated = True
            if tag == "OPTIMUM FOUND":
                status = OutputStatus.OPTIMUM
            elif tag.startswith("UNSAT"):
                status = OutputStatus.UNSAT
            elif tag.startswith("SAT"):
                status = OutputStatus.SAT
            else:
                status = OutputStatus.UNKNOWN
                stated = tag == "UNKNOWN"
        elif s.startswith("v ") or s == "v":
            vtokens.extend(s[1:].split())
    model = None
    if vtokens:
        if len(vtokens) == 1 and len(vtokens[0]) > 1 and set(vtokens[0]) <= {"0", "1"}:
            bits = vtokens[0]
            model = {i + 1: bits[i] == "1" for i in range(len(bits))}
        else:
            model = {}
            for tok in vtokens:
                try:
                    lit = int(tok)
                except ValueError:
                    raise CnfError(f"bad literal {tok!r} in model line") from None
                if lit == 0:
                    continue
                model[abs(lit)] = lit > 0
        if num_vars is not None:
            for var in model:
                if var > num_vars:
                    raise CnfError(
                        f"model mentions variable {var} beyond num_vars={num_vars}"
                    )
            for var in range(1, num_vars + 1):
                model.setdefault(var, False)
    return SolverOutput(status, cost, model, stated)
