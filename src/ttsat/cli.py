"""Command-line front end: encode, solve, validate, gen, solve-wcnf, sample.

Exit codes are a stable contract: 0 optimum/feasible, 1 hard-unsatisfiable,
2 input error, 3 indeterminate, 4 internal consistency failure.  Result
lines and the timetable grid go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from . import __version__
from .cnf import parse_dimacs, write_dimacs
from .decode import (
    DecodeError,
    check_hard,
    compute_cost,
    decode_timetable,
    parse_timetable_csv,
    render_timetable,
)
from .encoder import EncodeOptions, encode
from .model import gen_random_instance, parse_instance, serialize_instance, validate_instance
from .sample import sample_text
from .solver import (
    MaxSatStatus,
    SolverConfig,
    SolverError,
    SolverInternalError,
    UntrustedSolverError,
    solve_external,
    solve_maxsat,
)

EXIT_OK = 0
EXIT_HARD_UNSAT = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_instance(path: str):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    instance = parse_instance(text)
    for f in validate_instance(instance):
        print(f"warning: {f.message}", file=sys.stderr)
    return instance, text


def _encode_options(args) -> EncodeOptions:
    return EncodeOptions(weighted=args.mode == "weighted")


def _solver_config(args, started: float) -> SolverConfig:
    """The run's solver settings; --timeout counts from ``started`` (the
    command's entry), so reading, encoding and loading use it up too."""
    timeout = args.timeout
    if timeout is not None:
        timeout = max(0.0, timeout - (time.monotonic() - started))
    return SolverConfig(seed=args.seed, timeout=timeout)


def _write_wcnf(formula, varmap, out_path: str, instance_text: str) -> None:
    digest = hashlib.sha256(instance_text.encode("utf-8")).hexdigest()[:16]
    comments = (f"ttsat {__version__}", f"instance sha256 {digest}")
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_dimacs(formula, comments))
    with open(out_path + ".map", "w", encoding="utf-8", newline="\n") as handle:
        for var in range(1, varmap.num_vars + 1):
            handle.write(f"var {var} {varmap.explain(var)}\n")


def _print_status(result) -> int:
    """Print the ``o`` and ``s`` lines of a result and return its exit code.

    A result with a model, an optimum or the checked best model of an
    INDETERMINATE run, starts with ``o <its cost>``; an INDETERMINATE one
    ends with ``c bounds <lower> <its cost, or ? without a model>``.  The
    caller prints the model itself after these lines."""
    if result.status is MaxSatStatus.HARD_UNSAT:
        print("s UNSATISFIABLE")
        return EXIT_HARD_UNSAT
    if result.model is not None:
        print(f"o {result.cost}")
    if result.status is MaxSatStatus.OPTIMUM:
        print("s OPTIMUM FOUND")
        return EXIT_OK
    print("s UNKNOWN")
    print(f"c bounds {result.lower} {result.cost if result.cost is not None else '?'}")
    return EXIT_INDETERMINATE


def cmd_encode(args) -> int:
    instance, text = _load_instance(args.instance)
    formula, varmap = encode(instance, _encode_options(args))
    _write_wcnf(formula, varmap, args.output, text)
    print(
        f"wrote {args.output} ({formula.num_vars} vars, {len(formula.clauses)} clauses, "
        f"top {formula.top}) and sidecar {args.output}.map",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.monotonic()
    instance, _ = _load_instance(args.instance)
    opts = _encode_options(args)
    formula, varmap = encode(instance, opts)

    cfg = _solver_config(args, started)
    if args.external_command is not None:
        result = solve_external(formula, args.external_command, cfg.timeout)
    else:
        result = solve_maxsat(formula, cfg)
    if result.model is None:
        return _print_status(result)

    # an optimum or an interrupted run's best model: both are checked
    # independently of the CNF before anything is printed
    timetable = decode_timetable(result.model, varmap, instance)
    report = compute_cost(timetable, instance, opts)
    hard = check_hard(timetable, instance)
    if hard or report.total_cost != result.cost:
        _err(
            f"solver/validator mismatch: solver cost {result.cost}, "
            f"validator cost {report.total_cost}, hard violations {len(hard)}"
        )
        return EXIT_INTERNAL

    code = _print_status(result)
    if code == EXIT_OK:
        total = formula.soft_weight_sum
        print(f"c soft weight satisfied {total - result.cost} of {total}")
    print(render_timetable(timetable, instance, args.format), end="")
    return code


def cmd_validate(args) -> int:
    instance, _ = _load_instance(args.instance)
    with open(args.timetable, encoding="utf-8") as handle:
        timetable = parse_timetable_csv(handle.read(), instance)
    opts = _encode_options(args)
    hard = check_hard(timetable, instance)
    report = compute_cost(timetable, instance, opts)
    for violation in hard:
        print(f"hard {violation.kind.value}: {violation.detail}")
    for entry in report.entries:
        print(f"soft {entry.kind.value} weight {entry.weight}: {entry.detail}")
    print(f"o {report.total_cost}")
    print("s FEASIBLE" if not hard else "s INFEASIBLE")
    return EXIT_OK if not hard else EXIT_HARD_UNSAT


def _emit(text: str, output: str | None) -> int:
    """Write ``text`` to ``output`` with LF line ends, or print it."""
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_gen(args) -> int:
    instance = gen_random_instance(
        args.seed,
        days=args.days,
        slots_per_day=args.slots_per_day,
        rooms=args.rooms,
        courses=args.courses,
        curricula=args.curricula,
        overlap_density=args.density,
    )
    return _emit(serialize_instance(instance), args.output)


def cmd_solve_wcnf(args) -> int:
    started = time.monotonic()
    with open(args.wcnf, encoding="utf-8") as handle:
        formula = parse_dimacs(handle.read())
    result = solve_maxsat(formula, _solver_config(args, started))
    code = _print_status(result)
    if result.model is not None:
        lits = [v if result.model[v] else -v for v in sorted(result.model)]
        print(f"v {' '.join(str(l) for l in lits)} 0")
    return code


def cmd_sample(args) -> int:
    return _emit(sample_text(), args.output)


def _add_common_encode_flags(p) -> None:
    p.add_argument("--mode", choices=("partial", "weighted"), default="weighted",
                   help="soft-clause weighting (default: weighted)")


def _add_solver_flags(p) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="random seed of the builtin solver (default: 0)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget counted from the command's start; "
                        "a spent budget prints 's UNKNOWN' and exits 3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttsat",
        description="Compile course timetabling instances to weighted partial "
                    "Max-SAT, solve them exactly, and validate the result.",
    )
    parser.add_argument("--version", action="version", version=f"ttsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="write DIMACS WCNF plus a variable-map sidecar")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("-o", "--output", required=True, help="output .wcnf path")
    _add_common_encode_flags(p)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="encode, solve, decode, validate, print the grid")
    p.add_argument("instance", help="instance JSON file")
    _add_common_encode_flags(p)
    p.add_argument("--external-cmd", dest="external_command", metavar="CMD", default=None,
                   help="solve with this external Max-SAT solver command "
                        "instead of the builtin one; {input} is the WCNF path")
    _add_solver_flags(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("validate", help="check a rendered CSV timetable against an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("timetable", help="timetable CSV as written by solve --format csv")
    _add_common_encode_flags(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--slots-per-day", type=int, default=2)
    p.add_argument("--rooms", type=int, default=3)
    p.add_argument("--courses", type=int, default=4)
    p.add_argument("--curricula", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve-wcnf", help="solve a DIMACS WCNF file with the builtin solver")
    p.add_argument("wcnf", help="WCNF file")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_solve_wcnf)

    p = sub.add_parser("sample", help="print the bundled demonstration instance")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SolverInternalError, UntrustedSolverError, DecodeError) as exc:
        # DecodeError is a ValueError, but a model that does not decode is
        # an encoder or solver bug, not an input error
        _err(str(exc))
        return EXIT_INTERNAL
    except (ValueError, OSError, SolverError) as exc:
        # every input error is a ValueError; OSError: an input that cannot be
        # read or an output that cannot be written; SolverError: an external
        # solver that cannot run or gives no answer
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
