"""Command-line front end: encode, solve, validate, gen, solve-wcnf, sample.

Exit codes are a stable contract: 0 optimum/feasible, 1 hard-unsatisfiable,
2 input error, 3 indeterminate, 4 internal consistency failure.  Result
lines and the timetable grid go to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import os
import sys

from . import __version__
from .cardinality import Scheme
from .cnf import CnfError, parse_dimacs, write_dimacs
from .decode import (
    DecodeError,
    TimetableFormatError,
    check_hard,
    compute_cost,
    decode_timetable,
    parse_timetable_csv,
    render_timetable,
)
from .encoder import EncodeError, EncodeOptions, encode
from .model import (
    InstanceError,
    gen_random_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
    validation_errors,
)
from .sample import sample_text
from .solver import (
    ExternalSolverError,
    MaxSatStatus,
    SolverConfig,
    SolverError,
    SolverInternalError,
    UntrustedSolverError,
    brute_force_maxsat,
    solve_external,
    solve_maxsat,
)

EXIT_OK = 0
EXIT_HARD_UNSAT = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4

_SCHEMES = {s.value: s for s in Scheme}


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_instance(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceError(str(exc)) from None
    instance = parse_instance(text)
    findings = validate_instance(instance)
    for f in findings:
        if f.level == "warning":
            print(f"warning: {f.message}", file=sys.stderr)
    errors = validation_errors(findings)
    if errors:
        raise InstanceError("; ".join(f.message for f in errors))
    return instance, text


def _encode_options(args) -> EncodeOptions:
    scheme = _SCHEMES[args.card] if args.card else None
    return EncodeOptions(weighted=args.mode == "weighted", card_scheme=scheme)


def _solver_config(args, external_cmd=None) -> SolverConfig:
    return SolverConfig(
        seed=args.seed,
        timeout=args.timeout,
        external_cmd=external_cmd,
    )


def _external_command(args) -> str | None:
    return args.external_cmd or os.environ.get("TTSAT_EXTERNAL_SOLVER")


def _write_wcnf(formula, varmap, out_path: str, instance_text: str) -> None:
    digest = hashlib.sha256(instance_text.encode("utf-8")).hexdigest()[:16]
    comments = (f"ttsat {__version__}", f"instance sha256 {digest}")
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_dimacs(formula, comments))
    with open(out_path + ".map", "w", encoding="utf-8", newline="\n") as handle:
        for var in range(1, varmap.num_vars + 1):
            handle.write(f"var {var} {varmap.explain(var)}\n")


def _print_no_optimum(result) -> int | None:
    """Print the result lines of a run without an optimum and return its
    exit code; None when the result is an optimum."""
    if result.status is MaxSatStatus.HARD_UNSAT:
        print("s UNSATISFIABLE")
        return EXIT_HARD_UNSAT
    if result.status is MaxSatStatus.INDETERMINATE:
        lower, upper = result.bounds or (0, None)
        print("s UNKNOWN")
        print(f"c bounds {lower} {upper if upper is not None else '?'}")
        return EXIT_INDETERMINATE
    return None


def _solve_portfolio(formula, builtin_cfg, external_cfg):
    """Run the builtin and the external solver concurrently.

    A side that gives up (builtin INDETERMINATE, or ExternalSolverError)
    defers to the other side's answer, which the caller then checks; two
    conclusive answers that differ raise SolverInternalError.
    """
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        fut_b = pool.submit(solve_maxsat, formula, builtin_cfg)
        fut_e = pool.submit(solve_external, formula, external_cfg)
        builtin = fut_b.result()
        try:
            external = fut_e.result()
        except ExternalSolverError as exc:
            print(f"warning: external solver undecided: {exc}", file=sys.stderr)
            return builtin
    if builtin.status is MaxSatStatus.INDETERMINATE:
        return external
    if builtin.status is not external.status or builtin.cost != external.cost:
        raise SolverInternalError(
            f"portfolio disagreement: builtin {builtin.status.value}/{builtin.cost} "
            f"vs external {external.status.value}/{external.cost}"
        )
    return builtin


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
    instance, text = _load_instance(args.instance)
    opts = _encode_options(args)
    formula, varmap = encode(instance, opts)
    if args.save_wcnf:
        _write_wcnf(formula, varmap, args.save_wcnf, text)

    external_cmd = _external_command(args)
    if args.solver == "external" or args.portfolio:
        if not external_cmd:
            _err("external solver requested but no command given "
                 "(use --external-cmd or TTSAT_EXTERNAL_SOLVER)")
            return EXIT_INPUT

    if args.portfolio:
        result = _solve_portfolio(
            formula, _solver_config(args), _solver_config(args, external_cmd)
        )
    elif args.solver == "external":
        result = solve_external(formula, _solver_config(args, external_cmd))
    else:
        result = solve_maxsat(formula, _solver_config(args))
    code = _print_no_optimum(result)
    if code is not None:
        return code

    timetable = decode_timetable(result.model, varmap, instance)
    report = compute_cost(timetable, instance, opts)
    hard = check_hard(timetable, instance)
    if hard or report.total_cost != result.cost:
        _err(
            f"solver/validator mismatch: solver cost {result.cost}, "
            f"validator cost {report.total_cost}, hard violations {len(hard)}"
        )
        return EXIT_INTERNAL
    if args.check:
        if formula.num_vars <= 22:
            reference = brute_force_maxsat(formula)
            if reference.cost != result.cost:
                _err(
                    f"--check failed: brute force optimum {reference.cost} "
                    f"!= solver {result.cost}"
                )
                return EXIT_INTERNAL
        else:
            print(
                f"warning: --check skipped, {formula.num_vars} variables exceed "
                "the brute-force cap of 22",
                file=sys.stderr,
            )

    print(f"o {result.cost}")
    print("s OPTIMUM FOUND")
    total = formula.soft_weight_sum
    print(f"c soft weight satisfied {total - result.cost} of {total}")
    print(render_timetable(timetable, instance, args.format), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance, _ = _load_instance(args.instance)
    try:
        with open(args.timetable, encoding="utf-8") as handle:
            timetable = parse_timetable_csv(handle.read(), instance)
    except OSError as exc:
        raise InstanceError(str(exc)) from None
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
    text = serialize_instance(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_solve_wcnf(args) -> int:
    try:
        with open(args.wcnf, encoding="utf-8") as handle:
            formula = parse_dimacs(handle.read())
    except OSError as exc:
        raise InstanceError(str(exc)) from None
    result = solve_maxsat(formula, SolverConfig(seed=args.seed, timeout=args.timeout))
    code = _print_no_optimum(result)
    if code is not None:
        return code
    print(f"o {result.cost}")
    print("s OPTIMUM FOUND")
    lits = [v if result.model.assignment[v] else -v for v in sorted(result.model.assignment)]
    print(f"v {' '.join(str(l) for l in lits)} 0")
    return EXIT_OK


def cmd_sample(args) -> int:
    text = sample_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return EXIT_OK


def _add_common_encode_flags(p) -> None:
    p.add_argument("--mode", choices=("partial", "weighted"), default="weighted",
                   help="soft-clause weighting (default: weighted)")
    p.add_argument("--card", choices=sorted(_SCHEMES), default=None,
                   help="cardinality scheme (default: per-constraint choice)")


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
    p.add_argument("--solver", choices=("builtin", "external"), default="builtin")
    p.add_argument("--external-cmd", default=None,
                   help="external solver command template with {input}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="wall-clock seconds")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--check", action="store_true",
                   help="cross-check against brute force when small enough")
    p.add_argument("--portfolio", action="store_true",
                   help="run builtin and external concurrently and compare")
    p.add_argument("--save-wcnf", default=None, help="also write the WCNF here")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None)
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
    except (InstanceError, CnfError, EncodeError, TimetableFormatError, ValueError) as exc:
        _err(str(exc))
        return EXIT_INPUT
    except SolverError as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
