"""ttsat benchmark: time to a checked optimum on search-, load- and encode-bound workloads.

One workload runs in one process, as a closed loop with one client: the
jobs of its list run one after another.  A solve job runs the library
sequence of ``ttsat solve`` (parse_instance, validate_instance,
encode_with_families, solve_maxsat, decode_timetable, check_hard,
compute_cost, render_timetable); an encode job runs parse_instance,
validate_instance, encode_with_families, write_dimacs and parse_dimacs.
Every answer is checked against a pinned reference (see reference.py).

    python3 perfbench/run.py --workload sample-search --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, one child process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` runs one untraced pass and
then one traced pass, reports the per-layer metrics of tracing.py and
writes the spans to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A job slower than this fails, whatever it returns.  The slowest default
# job takes about 10 s untraced on a 2-core x86 machine.
JOB_LIMIT_S = 60.0
SETUP_REPS = 5

GEN_LOAD_SIZES = ((5, 4, 6, 12, 4), (5, 5, 8, 16, 5))
ENCODE_LARGE_SIZE = (5, 5, 10, 30, 6)

WORKLOADS = {
    "sample-search": {"gen_seeds": (), "solver_seeds": (0, 1, 2)},
    "gen-load": {"gen_seeds": (3, 4), "solver_seeds": (0,)},
    "encode-large": {"gen_seeds": (5, 6), "solver_seeds": ()},
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "solve" or "encode"
    key: str  # instance key, the index of the reference pins
    text: str  # instance JSON
    weighted: bool
    solver_seed: int | None = None


def instance_key(seed: int, size: tuple[int, ...]) -> str:
    return f"gen:{seed}:{'x'.join(map(str, size))}"


def gen_text(seed: int, size: tuple[int, ...]) -> str:
    from ttsat.model import gen_random_instance, serialize_instance

    days, slots_per_day, rooms, courses, curricula = size
    return serialize_instance(gen_random_instance(
        seed, days=days, slots_per_day=slots_per_day, rooms=rooms,
        courses=courses, curricula=curricula,
    ))


def build_jobs(workload: str, gen_seeds, solver_seeds) -> list[Job]:
    """The workload's inputs: instance JSON texts and the job list over them."""
    jobs = []
    if workload == "sample-search":
        from ttsat.sample import sample_text

        text = sample_text()
        for weighted in (True, False):
            mode = "weighted" if weighted else "partial"
            for s in solver_seeds:
                jobs.append(Job(f"sample/{mode}/s{s}", "solve", "sample", text, weighted, s))
    elif workload == "gen-load":
        for i, g in enumerate(gen_seeds):
            size = GEN_LOAD_SIZES[i % len(GEN_LOAD_SIZES)]
            text = gen_text(g, size)
            for weighted in (True, False):
                mode = "weighted" if weighted else "partial"
                for s in solver_seeds:
                    jobs.append(Job(f"gen{g}/{mode}/s{s}", "solve", instance_key(g, size),
                                    text, weighted, s))
    else:
        for g in gen_seeds:
            jobs.append(Job(f"gen{g}/encode", "encode", instance_key(g, ENCODE_LARGE_SIZE),
                            gen_text(g, ENCODE_LARGE_SIZE), True))
    return jobs


# Runs in a fresh interpreter: sys.argv = [-c, src, bench, workload, gen seeds, solver seeds].
_SETUP_PROBE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import run
t0 = time.perf_counter()
import ttsat
run.build_jobs(sys.argv[3], json.loads(sys.argv[4]), json.loads(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, gen_seeds, solver_seeds) -> float:
    """Median over fresh processes of importing ttsat plus building the inputs."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), workload,
             json.dumps(list(gen_seeds)), json.dumps(list(solver_seeds))],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def milp_references(jobs: list[Job]) -> dict[tuple[str, bool], int]:
    """Optima of unpinned solve jobs, from reference.py in a child process."""
    todo = {}
    for j in jobs:
        if j.kind == "solve" and (j.key, j.weighted) not in reference.PINNED_OPTIMA:
            todo[(j.key, j.weighted)] = j.text
    refs = dict(reference.PINNED_OPTIMA)
    if todo:
        print(f"computing {len(todo)} reference optima with the MILP", file=sys.stderr)
        request = [[key, text, weighted] for (key, weighted), text in todo.items()]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "reference.py"), str(SRC)],
            input=json.dumps(request), capture_output=True, text=True, check=True,
        )
        for key, weighted, optimum in json.loads(proc.stdout):
            refs[(key, weighted)] = optimum
    return refs


def encoding_counts(formula, families) -> dict:
    return {
        "vars": formula.num_vars,
        "clauses": len(formula.clauses),
        "families": {name: len(idx) for name, idx in families.items()},
    }


def run_solve(job: Job, optimum: int) -> list[str]:
    """One `ttsat solve` sequence; returns the failed checks."""
    from ttsat import decode, encoder, model, solver

    instance = model.parse_instance(job.text)
    errors = model.validation_errors(model.validate_instance(instance))
    if errors:
        return [f"invalid instance: {errors[0].message}"]
    opts = encoder.EncodeOptions(weighted=job.weighted)
    formula, varmap, _ = encoder.encode_with_families(instance, opts)
    result = solver.solve_maxsat(
        formula, solver.SolverConfig(seed=job.solver_seed, timeout=JOB_LIMIT_S))
    if result.status is not solver.MaxSatStatus.OPTIMUM:
        return [f"status {result.status.value}"]
    timetable = decode.decode_timetable(result.model, varmap, instance)
    hard = decode.check_hard(timetable, instance)
    cost = decode.compute_cost(timetable, instance, opts).total_cost
    grid = decode.render_timetable(timetable, instance)
    problems = []
    if hard:
        problems.append(f"{len(hard)} hard violations")
    if cost != result.cost:
        problems.append(f"validator cost {cost} != solver cost {result.cost}")
    if result.cost != optimum:
        problems.append(f"cost {result.cost} != reference optimum {optimum}")
    if len(grid.splitlines()) != len(instance.rooms) + 1 or any(
        grid.count(instance.session_short(s.id)) != 1 for s in instance.sessions
    ):
        problems.append("grid does not show every session exactly once")
    return problems


def run_encode(job: Job, pin: dict | None) -> list[str]:
    """Encode, write DIMACS WCNF, parse it back; returns the failed checks.
    Without a pin (a non-default gen seed) only the round trip is checked."""
    from ttsat import cnf, encoder, model

    instance = model.parse_instance(job.text)
    errors = model.validation_errors(model.validate_instance(instance))
    if errors:
        return [f"invalid instance: {errors[0].message}"]
    formula, _, families = encoder.encode_with_families(
        instance, encoder.EncodeOptions(weighted=job.weighted))
    parsed = cnf.parse_dimacs(cnf.write_dimacs(formula))
    problems = []
    if (parsed.num_vars, parsed.top) != (formula.num_vars, formula.top) \
            or parsed.clauses != formula.clauses:
        problems.append("DIMACS round trip changed the formula")
    counts = encoding_counts(formula, families)
    if pin is not None and counts != pin:
        problems.append(f"encoding counts {counts} != pinned {pin}")
    return problems


def run_job(job: Job, refs) -> tuple[float, list[str]]:
    t0 = time.perf_counter()
    try:
        if job.kind == "solve":
            problems = run_solve(job, refs[(job.key, job.weighted)])
        else:
            problems = run_encode(job, reference.PINNED_ENCODINGS.get(job.key))
    except Exception as exc:  # a raising job is a failed job; keep measuring
        problems = [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if elapsed > JOB_LIMIT_S:
        problems.append(f"took {elapsed:.1f} s, over the {JOB_LIMIT_S:.0f} s job limit")
    return elapsed, problems


def run_pass(jobs, refs, tracer=None) -> tuple[float, int]:
    """Run the job list once; returns its wall time and the failed job count."""
    failed = 0
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is None:
            elapsed, problems = run_job(job, refs)
        else:
            elapsed, problems = tracer.run_job(job.name, run_job, job, refs)
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(f"  {job.name:<24} {elapsed:8.3f} s  {status}", flush=True)
        failed += bool(problems)
    return time.perf_counter() - t0, failed


def parse_seeds(text: str | None, default) -> tuple[int, ...]:
    if text is None:
        return tuple(default)
    return tuple(int(s) for s in text.split(",") if s.strip())


def run_workload(args) -> int:
    spec = WORKLOADS[args.workload]
    gen_seeds = parse_seeds(args.gen_seeds, spec["gen_seeds"])
    solver_seeds = parse_seeds(args.solver_seeds, spec["solver_seeds"])
    for flag, seeds, default in (("--gen-seeds", gen_seeds, spec["gen_seeds"]),
                                 ("--solver-seeds", solver_seeds, spec["solver_seeds"])):
        if bool(seeds) != bool(default):
            print(f"error: {args.workload} takes {'a non-empty' if default else 'no'} {flag}",
                  file=sys.stderr)
            return 2

    setup_s = measure_setup(args.workload, gen_seeds, solver_seeds)
    sys.path.insert(0, str(SRC))
    import ttsat

    if Path(ttsat.__file__).resolve().parent != SRC / "ttsat":
        print(f"error: imported ttsat from {ttsat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    jobs = build_jobs(args.workload, gen_seeds, solver_seeds)
    # --seed fixes only the job order; the job set comes from the seeds above
    random.Random(args.seed).shuffle(jobs)
    refs = milp_references(jobs)

    print(f"workload {args.workload}: {len(jobs)} jobs, seed {args.seed}, "
          f"gen seeds {list(gen_seeds)}, solver seeds {list(solver_seeds)}", flush=True)
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        elapsed, f = run_pass(jobs, refs)
        passes.append(elapsed)
        failed += f
        # whole passes only: start another if it should end within --seconds
        if args.trace or time.perf_counter() - start + elapsed > args.seconds:
            break
    attempted = len(jobs) * len(passes)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            traced_s, f = run_pass(jobs, refs, tracer)
        failed += f
        attempted += len(jobs)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, workload=args.workload, seed=args.seed)
        metrics = tracer.metrics(traced_s, passes[0])
        print(f"spans written to {spans_path.relative_to(ROOT)}; tracing overhead "
              f"{metrics['trace.overhead_frac']['value']:.1%} of the untraced run_s")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s, "run_s": statistics.median(passes),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name:<12} {values[name]:12.4f} {unit}")
        print(f"{'fail_frac':<12} {failed / attempted:12.4f} ({failed} of {attempted} jobs, "
              f"{len(passes)} pass{'es' if len(passes) > 1 else ''})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="job-order seed")
    parser.add_argument("--seconds", type=float, default=30,
                        help="run whole passes of the job list while they fit in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-seeds", help="comma-separated gen_random_instance seeds")
    parser.add_argument("--solver-seeds", help="comma-separated solver seeds")
    args = parser.parse_args(argv)
    if not (SRC / "ttsat" / "__init__.py").is_file():
        print(f"error: no ttsat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
