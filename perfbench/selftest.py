"""The benchmark's own tests.  They are slow and never part of a timed run.

    python3 perfbench/selftest.py                      # all, about 7 minutes
    python3 perfbench/selftest.py SelfTest.test_pins_match_milp

* test_pins_match_milp: every pinned optimum equals the MILP optimum
  (HiGHS through scipy.optimize.milp), without the builtin solver.
* test_encoding_pins_closed_form: the pinned encode-large family counts
  that have a closed form over the instance agree with it.
* test_counts_deterministic: two traced runs with the same seeds give the
  same value for every metric of unit "count", on every workload.
* test_job_limit: a job over the time limit fails even when its answer is right.
* test_benchmark_json: BENCHMARK.json lists exactly the metrics the runs print.
* test_fails_without_sources: with only BENCHMARK.json and perfbench/
  present, run.py exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def run_bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=900,
    )


def pinned_instances() -> dict[str, str]:
    """Instance key -> JSON text, for every pinned key."""
    from ttsat.sample import sample_text

    texts = {"sample": sample_text()}
    for i, seed in enumerate(run.WORKLOADS["gen-load"]["gen_seeds"]):
        size = run.GEN_LOAD_SIZES[i]
        texts[run.instance_key(seed, size)] = run.gen_text(seed, size)
    for seed in run.WORKLOADS["encode-large"]["gen_seeds"]:
        texts[run.instance_key(seed, run.ENCODE_LARGE_SIZE)] = run.gen_text(
            seed, run.ENCODE_LARGE_SIZE)
    return texts


class SelfTest(unittest.TestCase):
    def test_pins_match_milp(self):
        from ttsat.encoder import EncodeOptions, encode
        from ttsat.model import parse_instance

        texts = pinned_instances()
        for (key, weighted), pinned in reference.PINNED_OPTIMA.items():
            with self.subTest(key=key, weighted=weighted):
                formula, _ = encode(parse_instance(texts[key]), EncodeOptions(weighted=weighted))
                self.assertEqual(reference.milp_optimum(formula), pinned)

    def test_encoding_pins_closed_form(self):
        from ttsat.model import parse_instance

        texts = pinned_instances()
        for key, pin in reference.PINNED_ENCODINGS.items():
            inst = parse_instance(texts[key])
            S, T, D = len(inst.sessions), len(inst.timeslots), len(inst.days)
            R, K = len(inst.rooms), len(inst.curricula)
            families = pin["families"]
            with self.subTest(key=key):
                self.assertEqual(families["link_ct_cd"], S * T + S * D)
                self.assertEqual(families["link_ct_kt"], S * T + K * T)
                self.assertEqual(families["room_clashes"], R * T * math.comb(S, 2))
                self.assertEqual(
                    families["timeslot_unavailability"],
                    sum(len(s.forbidden_timeslots) for s in inst.sessions))
                self.assertEqual(
                    families["room_capacity"],
                    sum(r.capacity < s.enrollment for s in inst.sessions for r in inst.rooms))

    def test_counts_deterministic(self):
        counts = {name for name, unit in tracing.PER_LAYER if unit == "count"}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                seen = []
                for _ in range(2):
                    proc = run_bench("--workload", workload, "--seed", "0", "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    seen.append({k: v["value"] for k, v in result["metrics"].items()
                                 if k in counts})
                self.assertEqual(seen[0], seen[1])
                self.assertEqual(set(seen[0]), counts)

    def test_job_limit(self):
        from ttsat.model import gen_random_instance, serialize_instance

        text = serialize_instance(gen_random_instance(1))
        job = run.Job("micro/encode", "encode", "micro", text, True)
        limit = run.JOB_LIMIT_S
        try:
            _, problems = run.run_job(job, {})
            self.assertEqual(problems, [])
            run.JOB_LIMIT_S = 0.0
            _, problems = run.run_job(job, {})
            self.assertEqual(len(problems), 1)
            self.assertIn("job limit", problems[0])
        finally:
            run.JOB_LIMIT_S = limit

    def test_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_fails_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            root = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", root)
            shutil.copytree(BENCH, root / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "gen-load", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=root)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
