"""deflog benchmark: seeded batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; deflog is imported from its `src/`.
A run is a closed loop of rounds, one client and one process at a time.
Each round runs the workload's fixed job list (see workloads.py) in a
fresh interpreter (worker.py), so deflog's memos start empty in every
round and are never cleared by the benchmark.  Rounds repeat until the
next one would end after S seconds, with at least two.

--trace 0 prints the end-to-end metrics:
  wall_s       median over rounds of the job list's wall time
  cpu_s        median over rounds of process CPU time over the same span
  job_p50_s    median per-job wall time, over every job of the run
  job_tail_s   75th percentile of per-job wall time, over every job of the run
  setup_s      median time for a fresh interpreter to import deflog.cli
  peak_rss_mb  median over rounds of the round process's ru_maxrss
and `failed` / `attempted` in the result line give the fail share.
`correct` is false when any job fails other than in the one way it is
known to fail today (Job.known_defect: frontend's deep inputs raising
RecursionError), or when a round's process dies.

--trace 1 runs each round three times, once untraced and twice with
spans around deflog's public functions (tracing.py), checks that all
three give byte-identical outputs and the two traced runs identical
counts, and prints the per-layer metrics.  Counts come from the first
round, times are medians over rounds.

The last line of standard output is the JSON result; lines before it
are JSON records with details (tail percentile, failures, absent spans).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from speedometer import REFERENCE_S, timed_reference  # perfbench/ is sys.path[0]
from workloads import ROUNDS, round_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2
RUN_LIMIT_S = 165  # no round starts or keeps running past this point
SETUP_LAUNCHES = 7
# Every job list has at least 20 jobs, so the two rounds a run always has
# leave at least ten samples beyond the 75th percentile.
TAIL_PERCENTILE = 75

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

MODULE_TOTALS = ("parser", "syntax", "interpretation", "evaluator", "truthvalues",
                 "vocab", "definitions", "templates")

# per-layer metric -> (span, field); field is calls, self_s, yielded or items
SPAN_METRICS = {
    "definitions.greatest_unfounded_set.calls": ("definitions.greatest_unfounded_set", "calls"),
    "definitions.greatest_unfounded_set.self_s": ("definitions.greatest_unfounded_set", "self_s"),
    "definitions.well_founded_model.self_s": ("definitions.well_founded_model", "self_s"),
    "truthvalues.approx_quantifier.calls": ("truthvalues.approx_quantifier", "calls"),
    "definitions.is_closed.calls": ("definitions.is_closed", "calls"),
    "definitions.is_closed.self_s": ("definitions.is_closed", "self_s"),
    "definitions.is_partial_stable.calls": ("definitions.is_partial_stable", "calls"),
    "definitions.stable_models.self_s": ("definitions.stable_models", "self_s"),
    "interpretation.completions.yielded": ("interpretation.completions", "yielded"),
    "evaluator.evaluate_exact.calls": ("evaluator.evaluate_exact", "calls"),
    "evaluator.evaluate_exact.self_s": ("evaluator.evaluate_exact", "self_s"),
    "evaluator.evaluate.calls": ("evaluator.evaluate", "calls"),
    "evaluator.evaluate.self_s": ("evaluator.evaluate", "self_s"),
    "truthvalues.glb_prec.self_s": ("truthvalues.glb_prec", "self_s"),
    "syntax.free_symbols.calls": ("syntax.free_symbols", "calls"),
    "interpretation.revise.calls": ("interpretation.revise", "calls"),
    "interpretation.expand.calls": ("interpretation.expand", "calls"),
    "definitions.well_founded_model.calls": ("definitions.well_founded_model", "calls"),
    "vocab.arg_value_space.calls": ("vocab.arg_value_space", "calls"),
    "vocab.arg_value_space.values": ("vocab.arg_value_space", "items"),
    "templates.apply_library.self_s": ("templates.apply_library", "self_s"),
    "templates.validate_library.self_s": ("templates.validate_library", "self_s"),
    "templates.macro_expand.self_s": ("templates.macro_expand", "self_s"),
    "templates.eliminate_so.self_s": ("templates.eliminate_so", "self_s"),
    "templates.sigma_equivalent.self_s": ("templates.sigma_equivalent", "self_s"),
    "parser.parse_theory.calls": ("parser.parse_theory", "calls"),
    "parser.parse_theory.self_s": ("parser.parse_theory", "self_s"),
    "parser.tokens": ("parser.tokenize", "items"),
    "syntax.typecheck.self_s": ("syntax.typecheck", "self_s"),
    "syntax.classify.self_s": ("syntax.classify", "self_s"),
    "syntax.unparse.self_s": ("syntax.unparse", "self_s"),
    "interpretation.read_structure.self_s": ("interpretation.read_structure", "self_s"),
    "interpretation.write_structure.self_s": ("interpretation.write_structure", "self_s"),
}
FIELDS = {"calls": 0, "self_s": 1, "yielded": 2, "items": 3}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters importing deflog.cli
    (after one unmeasured launch that writes the bytecode cache).  Each
    launch is scaled by reference() timings taken just before and after."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import deflog.cli"]
    raw, scaled = [], []
    for n in range(SETUP_LAUNCHES + 1):
        refs = [timed_reference() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would round every launch up to a step
        killer = threading.Timer(60, proc.kill)
        killer.start()
        code = proc.wait()
        seconds = time.perf_counter() - start
        killer.cancel()
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        refs += [timed_reference() for _ in range(3)]
        if n:
            raw.append(seconds)
            scaled.append(seconds * REFERENCE_S / statistics.median(refs))
    return raw, scaled


def run_round(workload: str, seed: int, round_no: int, trace: int, deadline: float):
    """One worker process; its report, or None if it crashed or overran."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(round_no), str(trace), SRC]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: round {round_no} overran the run limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tally(reports: list, jobs_per_round: int):
    """attempted, failed, unexpected failures and failure reasons over
    rounds.  A failure is expected only when the job failed in the way it
    is known to fail (Job.known_defect); a round whose process died counts
    every one of its jobs as an unexpected failure."""
    attempted = failed = unexpected = 0
    reasons: dict = {}
    for rep in reports:
        attempted += jobs_per_round
        if rep is None:
            failed += jobs_per_round
            unexpected += jobs_per_round
            continue
        for job in rep["jobs"]:
            if job["failure"]:
                failed += 1
                unexpected += not job["expected"]
                reasons.setdefault(job["label"], job["failure"])
    return attempted, failed, unexpected, reasons


def loop(workload, seed, seconds, trace, start, min_rounds):
    """Rounds until the next would end after `seconds`; each round is one
    worker (trace 0) or an untraced and two traced workers (trace 1)."""
    deadline = start + RUN_LIMIT_S
    rounds, durations = [], []
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs = [run_round(workload, seed, len(rounds), 0, deadline)]
        if trace:
            runs += [run_round(workload, seed, len(rounds), 1, deadline) for _ in range(2)]
        rounds.append(runs)
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - loop_start
        if any(r is None for r in runs) or time.monotonic() >= deadline:
            break
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            break
    return rounds


def end_to_end(workload, seed, seconds, start):
    setup_raw, setup = measure_setup()
    rounds = [runs[0] for runs in loop(workload, seed, seconds, 0, start, MIN_ROUNDS)]
    jobs_per_round = len(round_jobs(workload, seed, 0))
    attempted, failed, unexpected, reasons = tally(rounds, jobs_per_round)
    done = [r for r in rounds if r is not None]
    if not done:
        return False, attempted, failed, {}, {"failures": reasons}
    job_times = sorted(j["seconds"] for r in done for j in r["jobs"])
    raw_job_times = sorted(j["raw_s"] for r in done for j in r["jobs"])
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "cpu_s": statistics.median(r["cpu_s"] for r in done),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": percentile(job_times, TAIL_PERCENTILE),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    info = {
        "rounds": len(rounds), "jobs_per_round": jobs_per_round,
        "fail_share": failed / attempted, "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(job_times), "setup_launches": len(setup),
        "raw": {
            "wall_s": statistics.median(r["raw_wall_s"] for r in done),
            "cpu_s": statistics.median(r["raw_cpu_s"] for r in done),
            "job_p50_s": statistics.median(raw_job_times),
            "job_tail_s": percentile(raw_job_times, TAIL_PERCENTILE),
            "setup_s": statistics.median(setup_raw),
        },
        # scale factors (REFERENCE_S / reference time): during the jobs, and
        # from back-to-back timings before and after them
        "speed_factor": statistics.median(r["speed_factor"] for r in done),
        "quiet_factor_before": statistics.median(r["quiet_factor_before"] for r in done),
        "quiet_factor_after": statistics.median(r["quiet_factor_after"] for r in done),
        "failures": reasons,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return unexpected == 0, attempted, failed, metrics, info


def per_layer(workload, seed, seconds, start):
    rounds = loop(workload, seed, seconds, 1, start, 1)
    jobs_per_round = len(round_jobs(workload, seed, 0))
    untraced = [runs[0] for runs in rounds]
    attempted, failed, unexpected, reasons = tally(untraced, jobs_per_round)
    problems = []
    for n, runs in enumerate(rounds):
        if any(r is None for r in runs):
            problems.append(f"round {n}: a worker died")
            continue
        if len({r["digest"] for r in runs}) != 1:
            problems.append(f"round {n}: traced outputs differ from untraced outputs")
        counts = [{k: (v[0], v[2], v[3]) for k, v in r["trace"]["spans"].items()}
                  for r in runs[1:]]
        if counts[0] != counts[1] or runs[1]["trace"]["reused"] != runs[2]["trace"]["reused"]:
            problems.append(f"round {n}: counts differ between two traced runs")
    done = [runs for runs in rounds if all(r is not None for r in runs)]
    if not done:
        return False, attempted, failed, {}, {"problems": problems, "failures": reasons}

    traced = [runs[1]["trace"] for runs in done]
    factors = [runs[1]["speed_factor"] for runs in done]
    first = traced[0]["spans"]

    def span_value(spans, span, field):
        return spans[span][FIELDS[field]] if span in spans else 0

    def median_self(span):
        return statistics.median(
            span_value(t["spans"], span, "self_s") * f for t, f in zip(traced, factors))

    def module_self(spans, module):
        return sum(v[1] for k, v in spans.items() if k.startswith(module + "."))

    values, units = {}, {}
    for name, (span, field) in SPAN_METRICS.items():
        values[name] = median_self(span) if field == "self_s" else span_value(first, span, field)
        units[name] = "s" if field == "self_s" else "count"
    for module in MODULE_TOTALS:
        values[f"{module}.self_s"] = statistics.median(
            module_self(t["spans"], module) * f for t, f in zip(traced, factors))
        units[f"{module}.self_s"] = "s"
    values["cli.self_s"] = statistics.median(t["uncovered_s"] * f for t, f in zip(traced, factors))
    units["cli.self_s"] = "s"
    parser_self = module_self(first, "parser") * factors[0]
    values["parser.tokens_per_s"] = values["parser.tokens"] / parser_self if parser_self else 0
    units["parser.tokens_per_s"] = "1/s"
    wfm_calls = span_value(first, "definitions.well_founded_model", "calls")
    values["definitions.well_founded_model.reuse_ratio"] = (
        traced[0]["reused"] / wfm_calls if wfm_calls else 0
    )
    units["definitions.well_founded_model.reuse_ratio"] = "ratio"
    values["trace.overhead_ratio"] = (
        statistics.median(runs[1]["wall_s"] for runs in done)
        / statistics.median(runs[0]["wall_s"] for runs in done)
    )
    units["trace.overhead_ratio"] = "ratio"
    absent = sorted({span for span, _ in SPAN_METRICS.values() if span not in first})
    info = {
        "rounds": len(rounds), "jobs_per_round": jobs_per_round,
        "fail_share": failed / attempted, "absent": absent,
        "problems": problems, "failures": reasons,
    }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return unexpected == 0 and not problems, attempted, failed, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "deflog", "__init__.py")):
        return fail(f"no deflog sources under {SRC}; run from a deflog checkout")
    try:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics, info = measure(
            args.workload, args.seed, args.seconds, start)
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd} exited with {exc.returncode}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
