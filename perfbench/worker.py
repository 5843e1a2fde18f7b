"""One round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED ROUND TRACE SRC_DIR

Generates the round's jobs, writes their input files to a private
directory, runs the jobs back to back (CLI verbs in-process through
the `deflog.cli.main` click group), then checks every output against
its oracle.  Prints one JSON object: per-job times and verdicts, the
round's wall and CPU time, peak RSS, a digest of every output and,
with TRACE=1, the span statistics of the wrapped deflog functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

JOB_LIMIT_S = 30  # a job running longer is stopped and counts as failed


class JobTimeout(BaseException):
    """Raised in a job that exceeds JOB_LIMIT_S.  A BaseException, so the
    CLI runner and deflog's own handlers let it through."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, runner, main):
    """Run one job; returns its start and end times and its Outcome."""
    from workloads import Outcome

    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    start = time.perf_counter()
    try:
        if job.api is not None:
            try:
                outcome = Outcome(0, job.api())
            except Exception as exc:  # a library job that raises has failed
                outcome = Outcome(1, "", type(exc).__name__)
        else:
            result = runner.invoke(main, job.argv, catch_exceptions=True)
            error = None
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                error = type(result.exception).__name__
            outcome = Outcome(result.exit_code, result.output, error)
    except JobTimeout:
        outcome = Outcome(-1, "", "timeout")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return start, time.perf_counter(), outcome


def main_(argv: list[str]) -> int:
    workload, seed, round_no, trace, src = argv
    sys.path.insert(0, src)
    import deflog.cli
    from click.testing import CliRunner

    import speedometer
    from workloads import round_jobs

    if not os.path.abspath(deflog.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"deflog imported from {deflog.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    jobs = round_jobs(workload, int(seed), int(round_no))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        dirs = []
        for n, job in enumerate(jobs):
            d = os.path.join(work, str(n))
            os.mkdir(d)
            for name, text in job.files.items():
                with open(os.path.join(d, name), "w", encoding="utf-8") as f:
                    f.write(text)
            dirs.append(d)
        runner = CliRunner()
        results = []
        top_before = []
        speed = speedometer.Speedometer()
        quiet_before = speedometer.quiet_factor()
        speed.start()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for job, d in zip(jobs, dirs):
            os.chdir(d)
            if tracer is not None:
                top_before.append(tracer.top_ns)
            results.append(run_job(job, runner, deflog.cli.main))
        wall1, cpu = time.perf_counter(), time.process_time() - cpu0
        speed.stop()
        quiet_after = speedometer.quiet_factor()
        os.chdir(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = hashlib.sha256()
    report_jobs = []
    for job, (t0, t1, outcome) in zip(jobs, results):
        raw, seconds = speed.scaled(t0, t1)
        digest.update(f"{job.label}\0{outcome.code}\0{outcome.error}\0{outcome.out}\0".encode())
        failure = job.check(outcome)
        # expected: the job failed in the one way it is known to fail today
        expected = failure is not None and job.known_defect is not None \
            and outcome.error == job.known_defect
        report_jobs.append({"label": job.label, "seconds": seconds, "raw_s": raw,
                            "failure": failure, "expected": expected})
    raw_wall = speed.scaled(wall0, wall1)[0]
    # the round's own speed factor, so CPU time is scaled like wall time
    factor = sum(j["seconds"] for j in report_jobs) / sum(j["raw_s"] for j in report_jobs)
    report = {
        "jobs": report_jobs,
        "wall_s": raw_wall * factor,
        "raw_wall_s": raw_wall,
        "cpu_s": (cpu - (wall1 - wall0 - raw_wall)) * factor,
        "raw_cpu_s": cpu - (wall1 - wall0 - raw_wall),
        "speed_factor": factor,
        # the same reference loop, timed back to back with no deflog work
        # in between, on the small heap before the jobs and the full one after
        "quiet_factor_before": quiet_before,
        "quiet_factor_after": quiet_after,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        covered = [
            after - before
            for before, after in zip(top_before, top_before[1:] + [tracer.top_ns])
        ]
        report["trace"] = {
            "spans": {
                name: [st.calls, st.self_ns / 1e9, st.yielded, st.items]
                for name, st in tracer.stats.items()
            },
            "reused": tracer.reused,
            # raw job time outside wrapped calls; spans include sampling time
            "uncovered_s": sum(t1 - t0 for t0, t1, _ in results) - sum(covered) / 1e9,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
