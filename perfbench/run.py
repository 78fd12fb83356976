"""The bweyl benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of a workload starts a fresh interpreter, so the program's caches
start empty, as they do for a user's `bweyl verify`.  The benchmark drives
the program only through `bweyl.suites` and the `bweyl` command line, with
bweyl imported from ./src.  For S seconds it repeats cold runs and reports
the median of each end-to-end metric; it checks every run's canonical report
against the digest recorded in perfbench/expected.json.  With --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics
instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CLI_JOBS, WORKLOADS, canonical_digest, cli_argv, count_checks, suite_plan,
)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
# import-only interpreters before each cold run, spreading the set-up
# samples over the whole measurement
SETUP_SAMPLES_PER_RUN = 2
MIN_RUNS = 3
# every run and the output must be done well inside the 180 s exit limit
HARD_LIMIT_S = 165.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit: float = 10.0) -> None:
    """Pool workers of a killed child stay in its process group until init
    reaps them; wait until no process is left in the group."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


@dataclass
class Run:
    """Outcome of one child process."""

    started: float
    wall: float
    exit_code: int | None
    timed_out: bool
    cpu_s: float
    peak_rss_mb: float
    result: dict | None
    stderr_tail: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out


class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 workdir: str, expected: dict):
        self.root = root
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.expected = expected[workload]
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.counter = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.problems: list = []

    # -- processes -----------------------------------------------------------

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t0)

    def path(self, kind: str) -> str:
        self.counter += 1
        return os.path.join(self.workdir, f"{kind}-{self.counter}")

    def spawn(self, cmd: list, stdout_path=None, result_path=None) -> Run:
        """Run one child in its own session, reap it with wait4 for its CPU
        time and peak RSS (its waited-for pool workers included), and kill
        its whole process group if it outlives the time left."""
        err_path = self.path("stderr")
        timeout = self.remaining()
        if timeout <= 0:
            return Run(time.monotonic(), 0.0, None, True, 0.0, 0.0, None,
                       "no time left")
        timed_out = threading.Event()
        start = time.monotonic()
        with open(err_path, "wb") as err, \
                open(stdout_path or os.devnull, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)

        def kill():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            _wait_group_gone(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            _wait_group_gone(proc.pid)
        result = None
        if result_path and os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        with open(err_path, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        return Run(start, wall, proc.returncode, timed_out.is_set(),
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   result, tail)

    def child(self, mode: str, trace: bool = False, **extra) -> Run:
        result_path = self.path("result")
        request = dict(extra, root=self.root, mode=mode, trace=trace,
                       modules=self.spec["modules"], result_path=result_path)
        request_path = self.path("request")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        return self.spawn([sys.executable, os.path.join(HERE, "child.py"),
                           request_path], result_path=result_path)

    # -- checks ----------------------------------------------------------------

    def account(self, run: Run, label: str, checks: int | None = None,
                failed: int | None = None, digest: str | None = None) -> bool:
        """Count a run's checks as attempted, and as failed when the run
        crashed, exited non-zero, timed out or failed a check; compare its
        canonical report digest with the recorded one."""
        expected_checks = self.expected["checks"]
        self.attempted += expected_checks
        if not run.ok or checks is None:
            self.failed += expected_checks
            why = "timed out" if run.timed_out else f"exit code {run.exit_code}"
            self.problems.append(f"{label}: {why}: {run.stderr_tail.strip()[-500:]}")
            return False
        # checks a report no longer carries count as failed
        missing = max(0, expected_checks - checks)
        self.failed += min(expected_checks, failed + missing)
        ok = failed == 0 and missing == 0
        if failed or missing:
            self.problems.append(f"{label}: {failed} of {checks} checks failed, "
                                 f"{missing} missing")
        if digest != self.expected["digest"]:
            self.mismatches += 1
            ok = False
            self.problems.append(f"{label}: report digest {digest} differs from "
                                 f"the recorded {self.expected['digest']}")
        return ok

    # -- one cold run of each kind ---------------------------------------------------

    def setup_run(self) -> tuple[float, dict] | None:
        run = self.child("setup")
        if not run.ok or run.result is None:
            self.problems.append(f"setup interpreter failed: {run.stderr_tail.strip()}")
            return None
        return run.result["setup_end"] - run.started, run.result

    def suites_run(self, index: int, trace: bool = False) -> tuple[Run, float | None]:
        run = self.child("suites", trace=trace,
                         plan=suite_plan(self.workload, self.seed, index))
        res = run.result if run.ok else None
        label = f"{'traced ' if trace else ''}run of {self.workload}"
        if res is None:
            self.account(run, label)
            return run, None
        self.account(run, label, res["checks"], res["failed"], res["digest"])
        if res["failed_checks"]:
            self.problems.append(f"failed checks: {res['failed_checks']}")
        return run, res["end"] - res["start"]

    def cli_run(self, index: int, jobs: int = CLI_JOBS
                ) -> tuple[Run, float | None, bytes | None]:
        stdout_path = self.path("stdout")
        run = self.spawn([sys.executable, "-m", "bweyl.cli",
                          *cli_argv(self.seed, index, jobs)], stdout_path=stdout_path)
        return self._cli_outcome(run, stdout_path, f"bweyl verify --jobs {jobs}")

    def traced_cli_run(self, index: int) -> tuple[Run, float | None, bytes | None, list]:
        """The CLI in-process in a traced child; its forked pool workers
        write their spans to trace_dir.  Returns the snapshots too, the
        main process first."""
        trace_dir = self.path("workers")
        os.mkdir(trace_dir)
        stdout_path = self.path("stdout")
        run = self.child("cli", trace=True, argv=cli_argv(self.seed, index),
                         stdout_path=stdout_path, trace_dir=trace_dir)
        snapshots = []
        if run.ok and run.result is not None:
            run.exit_code = run.result["exit_code"]
            snapshots.append(run.result["trace"])
            for name in sorted(os.listdir(trace_dir)):
                if name.endswith(".json"):
                    with open(os.path.join(trace_dir, name)) as fh:
                        snapshots.append(json.load(fh))
        return (*self._cli_outcome(run, stdout_path, "traced bweyl verify"), snapshots)

    def _cli_outcome(self, run: Run, stdout_path: str, label: str):
        stdout = None
        if os.path.exists(stdout_path):
            with open(stdout_path, "rb") as fh:
                stdout = fh.read()
        try:
            reports = json.loads(stdout) if run.ok and stdout else None
        except json.JSONDecodeError:
            reports = None
        if reports is None:
            self.account(run, label)
            return run, None, stdout
        checks, failed = count_checks(reports)
        ok = self.account(run, label, checks, failed, canonical_digest(reports))
        return run, run.wall if ok else None, stdout

    # -- measurement loops -------------------------------------------------------

    def time_left_for(self, rounds: list) -> bool:
        """Whether one more round of typical length ends within --seconds."""
        elapsed = time.monotonic() - self.t0
        typical = statistics.median(rounds) if rounds else 0.0
        return elapsed + typical <= self.seconds

    def setup_samples(self, setup: list, info: dict) -> None:
        for _ in range(SETUP_SAMPLES_PER_RUN):
            got = self.setup_run()
            if got is not None:
                setup.append(got[0])
                info.update(got[1])

    def measure(self) -> dict:
        """Untraced cold runs for the run's seconds; medians of each metric."""
        self.setup_run()  # the first interpreter may compile bytecode: not timed
        setup, info = [], {}
        cli_reference = None
        if self.spec["kind"] == "cli":
            # the serial run is the reference the first pooled stdout must equal
            _, _, cli_reference = self.cli_run(0, jobs=1)
        runs, run_s, rounds = [], [], []
        while len(runs) < MIN_RUNS or self.time_left_for(rounds):
            if self.remaining() <= 0:
                break
            start = time.monotonic()
            self.setup_samples(setup, info)
            if self.spec["kind"] == "cli":
                run, seconds, stdout = self.cli_run(len(runs))
                if not runs and cli_reference is not None and stdout != cli_reference:
                    self.mismatches += 1
                    self.problems.append("--jobs 2 stdout differs from --jobs 1 stdout")
            else:
                run, seconds = self.suites_run(len(runs))
            runs.append(run)
            rounds.append(time.monotonic() - start)
            if seconds is None:
                break
            run_s.append(seconds)
        return {
            "info": info,
            "samples": {"setup_s": setup, "run_s": run_s,
                        "cpu_s": [r.cpu_s for r in runs if r.ok],
                        "peak_rss_mb": [r.peak_rss_mb for r in runs if r.ok]},
        }

    def measure_traced(self) -> tuple[dict, dict, list]:
        """Alternate untraced and traced cold runs; per-layer metrics are
        medians over the traced runs."""
        untraced, traced, layer_runs, missing, rounds = [], [], [], [], []
        while not traced or self.time_left_for(rounds):
            if self.remaining() <= 0:
                break
            start = time.monotonic()
            index = len(traced)
            if self.spec["kind"] == "cli":
                _, plain, plain_stdout = self.cli_run(index)
                run, seconds, stdout, snapshots = self.traced_cli_run(index)
                if None not in (plain_stdout, stdout) and plain_stdout != stdout:
                    self.mismatches += 1
                    self.problems.append("tracing changed the CLI stdout")
            else:
                _, plain = self.suites_run(index)
                run, seconds = self.suites_run(index, trace=True)
                snapshots = [run.result["trace"]] if run.ok and run.result else []
            if plain is None or seconds is None or not snapshots:
                break
            rounds.append(time.monotonic() - start)
            untraced.append(plain)
            traced.append(seconds)
            values, missing = layer_metrics(
                self.workload, snapshots, seconds, plain, CLI_JOBS,
                self.expected["checks"])
            layer_runs.append(values)
        return ({"untraced_run_s": untraced, "traced_run_s": traced},
                {name: [v[name] for v in layer_runs] for name, _, _ in PER_LAYER},
                missing)


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(root: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": sha}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if threading.current_thread() is threading.main_thread():
        # a terminated benchmark still kills and reaps its running child
        signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bweyl", "__init__.py")):
        print(f"error: no bweyl sources under {root}/src; run from the "
              "repository root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    env = environment(root)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, loadavg_before=os.getloadavg())
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds, workdir, expected)
        if args.trace:
            info = (bench.setup_run() or (0, {}))[1]
            runs, layers, missing = bench.measure_traced()
        else:
            measured = bench.measure()
            info = measured["info"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.pop("setup_end", None)
    env.update(info, loadavg_after=os.getloadavg())
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in bench.problems:
        print(f"problem: {problem}")
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"checks_failed_frac {frac:.6f} ({bench.failed} of {bench.attempted} checks)")
    print(f"report_mismatch {1 if bench.mismatches else 0}")
    metrics = {}
    if args.trace:
        for name in ("untraced_run_s", "traced_run_s"):
            q1, med, q3 = quartiles(runs[name])
            print(f"{name} {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={len(runs[name])})")
        overhead = layers["bench.trace_overhead_s"]
        print(f"trace_overhead_s {statistics.median(overhead) if overhead else 0.0:.4f} s"
              " (traced minus untraced run_s, median over pairs)")
        if missing:
            print(f"expected entry points with no calls: {' '.join(missing)}")
        for name, unit, _ in PER_LAYER:
            values = layers[name]
            value = statistics.median(values) if values else 0.0
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit}")
        complete = bool(runs["traced_run_s"])
    else:
        for name, unit in END_TO_END:
            values = measured["samples"][name]
            q1, med, q3 = quartiles(values)
            print(f"{name} {med:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
            metrics[name] = {"value": med, "unit": unit}
        complete = all(measured["samples"][name] for name, _ in END_TO_END)
    correct = complete and bench.failed == 0 and bench.mismatches == 0 \
        and bench.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed if bench.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
