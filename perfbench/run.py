"""The ramval benchmark: real CLI commands run in-process, timed and checked.

    python3 perfbench/run.py --workload tower-deep --seed 1 --seconds 40 --trace 0

Runs passes over the workload's commands (see `workloads.py`) through
`ramval.cli.main(argv)` until `--seconds` have elapsed, checks every output,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The line before it holds provenance and the raw
timings.

With `--trace 0` the metrics are end to end: wall and CPU time of a pass and
set-up time in fresh interpreters, all rescaled to a reference CPU speed (see
`reference.py`), and peak RSS.  With `--trace 1` the run spends half its
time untraced, then wraps the functions in `layers.LAYERS` and reports
per-pass call counts and self times, plus the tracing overhead.  Exits 1 when an output check fails, 2 when the run cannot
start or its self-check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import layers
import reference
import workloads

PROBE_INTERVAL_S = 1.0

# Runs in a fresh interpreter: times importing ramval.cli and preparing the
# workload's inputs, as the first timed command of a run would see them, then
# measures the speed with the reference loop.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import ramval.cli
import workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]))
setup = time.perf_counter() - t0
import reference
print(setup, sum(reference.speed(reference.loop()) for _ in range(20)) / 20)
"""


class HarnessError(Exception):
    """The benchmark cannot run or measure correctly."""


def cpu_now() -> float:
    """CPU time of this process plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def run_command(cli, argv: list[str]) -> tuple[int, str, float, float, float]:
    """(exit code, stdout, wall s, cpu s, speed) of `cli.main(argv)`.

    Wall and cpu time exclude the speed samples taken during the command;
    speed is their mean, relative to the reference speed.  Warnings and
    stderr are captured so they never mix into the checked output.  `main`
    is looked up on each call, so a traced one is used once installed.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            reference.Sampler() as sampler:
        w0, c0 = time.perf_counter(), cpu_now()
        try:
            rc = cli.main(argv)
        except SystemExit as ex:  # argparse rejects bad arguments this way
            rc = ex.code if isinstance(ex.code, int) else 2
        w1, c1 = time.perf_counter(), cpu_now()
    return (rc, out.getvalue(), w1 - w0 - sampler.wall, c1 - c0 - sampler.cpu,
            sampler.mean_speed())


class Runner:
    """Runs a workload's commands closed loop in this process and checks every
    output.  `times[k]` holds (wall s, cpu s, speed) of every execution of
    command k."""

    def __init__(self, cli, cmds: list[list[str]], expected: list[list[dict]],
                 before_command=None):
        self.cli = cli
        self.cmds = cmds
        self.expected = expected
        self.before_command = before_command
        self.times: list[list[tuple[float, float, float]]] = [[] for _ in cmds]
        self.attempted = 0
        self.failures: list[str] = []

    def run_command(self, k: int):
        argv = self.cmds[k]
        if self.before_command is not None:
            self.before_command()
        rc, out, wall, cpu, speed = run_command(self.cli, argv)
        self.times[k].append((wall, cpu, speed))
        self.attempted += 1
        why = workloads.check_output(rc, out, self.expected[k])
        if why is not None:
            self.failures.append(f"{' '.join(argv)}: {why}")

    def run_pass(self):
        for k in range(len(self.cmds)):
            self.run_command(k)

    def run_for(self, seconds: float):
        """Commands in turn until `seconds` have elapsed and each ran once.
        Stopping between commands, not passes, keeps the overrun short."""
        deadline = time.perf_counter() + seconds
        for k in itertools.cycle(range(len(self.cmds))):
            if time.perf_counter() >= deadline and all(self.times):
                break
            self.run_command(k)

    def pass_time(self, which: int) -> float:
        """Wall (0) or cpu (1) time of one pass at the reference speed: the
        sum over the commands of each one's median time times the speed
        measured while it ran."""
        return sum(statistics.median(t[which] * t[2] for t in ts) for ts in self.times)

    def best_pass(self) -> float:
        """Raw wall time of one pass: each command's shortest time, summed."""
        return sum(min(t[0] for t in ts) for ts in self.times)


class SetupProbes:
    """Set-up times measured in fresh interpreters, at most one per
    PROBE_INTERVAL_S between commands, so they sample the whole run."""

    def __init__(self, workload: str, seed: int):
        env = {k: v for k, v in os.environ.items() if k != "RAMVAL_JOBS"}
        self._run = functools.partial(
            subprocess.run,
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        self.times: list[tuple[float, float]] = []  # (set-up s, speed)
        self._probe()  # the first may compile bytecode: not kept
        self.times.clear()

    def _probe(self):
        res = self._run()
        if res.returncode != 0:
            raise HarnessError(f"set-up probe failed:\n{res.stderr}")
        setup, speed = res.stdout.split()[-2:]
        self.times.append((float(setup), float(speed)))
        self._last = time.perf_counter()

    def maybe_probe(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self._probe()

    def value(self) -> float:
        """Median set-up time at the reference speed."""
        while len(self.times) < 3:
            self._probe()
        return statistics.median(setup * speed for setup, speed in self.times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ramval").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, cmds, expected, args) -> tuple[list[Runner], dict, dict]:
    probes = SetupProbes(args.workload, args.seed)
    runner = Runner(cli, cmds, expected, before_command=probes.maybe_probe)
    runner.run_for(args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": metric(runner.pass_time(0), "s"),
        "cpu_s": metric(runner.pass_time(1), "s"),
        "setup_s": metric(probes.value(), "s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    detail = {
        "best_pass_wall_s": runner.best_pass(),
        "cmd_times": runner.times,
        "setup_probes": probes.times,
    }
    return [runner], metrics, detail


def traced(cli, cmds, expected, args) -> tuple[list[Runner], dict, dict]:
    """Half the time untraced, the rest traced; per-pass layer metrics."""
    plain = Runner(cli, cmds, expected)
    plain.run_for(args.seconds / 2)
    tracer = layers.Tracer()
    wrapped = Runner(cli, cmds, expected)
    per_pass = []
    tracer.install()
    try:
        deadline = time.perf_counter() + args.seconds / 2
        while not per_pass or time.perf_counter() < deadline:
            before = tracer.counts()
            wrapped.run_pass()
            after = tracer.counts()
            per_pass.append({k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after})
    finally:
        tracer.uninstall()
    if any(counts != per_pass[0] for counts in per_pass):
        raise HarnessError("call counts differ between passes")
    idle = tracer.self_check(args.workload)
    if idle:
        raise HarnessError(f"self-check: no calls recorded for {', '.join(idle)}")
    if tracer.missing:
        print(f"not found, so not traced: {', '.join(tracer.missing)}", file=sys.stderr)

    values = tracer.metrics(len(per_pass))
    values["trace.wall_s"] = wrapped.pass_time(0)
    values["trace.untraced_wall_s"] = plain.pass_time(0)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise HarnessError(f"metrics missing from BENCHMARK.json: {', '.join(undeclared)}")
    metrics = {name: metric(values[name], layers.unit(name)) for name in declared if name in values}
    absent = [name for name in declared if name not in values]
    return [plain, wrapped], metrics, {"missing": tracer.missing, "missing_metrics": absent}


def run(args) -> tuple[dict, dict]:
    """(result, detail) of one benchmark run."""
    if not (SRC / "ramval" / "cli.py").is_file():
        raise HarnessError(f"ramval sources not found under {SRC}")
    os.environ.pop("RAMVAL_JOBS", None)  # the --jobs default reads it
    # One vCPU for the commands, the reference loop and the set-up probes,
    # so that the reference measures the speed the commands get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import ramval.cli

    if not Path(ramval.cli.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"ramval imported from {ramval.cli.__file__}, not {SRC}")
    cmds, expected = workloads.prepare(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    runners, metrics, detail = measure(ramval.cli, cmds, expected, args)

    failures = [f for r in runners for f in r.failures]
    attempted = sum(r.attempted for r in runners)
    detail.update(provenance(args))
    detail["runs_per_command"] = [[len(t) for t in r.times] for r in runners]
    detail["fail_ratio"] = len(failures) / attempted
    detail["failures"] = failures[:10]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, detail = run(args)
    except (HarnessError, OSError, ValueError, subprocess.SubprocessError) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    for line in detail.get("failures", []):
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
