"""gaugeqed benchmark: run one workload as fresh CLI processes and time them.

    python3 bench/run.py --workload rabi-deep --seed 0 --seconds 25 --trace 0

Run from the repository root (any checkout that holds ``src/gaugeqed``).
With ``--trace 0`` it prints the end-to-end metrics: set-up time, wall and
CPU time of ``cli.main``, peak RSS and items per second, each a median over
the CLI processes that fit in ``--seconds``.  With ``--trace 1`` it adds one
traced process and prints the per-layer metrics instead.  Every run's CSV is
checked (see workloads.py); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "bench"

SETUP_PROBES = 5       # extra set-up-only processes per untraced run
DEADLINE_S = 170.0     # the whole benchmark run ends before 180 s
POLL_S = 0.01

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Proc:
    """One child process: clock readings, exit code and resource usage."""
    t_spawn: float
    t_end: float
    rc: int
    result: Optional[dict]
    cpu_s: float
    peak_rss_mb: float
    rundir: Path

    @property
    def setup_s(self) -> Optional[float]:
        return self.result["t_ready"] - self.t_spawn if self.result else None

    @property
    def wall_s(self) -> Optional[float]:
        if not self.result or "t_done" not in self.result:
            return None
        return self.result["t_done"] - self.result["t_ready"]


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, argv: Sequence[str] = ()) -> Proc:
        """Start bench/child.py in a fresh directory and reap it with wait4."""
        self.count += 1
        rundir = self.workdir / f"{self.count:03d}-{mode}"
        rundir.mkdir()
        result_path = rundir / "result.json"
        env = dict(os.environ, GAUGEQED_OUTDIR=str(rundir))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode,
               str(result_path), str(SRC), *argv]
        with open(rundir / "stdout", "wb") as out, \
                open(rundir / "stderr", "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=out,
                                    stderr=err)
            status, usage = self._reap(proc)
            t_end = time.monotonic()
        rc = os.waitstatus_to_exitcode(status)
        proc.returncode = rc
        result = None
        if result_path.exists():
            result = json.loads(result_path.read_text())
        return Proc(t_spawn, t_end, rc, result,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    rundir)

    def _reap(self, proc: subprocess.Popen):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                return status, usage
            time.sleep(POLL_S)


def median_and_tail(values: Sequence[float]) -> str:
    """Median, plus the highest percentile with at least ten samples above
    it, plus the sample count."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.6g}"
    if n >= 11:
        k = n - 10
        text += f", p{math.floor(100 * k / n)} {vals[k - 1]:.6g}"
    else:
        text += ", no tail percentile (needs 11 samples)"
    return text + f", n={n}"


def git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, stack: Optional[dict]) -> dict:
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS")}
    threads.setdefault("OPENBLAS_NUM_THREADS", None)
    return {"commit": git_commit(ROOT), **(stack or {}),
            "num_threads_env": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "seed": seed}


def run(workload: workloads.Workload, seed: int, seconds: float,
        trace: bool, workdir: Path, start: float) -> dict:
    argv = workloads.argv_for(workload, seed)
    runner = Runner(workdir, start + DEADLINE_S)
    env_proc = runner.spawn("env")
    stack = env_proc.result.get("env") if env_proc.result else None

    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            p = runner.spawn("probe")
            if p.setup_s is not None:
                setups.append(p.setup_s)

    checks: List[workloads.Check] = []

    def cli_run(mode: str) -> Proc:
        p = runner.spawn(mode, argv)
        csv = p.rundir / workload.csv_name
        checks.append(workloads.check_run(
            workload, seed, argv, p.rc,
            csv.read_text() if csv.is_file() else None))
        return p

    # closed loop: one CLI process at a time, while the next one is expected
    # to finish inside the window (always at least one)
    runs: List[Proc] = []
    window = time.monotonic()
    while True:
        p = cli_run("run")
        runs.append(p)
        spent = time.monotonic() - window
        if spent + (p.t_end - p.t_spawn) > seconds \
                or time.monotonic() > runner.deadline:
            break
    items = [c.attempted for c in checks]

    timed = [p for p in runs if p.wall_s is not None]
    walls = [p.wall_s for p in timed]
    procs = list(runs)
    samples: Dict[str, List[float]] = {}
    metrics: Dict[str, tuple] = {}
    if trace:
        tp = cli_run("trace")
        procs.append(tp)
        spans_path = Path(str(tp.rundir / "result.json") + ".spans")
        if spans_path.is_file() and walls:
            spans = [tracer.Span.from_list(r)
                     for r in json.loads(spans_path.read_text())]
            metrics = tracer.summarize(spans, workload.threads)
            metrics["trace.overhead_frac"] = (
                metrics["cli.main.total_s"][0] / statistics.median(walls)
                - 1.0, "ratio")
    elif walls:
        samples = {
            "setup_s": setups + [p.setup_s for p in runs
                                 if p.setup_s is not None],
            "wall_s": walls,
            "items_per_s": [n / p.wall_s for p, n in zip(runs, items)
                            if p.wall_s],
            "cpu_s": [p.cpu_s for p in timed],
            "peak_rss_mb": [p.peak_rss_mb for p in timed],
        }
        metrics = {k: (statistics.median(v), END_TO_END_UNITS[k])
                   for k, v in samples.items()}
    return {"argv": argv, "env": environment(seed, stack),
            "samples": samples, "metrics": metrics,
            "attempted": sum(c.attempted for c in checks),
            "failed": sum(c.failed for c in checks),
            "problems": [msg for c in checks for msg in c.problems],
            "stderr": [(p.rundir / "stderr").read_text()[-2000:]
                       for p in procs if p.rc != 0]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "gaugeqed" / "cli.py").is_file():
        print(f"no gaugeqed sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace),
                  workdir, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not res["metrics"]:
        for text in res["stderr"]:
            print(text, file=sys.stderr)
        print("no run of the workload produced timings", file=sys.stderr)
        return 1
    print(f"workload {workload.name} seed {args.seed}: gaugeqed "
          + " ".join(res["argv"]))
    for name, values in res["samples"].items():
        print(f"  {name} [{END_TO_END_UNITS[name]}]: "
              + median_and_tail(values) + " ("
              + " ".join(f"{v:.4g}" for v in values) + ")")
    if args.trace:
        for name, (value, unit) in res["metrics"].items():
            print(f"  {name} [{unit}]: {value:.6g}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  failed_frac: {frac:.6g} ({res['failed']} of "
          f"{res['attempted']} items)")
    for msg in res["problems"][:10]:
        print(f"  failed item: {msg}")
    for text in res["stderr"]:
        print(text, file=sys.stderr)
    print("environment: " + json.dumps(res["env"]))
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
