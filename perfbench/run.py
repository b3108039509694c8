"""Benchmark of the passivebc CLI: timed runs, output checks and tracing.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 36 \\
        --trace 0

The runner writes the workload's scenario files from ``--seed`` and runs
``passivebc.cli.main`` in a fresh interpreter per run, with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  One client, closed
loop: each run starts after the previous one has exited.

``--trace 0`` repeats, for ``--seconds`` (at least three rounds), a round
of the full command followed by one or more runs of the same command cut
to one time step, and reports

* ``wall_s``: median wall clock of the full command, interpreter start to
  exit;
* ``setup_s``: median wall clock of the one-step ``simulate`` run on the
  same system (import, parse, assembly, node build, initialization and
  factorization).  A round holds as many set-up runs as take about half
  the full run's time (one to three), so that the cheap set-up figure
  gets more samples;
* ``peak_rss_mb``: median maximum RSS of the full command's process.

``--trace 1`` repeats a round of an untraced full run, a traced one and a
few runs that only import the package (at least two rounds), and reports
the per-layer metrics of ``tracing.py``: medians of times, counts that
must repeat exactly between traced runs, and ``tracing_overhead_s``, the
tracer's own cost.  Each traced run's spans and phases must account for
its measured wall clock less the interpreter's start and exit (the
median import-only wall less its import), within ``GAP_TOL_SHARE`` of
that wall plus ``GAP_TOL_S``.

Every run's output is checked (``checks.py``); full ``simulate`` runs must
also write byte-identical CSVs.  ``fail_rate`` is failed over attempted
runs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = "import sys; from passivebc.cli import main; sys.exit(main())"
IMPORT_ONLY = ("import time; t0 = time.perf_counter(); import passivebc; "
               "print(time.perf_counter() - t0)")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_ROUNDS = 3           # rounds of full + set-up runs per untraced run
MAX_SETUPS = 3           # set-up runs per round, at most
MIN_TRACED = 2           # traced runs per traced run
IMPORT_ONLY_RUNS = 3     # import-only runs per traced round
GAP_TOL_SHARE = 0.05     # allowed unaccounted share of a traced wall
GAP_TOL_S = 0.1          # ... plus this many seconds
CHILD_TIMEOUT_S = 150.0  # a single CLI run that takes longer is killed
STOP_STARTING_S = 120.0  # no new CLI run starts after this much time
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    spans: Path | None = None   # span file of a traced run
    label: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def reject(self, label: str, problem: str) -> None:
        """Fail a run that passed its output checks."""
        self.failed += 1
        self.problems.append(f"{label}: {problem}")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + prior
                                             if prior else "")
    for var in THREAD_PINS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, log: Path) -> Child:
    """Run one child to completion; wall clock and rusage from ``wait4``."""
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                               (pid, signal.SIGKILL))
    watchdog.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        watchdog.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return Child(code=os.waitstatus_to_exitcode(status), wall_s=wall,
                 maxrss_mb=usage.ru_maxrss / 1024.0,
                 stdout=out.read_text(errors="replace"))


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.w = workloads.WORKLOADS[workload]
        self.env = child_env(root)
        self.work = work
        self.full_json = workloads.write_scenario(
            workload, seed, work / "full.json")
        self.setup_json = workloads.write_scenario(
            workload, seed, work / "setup.json", n_steps=1)
        self.full_csv = work / "full.csv"
        self.setup_csv = work / "setup.csv"
        self.reference = (checks.load_reference(workload)
                          if seed == workloads.DEFAULT_SEED else None)
        self.tally = Tally()
        self.digests: set[str] = set()
        self.runs = 0

    def csv(self, full: bool) -> Path:
        return self.full_csv if full else self.setup_csv

    def cli_args(self, full: bool) -> list[str]:
        if full and self.w.command == "verify":
            return ["verify", "--scenario", str(self.full_json)]
        scenario = self.full_json if full else self.setup_json
        return ["simulate", "--scenario", str(scenario), "--out",
                str(self.csv(full))]

    def run(self, full: bool, traced: bool = False) -> Child:
        self.runs += 1
        log = self.work / f"run{self.runs:03d}"
        spans = log.with_suffix(".spans.json") if traced else None
        prefix = [sys.executable]
        prefix += ([str(HERE / "tracing.py"), str(spans), "--"] if traced
                   else ["-c", CLI])
        child = spawn(prefix + self.cli_args(full), self.env, log)
        child.spans = spans
        child.label = log.name
        self.check(child, full, log.name)
        return child

    def start_and_exit(self) -> float:
        """Wall clock of an interpreter that imports the package and exits,
        less the import: its start and its exit with the package loaded."""
        self.runs += 1
        log = self.work / f"run{self.runs:03d}"
        child = spawn([sys.executable, "-c", IMPORT_ONLY], self.env, log)
        try:
            return child.wall_s - float(child.stdout)
        except ValueError:
            self.tally.record(log.name, [f"import-only run exit "
                                         f"{child.code}"])
            return child.wall_s

    def check(self, child: Child, full: bool, label: str) -> None:
        n_steps = self.w.n_steps if full else 1
        csv = self.csv(full)
        command = self.w.command if full else "simulate"
        problems = checks.check_run(child.code, child.stdout, command, csv,
                                    n_steps, self.reference if full else None)
        if not problems and full and command == "simulate":
            self.digests.add(hashlib.sha256(csv.read_bytes()).hexdigest())
            if len(self.digests) > 1:
                problems = ["CSV differs from an earlier run of the same "
                            "scenario"]
        self.tally.record(label, problems)

    def warm_up(self) -> None:
        """Import the package once to fill the file cache; not timed."""
        child = spawn([sys.executable, "-c", "import passivebc"], self.env,
                      self.work / "warmup")
        if child.code != 0:
            self.tally.record("warm-up", [f"import failed, exit "
                                          f"{child.code}"])


class Window:
    """Measurement window: repeat a round until ``seconds`` are used up.

    At least ``minimum`` rounds run.  After that, a round starts only if
    the mean round so far still fits in the window, so a run ends close to
    ``seconds``; no round starts after ``STOP_STARTING_S``.
    """

    def __init__(self, seconds: float, minimum: int):
        self.seconds = seconds
        self.minimum = minimum
        self.rounds = 0
        self.t0 = time.perf_counter()

    def another(self) -> bool:
        elapsed = time.perf_counter() - self.t0
        done = self.rounds
        self.rounds += 1
        if done < self.minimum:
            return done == 0 or elapsed < STOP_STARTING_S
        return elapsed + elapsed / done <= self.seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(bench: Bench, seconds: float) -> dict:
    walls, setups, rss = [], [], []
    window = Window(seconds, MIN_ROUNDS)
    repeats = 1
    while window.another():
        full = bench.run(full=True)
        walls.append(full.wall_s)
        rss.append(full.maxrss_mb)
        for _ in range(repeats):
            setups.append(bench.run(full=False).wall_s)
        repeats = max(1, min(MAX_SETUPS,
                             round(0.5 * walls[0] / setups[0])))
    values = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def measure_traced(bench: Bench, seconds: float) -> dict:
    start_exit, pairs = [], []
    window = Window(seconds, MIN_TRACED)
    while window.another():
        plain = bench.run(full=True)
        child = bench.run(full=True, traced=True)
        start_exit += [bench.start_and_exit()
                       for _ in range(IMPORT_ONLY_RUNS)]
        if child.code == 0 and child.spans.exists():
            pairs.append((plain, child, json.loads(child.spans.read_text())))

    interpreter_s = statistics.median(start_exit)
    per_run, differences = [], []
    for plain, child, traced in pairs:
        trace, phases = traced["trace"], traced["phases"]
        gap = tracing.wall_gap(trace, phases, child.wall_s, interpreter_s)
        if abs(gap) > GAP_TOL_SHARE * child.wall_s + GAP_TOL_S:
            bench.tally.reject(child.label, f"spans and phases miss the "
                               f"traced wall {child.wall_s:.3f} s by "
                               f"{gap:.3f} s")
        layer = tracing.layer_metrics(trace)
        layer["cli.csv_bytes"] = (bench.full_csv.stat().st_size
                                  if bench.w.command == "simulate" else 0)
        layer["tracing_overhead_s"] = tracing.overhead(phases)
        per_run.append(layer)
        differences.append(child.wall_s - plain.wall_s)
        print(f"traced {child.label}: wall {child.wall_s:.3f} s, "
              f"unaccounted {gap:+.3f} s after {interpreter_s:.3f} s "
              f"interpreter start and exit")

    if not per_run:
        return {}
    print(f"traced minus untraced wall, median of {len(differences)} "
          f"pairs: {statistics.median(differences):+.3f} s")
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        values = [r[name] for r in per_run]
        if unit != "s" and len(set(values)) != 1:
            bench.tally.problems.append(
                f"{name} differs between traced runs: {values}")
        metrics[name] = (values, unit)
    return metrics


def report(metrics: dict, tally: Tally) -> dict:
    """Print a readable summary and return the ``metrics`` object."""
    out = {}
    for name, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "unit": unit}
        print(f"{name:44s} {med:14.6g} {unit:6s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    rate = tally.failed / max(tally.attempted, 1)
    print(f"{'fail_rate':44s} {rate:14.6g} {'1':6s} "
          f"({tally.failed} failed of {tally.attempted} runs)")
    for problem in tally.problems:
        print(f"FAIL {problem}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still kills and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "passivebc" / "cli.py").is_file():
        print(f"no passivebc source under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(root, args.workload, args.seed, work)
        bench.warm_up()
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
        print(f"workload {args.workload} seed {args.seed} "
              f"({bench.w.why})")
        result = report(metrics, bench.tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only when no other run is using it
        except OSError:
            pass

    tally = bench.tally
    correct = tally.failed == 0 and not tally.problems and bool(result)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
