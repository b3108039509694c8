"""Run the benchmark over several seeds and record the result as a baseline.

Run from the root of a checkout::

    python3 perfbench/record_baseline.py --seeds 10 --sets 2 \\
        --out perfbench/baseline.json

A set runs ``run.py --trace 0`` once per seed (seeds 1 to ``--seeds``) on
every chosen workload; the sets run one after another, so the last starts
about ``--seeds`` x workloads x ``--seconds`` after the first.  For each
end-to-end metric and set it records the median and quartiles of the
per-run values and their spread: the distance between the quartiles as a
share of the median.  It then records the last set's median change from
the first, and whether the spreads and that change stay within the
metric's bound in ``BENCHMARK.json``; a pairing of workload and metric
where they do not is listed as unresolved.  ``run.py --trace 1`` runs
twice per workload at the default seed, and its per-layer metrics are
recorded with their unit and whether they are measured, counted or
computed.  The environment (CPU, versions, thread pins, git commit) is
recorded alongside.  Entries of workloads not rerun are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import run
import tracing
import workloads

# Per-layer metrics derived from the run's objects or from other metrics
# rather than read off a clock or a span count.
COMPUTED = {"sim.states_bytes", "sim.step_matrix.dim", "sim.step_matrix.nnz",
            "tracing_overhead_s"}
NOTES = [
    "End-to-end metrics are taken with tracing off, one client, closed "
    "loop, one fresh interpreter per CLI run; per-layer metrics come from "
    "separate traced runs.",
    "fail_rate is reported as the 'failed' and 'attempted' fields of the "
    "result line and as a summary line; it is not an end_to_end entry "
    "because it is 0 at this commit and a bound relative to a zero median "
    "is meaningless.",
    "A per-layer metric of a layer the workload never calls reads 0 (for "
    "example sim.step.s on verify-suite).",
    "Finding for a later change: 'python -m passivebc.cli' prints a "
    "RuntimeWarning ('passivebc.cli' found in sys.modules after import of "
    "package 'passivebc') because passivebc/__init__.py imports cli; the "
    "benchmark calls passivebc.cli.main via 'python -c' instead.",
    "setup_s of one run is the median over all its set-up runs: each "
    "round of one full run holds one to three set-up runs, as many as take "
    "about half the full run's time.",
    "tracing_overhead_s is the tracer's own cost measured inside the traced "
    "process (its set-up, its post-run sizing and serialization, and a "
    "calibrated per-call wrapper cost times the number of spans); the "
    "traced-minus-untraced wall difference is printed by run.py for "
    "context but sits below the run-to-run noise on these workloads.",
    "Limits of the measuring machine: shared host, no page-cache dropping, "
    "no CPU isolation or frequency pinning, no whole-machine tracing; "
    "timings come from the benchmark's own processes (perf_counter around "
    "posix_spawn/wait4, ru_maxrss from wait4).",
]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()    # run.py then stops its own child
            proc.wait()
            raise
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{out}")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "n": len(values)}


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_pins": {v: "1" for v in run.THREAD_PINS},
            "git_commit": commit}


def end_to_end(sets: list[list[dict]], bounds: dict) -> dict:
    out = {}
    for metric, unit in run.END_TO_END.items():
        summaries = [summary([r["metrics"][metric]["value"] for r in runs])
                     for runs in sets]
        bound = bounds[metric]
        entry = {"unit": unit, "bound": bound, "sets": summaries,
                 "spreads_within_bound": all(s["spread"] <= bound
                                             for s in summaries)}
        if len(sets) > 1:
            change = summaries[-1]["median"] / summaries[0]["median"] - 1
            entry["median_change"] = change
            entry["change_within_bound"] = abs(change) <= bound
        out[metric] = entry
    return out


def unresolved(workloads_out: dict) -> list[str]:
    found = []
    for name, entry in workloads_out.items():
        for metric, m in entry["end_to_end"].items():
            if not (m["spreads_within_bound"]
                    and m.get("change_within_bound", True)):
                spreads = ", ".join(f"{s['spread']:.3f}" for s in m["sets"])
                change = m.get("median_change")
                found.append(
                    f"unresolved: {name} {metric}, spreads {spreads}"
                    + (f", median change {change:+.3f}" if change is not None
                       else "") + f" against bound {m['bound']}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or list(workloads.WORKLOADS)
    seeds = list(range(1, args.seeds + 1))
    sets = []
    for k in range(args.sets):
        runs = {}
        for name in names:
            runs[name] = [bench(name, seed, args.seconds, 0)
                          for seed in seeds]
            for metric in run.END_TO_END:
                s = summary([r["metrics"][metric]["value"]
                             for r in runs[name]])
                print(f"set {k + 1} {name:13s} {metric:12s} median "
                      f"{s['median']:.4g}  spread {s['spread']:.3f} "
                      f"(bound {bounds[metric]})", flush=True)
        sets.append(runs)

    baseline = {}
    for name in names:
        w = workloads.WORKLOADS[name]
        traced = [bench(name, workloads.DEFAULT_SEED, args.seconds, 1)
                  for _ in range(2)]
        layers = {}
        for metric, unit in tracing.PER_LAYER.items():
            values = [t["metrics"][metric]["value"] for t in traced]
            kind = ("computed" if metric in COMPUTED
                    else "counted" if metric.endswith(".calls")
                    else "measured")
            layers[metric] = {"unit": unit, "kind": kind, "values": values}
        runs = [r for s in sets for r in s[name]]
        baseline[name] = {
            "why": w.why, "command": w.command, "N": w.N,
            "flavor": w.flavor, "dt": w.dt, "n_steps": w.n_steps,
            "default_seed": workloads.DEFAULT_SEED, "seeds": seeds,
            "runs_attempted": sum(r["attempted"] for r in runs),
            "runs_failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end([s[name] for s in sets], bounds),
            "per_layer": layers}

    found = unresolved(baseline)
    print("\n".join(found) or "every pairing within its bound")
    if args.out:
        prior = (json.loads(args.out.read_text())
                 if args.out.exists() else {})
        prior.setdefault("workloads", {}).update(baseline)
        prior["environment"] = environment()
        prior["run_seconds"] = args.seconds
        prior["notes"] = NOTES + unresolved(prior["workloads"])
        args.out.write_text(json.dumps(prior, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
