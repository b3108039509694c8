"""Write ``reference.json``: sampled H and y of each simulate workload.

Run from the root of a checkout whose trajectories are the reference::

    python3 perfbench/make_reference.py

For each ``simulate`` workload at the default seed, the CLI runs once and
H, y_1 and y_2 are kept at about 20 grid times (``checks.sample_rows``).
Values are stored as JSON floats, which round-trip exactly.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, w in workloads.WORKLOADS.items():
            if w.command != "simulate":
                continue
            scenario = workloads.write_scenario(name, workloads.DEFAULT_SEED,
                                                work / f"{name}.json")
            csv = work / f"{name}.csv"
            child = run.spawn([sys.executable, "-c", run.CLI, "simulate",
                               "--scenario", str(scenario), "--out",
                               str(csv)], run.child_env(root), work / name)
            problems = checks.check_run(child.code, child.stdout, "simulate",
                                        csv, w.n_steps)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            header, rows = checks.read_csv(csv)
            idx = checks.sample_rows(w.n_steps)
            entry = {"seed": workloads.DEFAULT_SEED, "rows": idx}
            for col in checks.REFERENCE_COLUMNS:
                j = header.index(col)
                entry[col] = [rows[i][j] for i in idx]
            reference[name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
