"""Output checks applied to every benchmark run of the passivebc CLI.

A run fails when the CLI exits nonzero or any check here reports a
problem.  The checks are the program's own acceptance properties, at
their stated tolerances:

* ``simulate`` writes n_steps + 1 finite rows with the ten ledger columns;
* every row closes the energy ledger, ``|residual + slack/2| <= 1e-10 (1 +
  max H)``;
* the scattering slack is nonnegative up to roundoff;
* ``verify --suite all`` prints that all 13 checks passed;
* at the default seed, H, y_1 and y_2 at about 20 grid times match the
  reference values stored in ``reference.json`` to a relative tolerance
  of 1e-9.  H stays positive, so each sample is compared to 1e-9 of its
  own value (plus a floor far below any H the workloads reach); y_1 and
  y_2 cross zero, so their tolerance is 1e-9 of the column's largest
  reference magnitude.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CSV_COLUMNS = ("t", "H", "H_p", "H_k", "u_1", "u_2", "y_1", "y_2",
               "balance_residual", "scattering_slack")
LEDGER_TOL = 1e-10
SLACK_ROUNDOFF = 1e-14
REFERENCE_RTOL = 1e-9
REFERENCE_COLUMNS = ("H", "y_1", "y_2")
H_FLOOR = 1e-15           # absolute part of the per-sample H tolerance
VERIFY_PASSED = "suite 'all': all 13 checks passed"
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    return header, [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def sample_rows(n_steps: int, count: int = 20) -> list[int]:
    """About ``count`` evenly spaced row indices of an n_steps run."""
    return sorted({round(i * n_steps / count) for i in range(count + 1)})


def check_csv(path: Path, n_steps: int,
              reference: dict | None = None) -> list[str]:
    """Problems found in a ``simulate`` CSV; empty when it passes."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path.name}: {exc}"]
    if tuple(header) != CSV_COLUMNS:
        return [f"header {header} is not {list(CSV_COLUMNS)}"]
    problems = []
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} rows, expected {n_steps + 1}")
    if any(len(r) != len(CSV_COLUMNS) for r in rows):
        return problems + ["row with a wrong number of columns"]
    if not all(math.isfinite(v) for r in rows for v in r):
        return problems + ["non-finite value"]
    col = {name: i for i, name in enumerate(CSV_COLUMNS)}
    scale = 1.0 + max(r[col["H"]] for r in rows)
    closure = max(abs(r[col["balance_residual"]]
                      + 0.5 * r[col["scattering_slack"]]) for r in rows)
    if closure > LEDGER_TOL * scale:
        problems.append(f"ledger closure {closure:.3e} exceeds "
                        f"{LEDGER_TOL:g} (1 + max H)")
    slack = min(r[col["scattering_slack"]] for r in rows)
    if slack < -SLACK_ROUNDOFF * scale:
        problems.append(f"negative scattering slack {slack:.3e}")
    if reference is not None and not problems:
        problems += _compare_reference(rows, col, reference)
    return problems


def _compare_reference(rows, col, reference: dict) -> list[str]:
    problems = []
    for name in REFERENCE_COLUMNS:
        ref = reference[name]
        column_tol = REFERENCE_RTOL * max(abs(v) for v in ref)
        for i, v in zip(reference["rows"], ref):
            tol = (REFERENCE_RTOL * abs(v) + H_FLOOR if name == "H"
                   else column_tol)
            miss = abs(rows[i][col[name]] - v)
            if miss > tol:
                problems.append(f"{name} at row {i} deviates from the "
                                f"reference by {miss:.3e} (tolerance "
                                f"{tol:.3e})")
                break
    return problems


def check_verify(stdout: str) -> list[str]:
    if VERIFY_PASSED not in stdout:
        return [f"verify output lacks {VERIFY_PASSED!r}"]
    return []


def check_run(exit_code: int, stdout: str, command: str, csv_path: Path,
              n_steps: int, reference: dict | None = None) -> list[str]:
    """All checks for one CLI run."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if command == "verify":
        return check_verify(stdout)
    return check_csv(csv_path, n_steps, reference)


def load_reference(workload: str) -> dict | None:
    return json.loads(REFERENCE_PATH.read_text()).get(workload)
