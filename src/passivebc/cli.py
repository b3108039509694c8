"""Command-line entry point: simulate, verify, jet-compare, cayley.

Exit codes: 0 success, 1 a verify check failed, 2 scenario/schema errors,
3 numeric gate failures (the message names the violated invariant, or the
linear-algebra routine that failed on the data), 4 any other exception,
printed as ``internal error: <Type>: <msg>`` (traceback at DEBUG).  CSV
files are written atomically (temp file + rename) with 17 significant
digits so golden-file comparisons round-trip exactly.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import PassivebcError, ScenarioError
from .jet import push_state, ran_A_defect
from .node import external_cayley
from .scenario import (
    Scenario,
    build_flavor_node,
    build_initial_state,
    build_node,
    build_signal,
    build_system,
    load_scenario,
)
from .sim import simulate
from .verify import SUITES, run_suite

__all__ = ["main", "run_scenario", "verify_suite", "jet_compare"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

CSV_COLUMNS = ("t", "H", "H_p", "H_k", "u_1", "u_2", "y_1", "y_2",
               "balance_residual", "scattering_slack")


def _write_csv_atomic(path: str, header: tuple[str, ...], table) -> None:
    """Write ``header`` and the rows of a 2-D float array, 17 digits each."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for values in table.tolist():
                fh.write(row % tuple(values))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trajectory_table(traj) -> np.ndarray:
    """CSV_COLUMNS as an array; the first row holds zero port samples."""
    led = traj.ledger
    table = np.zeros((traj.n_steps + 1, len(CSV_COLUMNS)))
    table[:, 0] = traj.times
    table[:, 1] = led.H
    table[:, 2] = led.H_p
    table[:, 3] = led.H_k
    table[1:, 4:6] = traj.inputs[:, :2]
    table[1:, 6:8] = traj.outputs[:, :2]
    table[1:, 8] = led.residual
    table[1:, 9] = led.slack
    return table


def _resolve_out(sc: Scenario, out_flag: str | None) -> str:
    out = out_flag or sc.out
    if out is None:
        raise ScenarioError("no output path: set 'out' in the scenario "
                            "or pass --out")
    return out


def run_scenario(path: str, out: str | None = None) -> int:
    """Simulate a scenario and export the trajectory ledger as CSV."""
    sc = load_scenario(path)
    out_path = _resolve_out(sc, out)
    sys_ = build_system(sc)
    node = build_node(sc, sys_)
    signal = build_signal(sc)
    z0 = build_initial_state(sc, sys_)
    if sc.formulation == "strain-momentum":
        z0 = push_state(sys_.jet, z0)
    traj = simulate(node, z0, signal, sc.t_final, sc.dt)
    _write_csv_atomic(out_path, CSV_COLUMNS, _trajectory_table(traj))
    print(f"wrote {traj.n_steps} steps to {out_path}")
    return EXIT_OK


def verify_suite(path: str, suite: str = "all",
                 corrupt_gamma1: bool = False) -> int:
    """Run the named property suite; print one line per check."""
    sc = load_scenario(path)
    checks = run_suite(sc, suite, corrupt_gamma1=corrupt_gamma1)
    failed = None
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        print(f"{status} {chk.name}: max residual {chk.residual:.3e} "
              f"(tol {chk.tol:.1e})")
        if failed is None and not chk.passed:
            failed = chk.name
    if failed is not None:
        print(f"verification failed: {failed}")
        return EXIT_VERIFY_FAILED
    print(f"suite {suite!r}: all {len(checks)} checks passed")
    return EXIT_OK


def jet_compare(path: str, out: str | None = None) -> int:
    """Run both formulations and export per-step deviation columns."""
    sc = load_scenario(path)
    out_path = _resolve_out(sc, out)
    sys_ = build_system(sc)
    jt = sys_.jet

    node_a = build_flavor_node(sc, sys_, sys_.op_A)
    node_b = build_flavor_node(sc, sys_, jt.target)
    signal = build_signal(sc)
    z0 = build_initial_state(sc, sys_)
    traj_a = simulate(node_a, z0, signal, sc.t_final, sc.dt)
    traj_b = simulate(node_b, push_state(jt, z0), signal, sc.t_final, sc.dt)

    nc_a = sys_.op_A.core.dim
    dim_y = jt.A_iso.codomain.dim
    rows = []
    for i, t in enumerate(traj_a.times):
        z = traj_a.states_ext[i][:nc_a]
        w = traj_b.states_ext[i][:jt.target.core.dim]
        dev = float(np.linalg.norm(push_state(jt, z) - w))
        rows.append([t, dev, ran_A_defect(jt, w[:dim_y])])
    _write_csv_atomic(out_path, ("t", "state_deviation", "ran_a_defect"),
                      rows)
    worst = max(r[1] for r in rows)
    print(f"wrote {len(rows)} rows to {out_path}; max deviation {worst:.3e}")
    return EXIT_OK


def cayley_report(path: str, beta: float | None = None) -> int:
    """Print the transformed node maps and the involution residual."""
    sc = load_scenario(path)
    sys_ = build_system(sc)
    node = build_flavor_node(sc, sys_, sys_.op_A)
    b = sc.beta if beta is None else beta
    transformed = external_cayley(node, b)
    twice = external_cayley(transformed, b)
    invol = max(float(np.abs(twice.G_map - node.G_map).max()),
                float(np.abs(twice.K_map - node.K_map).max()))
    np.set_printoptions(precision=6, suppress=False, linewidth=120)
    print(f"flavor {node.flavor} -> {transformed.flavor} at beta={b:g}")
    print("transformed input map G:")
    print(transformed.G_map)
    print("transformed output map K:")
    print(transformed.K_map)
    print(f"involution residual: {invol:.3e}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passivebc",
        description="Simulate and verify passive boundary-controlled "
                    "second-order systems (1-D wave instance).")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True,
                        help="path to a scenario JSON file")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a scenario and export the energy "
                                "ledger as CSV")
    p_sim.add_argument("--out", help="CSV output path (overrides the "
                                     "scenario's 'out')")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run property suites on the scenario's "
                                "system")
    p_ver.add_argument("--suite", default="all", choices=SUITES)
    p_ver.add_argument("--corrupt-gamma1", action="store_true",
                       help="debug: inject a trace fault to exercise "
                            "failure reporting")

    p_jet = sub.add_parser("jet-compare", parents=[common],
                           help="simulate both formulations and export "
                                "their deviation")
    p_jet.add_argument("--out", help="CSV output path")

    p_cay = sub.add_parser("cayley", parents=[common],
                           help="print the externally Cayley-transformed "
                                "node maps")
    p_cay.add_argument("--beta", type=float, default=None,
                       help="transform parameter (default: scenario beta)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return run_scenario(args.scenario, args.out)
        if args.command == "verify":
            return verify_suite(args.scenario, args.suite,
                                corrupt_gamma1=args.corrupt_gamma1)
        if args.command == "jet-compare":
            return jet_compare(args.scenario, args.out)
        return cayley_report(args.scenario, args.beta)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (PassivebcError, np.linalg.LinAlgError) as exc:
        # LinAlgError: a factorization or eigensolver failed on the data
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        # exit 1 would read as a failed verify check
        logging.getLogger("passivebc").debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
