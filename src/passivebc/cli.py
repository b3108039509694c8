"""Command-line entry point: simulate, verify, jet-compare, cayley.

Exit codes: 0 success, 1 a verify check failed, 2 scenario/schema errors
and unusable output paths, 3 numeric gate failures (the message names the
violated invariant, the linear-algebra routine that failed on the data,
or a set-up too large to allocate), 4 any other exception, printed as
``internal error: <Type>: <msg>`` (traceback at DEBUG).  CSV files are
written atomically (temp file + rename) with 17 significant digits so
golden-file comparisons round-trip exactly; ``simulate`` and
``jet-compare`` write each block of a run, a ``sim.Trajectory``, as it is
stepped (``sim.simulate_blocks``).
"""

from __future__ import annotations

import argparse
import logging
import mmap
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import PassivebcError, ScenarioError, ShapeMismatch
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
from .sim import _block_steps, simulate_blocks
from .verify import SUITES, run_suite

__all__ = ["main", "run_scenario", "verify_suite", "jet_compare"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

CSV_COLUMNS = ("t", "H", "H_p", "H_k", "u_1", "u_2", "y_1", "y_2",
               "balance_residual", "scattering_slack")


def _write_csv_atomic(path: str, header: tuple[str, ...], table) -> int:
    """Write ``header`` and the rows of ``table``, 17 digits each; return
    the row count.

    ``table`` is an iterable of rows or of 2-D row blocks (a 2-D array is
    read row by row); each is written as it arrives, so a streamed run
    holds one block.  The file's directory must exist.  The file appears
    only once the last row is written: if reading ``table`` raises, the
    temp file is removed.
    """
    row = ",".join(["%.17g"] * len(header)) + "\n"
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    count = 0
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for block in table:
                rows = np.atleast_2d(np.asarray(block, dtype=float))
                # one % per block, the row format repeated: the bytes of
                # formatting row by row
                fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))
                count += len(rows)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return count


def _trajectory_table(traj) -> np.ndarray:
    """CSV_COLUMNS of a ``Trajectory``, a whole run or one block, as an
    array: row k carries the ports and ledger of the step ending on it, and
    the first grid row holds zero port samples.  ``ShapeMismatch`` unless
    the run has the two ports the columns name."""
    m = traj.inputs.shape[1]
    if m != 2 or traj.outputs.shape[1] != 2:
        raise ShapeMismatch(f"the CSV has columns for 2 ports; the run has "
                            f"m = {m}")
    led = traj.ledger
    table = np.zeros((len(traj.times), len(CSV_COLUMNS)))
    first = len(traj.times) - len(traj.inputs)   # 1 on the block of row 0
    table[:, 0] = traj.times
    table[:, 1] = led.H
    table[:, 2] = led.H_p
    table[:, 3] = led.H_k
    table[first:, 4:6] = traj.inputs[:, :2]
    table[first:, 6:8] = traj.outputs[:, :2]
    table[first:, 8] = led.residual
    table[first:, 9] = led.slack
    return table


def _resolve_out(sc: Scenario, out_flag: str | None) -> str:
    """The CSV path of a run, its directory made; ``ScenarioError`` naming
    the path when there is none, it is a directory or its directory cannot
    be made (a regular file in the way, say), before any set-up."""
    out = out_flag or sc.out
    if out is None:
        raise ScenarioError("no output path: set 'out' in the scenario "
                            "or pass --out")
    target = Path(out)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot make the directory of output path "
                            f"{out}: {exc}") from exc
    if target.is_dir():
        raise ScenarioError(f"output path {out} is a directory")
    return out


def _refuse_unallocatable(sc: Scenario, formulation: str | None) -> None:
    """Refuse, before any O(N) set-up, an N whose largest array cannot be
    allocated: the step matrix of a run on ``formulation`` (ext x ext,
    ext = 2N + 4 or 3N + 4), or for None a bound of the lift, the extent
    of B_ext, (N + 1) x (2N + 3).  The lift forms its product tile by tile
    (``triplet._tiled_product``) and holds no dense B_ext, but the tiles
    still sweep that extent in O(N^2) flops, so an N past it is refused.
    For ``"set-up"`` it is a bound of the strain-momentum set-up's peak,
    150 doubles a cell (traced: 1.12-1.20 kB a cell at N = 10^3-3 10^5).

    Its bytes are asked of the operating system as an anonymous mapping
    and let go at once: a size that cannot be mapped raises
    ``MemoryError`` naming it, not after the sparse set-up (about 10 s
    and 4 GB of address space at N = 10^7).  One that can touches no
    page and, unlike a NumPy array, leaves malloc's thresholds, and so a
    run's peak RSS, as they were.
    """
    n = sc.N
    what, rows, cols = {
        None: ("extent of the lift's B_ext", n + 1, 2 * n + 3),
        "position-momentum": ("step matrix", 2 * n + 4, 2 * n + 4),
        "strain-momentum": ("step matrix", 3 * n + 4, 3 * n + 4),
        "set-up": ("strain-momentum set-up", n + 1, 150),
    }[formulation]
    nbytes = 8 * rows * cols
    try:
        mmap.mmap(-1, nbytes).close()
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot allocate the {what}, {rows} x {cols} "
                          f"doubles ({nbytes:.3e} bytes), at N = {n}: "
                          f"{exc}") from exc


def run_scenario(path: str, out: str | None = None) -> int:
    """Simulate a scenario and export the trajectory ledger as CSV."""
    sc = load_scenario(path)
    out_path = _resolve_out(sc, out)
    _refuse_unallocatable(sc, sc.formulation)
    sys_ = build_system(sc)
    node = build_node(sc, sys_)
    signal = build_signal(sc)
    z0 = build_initial_state(sc, sys_)
    if sc.formulation == "strain-momentum":
        z0 = push_state(sys_.A_map, z0)
    # the run reads the node alone: release the assembled system before
    # the step matrices are allocated and factored
    del sys_
    blocks = simulate_blocks(node, z0, signal, sc.t_final, sc.dt)
    rows = _write_csv_atomic(out_path, CSV_COLUMNS,
                             map(_trajectory_table, blocks))
    print(f"wrote {rows - 1} steps to {out_path}")
    return EXIT_OK


def verify_suite(path: str, suite: str = "all") -> int:
    """Run the named property suite; print one line per check and kind."""
    sc = load_scenario(path)
    _refuse_unallocatable(sc, None)
    checks = run_suite(sc, suite)
    failed = None
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        number = ("{:.0f} (tol {:.0f})" if chk.kind == "count"
                  else "{:.3e} (tol {:.1e})").format(chk.residual, chk.tol)
        print(f"{status} {chk.name}: {chk.kind} {number}")
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
    _refuse_unallocatable(sc, "strain-momentum")
    sys_ = build_system(sc)
    jt = sys_.jet

    node_a = build_flavor_node(sc, sys_, sys_.op_A)
    node_b = build_flavor_node(sc, sys_, sys_.op_strain)
    signal = build_signal(sc)
    z0 = build_initial_state(sc, sys_)
    nc_a, nc_b = node_a.op.core.dim, node_b.op.core.dim
    # the runs read the jet and the nodes alone: release the system first
    del sys_
    # both runs are cut at the rows of the wider one's blocks
    steps = _block_steps(node_b.op.ext_dim)
    blocks_a = simulate_blocks(node_a, z0, signal, sc.t_final, sc.dt, steps)
    blocks_b = simulate_blocks(node_b, push_state(jt.A_iso, z0), signal,
                               sc.t_final, sc.dt, steps)

    dim_y, worst = jt.A_iso.codomain.dim, []

    def deviation(a, b):
        w = b.states_ext[:, :nc_b]
        dev = np.linalg.norm(push_state(jt.A_iso, a.states_ext[:, :nc_a])
                             - w, axis=1)
        worst.append(dev.max())
        return np.column_stack([a.times, dev, ran_A_defect(jt, w[:, :dim_y])])
    count = _write_csv_atomic(out_path,
                              ("t", "state_deviation", "ran_a_defect"),
                              map(deviation, blocks_a, blocks_b))
    print(f"wrote {count} rows to {out_path}; max deviation {max(worst):.3e}")
    return EXIT_OK


def cayley_report(path: str, beta: float | None = None) -> int:
    """Print the transformed node maps and the round-trip residual.

    The transform at beta is an involution at every beta > 0, so the
    residual is the largest entry gap between the node's maps and those of
    the transform applied twice.
    """
    sc = load_scenario(path)
    _refuse_unallocatable(sc, None if sc.formulation == "position-momentum"
                          else "set-up")
    node = build_node(sc, build_system(sc))
    b = sc.beta if beta is None else beta
    transformed = external_cayley(node, b)
    back = external_cayley(transformed, b)
    round_trip = max(float(np.abs(back.G_map - node.G_map).max()),
                     float(np.abs(back.K_map - node.K_map).max()))
    np.set_printoptions(precision=6, suppress=False, linewidth=120)
    print(f"flavor {node.flavor} -> {transformed.flavor} at beta={b:g}")
    print("transformed input map G:")
    print(transformed.G_map)
    print("transformed output map K:")
    print(transformed.K_map)
    print(f"round-trip residual: {round_trip:.3e}")
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
        # Overflow and NaN on extreme data end at a named finiteness gate;
        # NumPy's warnings about them would only add stderr lines.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "simulate":
                return run_scenario(args.scenario, args.out)
            if args.command == "verify":
                return verify_suite(args.scenario, args.suite)
            if args.command == "jet-compare":
                return jet_compare(args.scenario, args.out)
            return cayley_report(args.scenario, args.beta)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (PassivebcError, np.linalg.LinAlgError, MemoryError) as exc:
        # LinAlgError: a factorization or eigensolver failed on the data;
        # MemoryError: the set-up (an N x N assembly, say) is too large
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        # exit 1 would read as a failed verify check
        logging.getLogger("passivebc").debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
