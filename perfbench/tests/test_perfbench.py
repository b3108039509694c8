"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the root of the repository::

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

SHORT_STEPS = 50


def test_generator_is_deterministic(tmp_path):
    first = workloads.write_all(7, tmp_path / "a")
    second = workloads.write_all(7, tmp_path / "b")
    other = workloads.write_all(8, tmp_path / "c")
    for name in workloads.WORKLOADS:
        assert first[name].read_bytes() == second[name].read_bytes()
        assert first[name].read_bytes() != other[name].read_bytes()


def test_generator_scales_contraction_and_cuts_grid():
    sc = workloads.scenario("long-run", 3)
    assert np.linalg.norm(np.array(sc["P"]), 2) == pytest.approx(0.6)
    assert round(sc["t_final"] / sc["dt"]) == 20000
    one = workloads.scenario("long-run", 3, n_steps=1)
    assert one["t_final"] == one["dt"]
    assert one["coefficients"] == sc["coefficients"]


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A 50-step long-run CSV written by the CLI, and its run's stdout."""
    root = run.HERE.parent
    work = tmp_path_factory.mktemp("short")
    scenario = workloads.write_scenario("long-run", 1, work / "s.json",
                                        n_steps=SHORT_STEPS)
    csv = work / "s.csv"
    child = run.spawn([sys.executable, "-c", run.CLI, "simulate",
                       "--scenario", str(scenario), "--out", str(csv)],
                      run.child_env(root), work / "s")
    assert child.code == 0
    return csv, child


def _rewrite(src, dst, edit):
    header, rows = checks.read_csv(src)
    rows = edit(rows)
    dst.write_text(",".join(header) + "\n" + "".join(
        ",".join(repr(v) for v in r) + "\n" for r in rows))
    return dst


def test_checker_accepts_cli_output(short_run):
    csv, child = short_run
    assert checks.check_run(0, child.stdout, "simulate", csv,
                            SHORT_STEPS) == []


def test_checker_rejects_flipped_slack(short_run, tmp_path):
    csv, _ = short_run
    slack = checks.CSV_COLUMNS.index("scattering_slack")

    def flip(rows):
        for r in rows:
            r[slack] = -r[slack]
        return rows
    bad = _rewrite(csv, tmp_path / "flip.csv", flip)
    problems = checks.check_csv(bad, SHORT_STEPS)
    assert any("negative scattering slack" in p for p in problems)


def test_checker_rejects_dropped_row(short_run, tmp_path):
    csv, _ = short_run
    bad = _rewrite(csv, tmp_path / "drop.csv", lambda rows: rows[:-1])
    assert checks.check_csv(bad, SHORT_STEPS) == [
        f"{SHORT_STEPS} rows, expected {SHORT_STEPS + 1}"]


def test_checker_rejects_nonzero_exit(short_run):
    csv, child = short_run
    assert checks.check_run(3, child.stdout, "simulate", csv,
                            SHORT_STEPS) == ["exit code 3"]


def test_checker_rejects_failed_verify():
    assert checks.check_verify("verification failed: green_identity\n")
    assert checks.check_verify(checks.VERIFY_PASSED + "\n") == []


def test_checker_compares_reference(short_run, tmp_path):
    csv, _ = short_run
    header, rows = checks.read_csv(csv)
    idx = checks.sample_rows(SHORT_STEPS)
    reference = {"rows": idx}
    for name in checks.REFERENCE_COLUMNS:
        reference[name] = [rows[i][header.index(name)] for i in idx]
    assert checks.check_csv(csv, SHORT_STEPS, reference) == []

    h = header.index("H")

    def nudge(rows):
        rows[idx[len(idx) // 2]][h] *= 1.0 + 1e-7
        return rows
    bad = _rewrite(csv, tmp_path / "nudge.csv", nudge)
    problems = checks.check_csv(bad, SHORT_STEPS, reference)
    assert len(problems) == 1 and problems[0].startswith("H at row")


def test_reference_tolerance_follows_each_h_sample():
    # H decays from 8 to 0.05: 1e-8 relative on the small sample must fail
    # although it is below 1e-9 of the column's largest value.
    col = {name: i for i, name in enumerate(checks.CSV_COLUMNS)}
    rows = [[0.0] * len(col) for _ in range(2)]
    rows[0][col["H"]], rows[1][col["H"]] = 8.0, 0.05 * (1.0 + 1e-8)
    reference = {"rows": [0, 1], "H": [8.0, 0.05], "y_1": [0.0, 0.0],
                 "y_2": [0.0, 0.0]}
    problems = checks._compare_reference(rows, col, reference)
    assert len(problems) == 1 and problems[0].startswith("H at row 1")


def test_self_times_and_nested_groups():
    # cli.main [0, 10] > a [1, 6] > a [2, 3];  cli.main > b [7, 9]
    spans = {"names": ["cli.main", "node.impedance_node",
                       "node.scattering_node"],
             "span_name": [0, 1, 2, 2], "start": [0.0, 1.0, 2.0, 7.0],
             "end": [10.0, 6.0, 3.0, 9.0], "parent": [-1, 0, 1, 0],
             "sizes": {}}
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]
    phases = {"import_s": 0.5, "install_s": 0.25, "post_s": 0.5,
              "wrapper_s": 0.125}
    assert tracing.wall_gap(spans, phases, 12.0, 0.5) == 0.25
    assert tracing.overhead(phases) == 0.875
    layer = tracing.layer_metrics(spans)
    assert layer["node.build.s"] == 7.0      # nested span counted once
    assert layer["node.build.calls"] == 3

    spans["parent"][3] = -1                  # a second root
    assert tracing.wall_gap(spans, phases, 12.0, 0.5) == float("inf")


def test_tracing_skips_functions_the_package_lacks(repo_root):
    code = ("import tracing; "
            "tracing.TRACED['gone.f'] = ('passivebc.triplet', 'gone'); "
            "tracing.TRACED['gone.m'] = "
            "('passivebc.node', 'BoundaryNode.gone'); "
            "rec = tracing.Recorder(); tracing.install(rec); "
            "print('gone.f' in rec.names, 'gone.m' in rec.names)")
    env = run.child_env(repo_root)
    env["PYTHONPATH"] += os.pathsep + str(run.HERE)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "False"]


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly(repo_root, monkeypatch, capsys):
    monkeypatch.chdir(repo_root)
    code = run.main(["--workload", "long-run", "--seconds", "0",
                     "--trace", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["sim.step.calls"] == m["node.scattering_slack.calls"] == 20000
    assert m["node.dual_gram.calls"] == 20001
    assert set(m) == set(tracing.PER_LAYER)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "long-run", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_runner(repo_root):
    spec = json.loads((repo_root / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
