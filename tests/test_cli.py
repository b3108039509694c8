import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from passivebc import cli, sim, wave1d
from passivebc.errors import ScenarioError, ShapeMismatch
from passivebc.jet import push_state
from passivebc.node import EnergyLedger
from passivebc.scenario import (
    build_initial_state,
    build_node,
    build_signal,
    build_system,
    load_scenario,
)
from passivebc.sim import Trajectory, simulate_blocks

from conftest import double_gamma1

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def base_scenario(**overrides):
    doc = {
        "schema_version": 1,
        "formulation": "position-momentum",
        "N": 8,
        "length": 1.0,
        "coefficients": {"rho": 1.0, "T": 1.0, "a": 1.0, "b": 0.0},
        "P": 1.0,
        "flavor": "impedance",
        "beta": 1.0,
        "input": {"kind": "zero"},
        "initial": {"kind": "standing_wave", "k": 1},
        "t_final": 0.05,
        "dt": 0.005,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    return header, data


class TestScenarioLoading:
    def test_bundled_scenarios_load(self):
        for name in ("standing_wave.json", "damped_sine.json",
                     "gauss_scattering.json"):
            sc = load_scenario(SCENARIOS / name)
            build_node(sc, build_system(sc))

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(typo=1))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(schema_version=2))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        doc = base_scenario()
        del doc["coefficients"]
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    def test_coefficient_arrays_accepted(self, tmp_path):
        doc = base_scenario()
        doc["coefficients"] = {"rho": [1.0] * 9, "T": [2.0] * 8,
                               "a": [1.0] * 9, "b": [0.0] * 9}
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.T[0] == 2.0

    def test_matrix_parameter_accepted(self, tmp_path):
        doc = base_scenario(P=[[0.1, 0.2], [0.0, 0.3]])
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.P.shape == (2, 2)

    def test_bad_input_kind_rejected(self, tmp_path):
        doc = base_scenario(input={"kind": "square"})
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("field, table, doc, bad, message", [
        ("input", (sim, "_INPUT_PARAMETERS"),
         {"kind": "ramp", "amplitude": 0.5, "width": 2.0,
          "channel_weights": [1.0, 0.0]},
         {"width": 0.0}, "input width must be positive"),
        ("initial", (wave1d, "_INITIAL_PARAMETERS"),
         {"kind": "bump", "center": 0.5, "k": 2},
         {"k": 2.0}, "initial k must be a positive integer")],
        ids=["input", "initial"])
    def test_kinds_and_their_keys_are_the_librarys(
            self, tmp_path, monkeypatch, field, table, doc, bad, message):
        # a kind added to the library's table is taken with exactly its
        # parameters (and an input's channel_weights), each by its rule
        params = tuple(k for k in doc if k not in ("kind", "channel_weights"))
        monkeypatch.setitem(getattr(*table), doc["kind"], params)

        def load(obj):
            return load_scenario(write_scenario(
                tmp_path, base_scenario(**{field: obj})))
        assert getattr(load(doc), field) == doc
        for key in ("frequency", "typo"):
            with pytest.raises(ScenarioError, match=re.escape(
                    f"unknown keys in {field}: ['{key}']")):
                load(dict(doc, **{key: 1.0}))
        with pytest.raises(ScenarioError, match=re.escape(
                f"missing keys in {field}: ['{params[-1]}']")):
            load({k: v for k, v in doc.items() if k != params[-1]})
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            load(dict(doc, **bad))


class TestExitCodes:
    def test_simulate_ok(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        out = str(tmp_path / "run.csv")
        assert cli.main(["simulate", "--scenario", scn, "--out", out]) == 0
        header, data = read_csv(out)
        assert header == list(cli.CSV_COLUMNS)
        assert data.shape == (11, 10)

    def test_schema_error_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario(mystery=True))
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_numeric_gate_exits_3(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario(P=1.5))
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "NotAContraction: dual-space operator norm 1.5 exceeds 1\n")

    def test_invalid_coefficients_exit_3(self, tmp_path, capsys):
        doc = base_scenario()
        doc["coefficients"]["a"] = [0.0] + [1.0] * 8
        scn = write_scenario(tmp_path, doc)
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(tmp_path / "x.csv")]) == 3
        assert "InvalidCoefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["green", "extension", "cayley",
                                       "jet", "all"])
    def test_verify_pass_exits_0(self, tmp_path, suite):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["verify", "--scenario", scn,
                         "--suite", suite]) == 0

    def test_verify_names_the_kind_of_each_number(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["verify", "--scenario", scn]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        kinds = {}
        for line in lines:
            found = re.fullmatch(r"PASS (\w+): (max residual|relative residual"
                                 r"|angle bound) "
                                 r"\S+e[-+]\d+ \(tol \S+e[-+]\d+\)|"
                                 r"PASS (\w+): count (\d+) \(tol (\d+)\)",
                                 line)
            assert found, line
            kinds[found[1] or found[3]] = found[2] or "count"
        assert kinds.pop("extension_neumann_domain") == "angle bound"
        assert kinds.pop("extension_dirichlet_domain") == "angle bound"
        assert kinds.pop("extension_expansive_not_dissipative") == "count"
        assert kinds.pop("cayley_involution") == "relative residual"
        assert kinds.pop("cayley_matches_impedance") == "relative residual"
        assert set(kinds.values()) == {"max residual"} and len(kinds) == 8
        assert summary == "suite 'all': all 13 checks passed"

    def test_corrupted_trace_fails_named(self, tmp_path, capsys,
                                         monkeypatch):
        double_gamma1(monkeypatch)
        scn = write_scenario(tmp_path, base_scenario())
        code = cli.main(["verify", "--scenario", scn, "--suite", "green"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "verification failed: green_identity" in captured

    def test_no_output_path_is_schema_error(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["simulate", "--scenario", scn]) == 2


class TestCsvContract:
    def test_deterministic_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario(
            input={"kind": "sine", "amplitude": 0.2, "frequency": 1.0,
                   "channel_weights": [1.0, 0.0]}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_match_per_float_formatting(self, tmp_path):
        rows = [[-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3],
                [1.7976931348623157e300, -9.99e299, 1.0 / 3.0, -2.5],
                [float("inf"), float("-inf"), 1e-5, 123456789.0]]
        out = tmp_path / "rows.csv"
        cli._write_csv_atomic(str(out), ("a", "b", "c", "d"),
                              np.array(rows))
        expected = "a,b,c,d\n" + "".join(
            ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert out.read_bytes() == expected.encode()

    def test_blocks_have_the_bytes_of_per_row_formatting(self, tmp_path):
        # each block is formatted by one % with the row format repeated;
        # blocks of 256 rows, none, 43 and one 1-D row, holding -0.0,
        # subnormals and values that need all 17 digits
        rng = np.random.default_rng(4)
        values = rng.standard_normal((300, 4)) * 10.0 ** rng.integers(
            -320, 300, (300, 4))
        values[::7, 0] = -0.0
        values[::11, 1] = 5e-324
        values[::13, 2] = 0.1 + 0.2
        blocks = [values[:256], values[256:256], values[256:299], values[299]]
        out = tmp_path / "blocks.csv"
        assert cli._write_csv_atomic(str(out), ("a", "b", "c", "d"),
                                     blocks) == 300
        row = ",".join(["%.17g"] * 4) + "\n"
        expected = "a,b,c,d\n" + "".join(row % tuple(values)
                                          for values in values.tolist())
        assert out.read_bytes() == expected.encode()

    def test_seventeen_digit_round_trip(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario())
        out = tmp_path / "run.csv"
        cli.main(["simulate", "--scenario", scn, "--out", str(out)])
        _, data = read_csv(out)
        # recompute the exact H values and compare bit for bit
        sc = load_scenario(scn)
        from passivebc.scenario import (build_initial_state,
                                        build_signal)
        from passivebc.sim import simulate
        sys_ = build_system(sc)
        node = build_node(sc, sys_)
        traj = simulate(node, build_initial_state(sc, sys_),
                        build_signal(sc), sc.t_final, sc.dt)
        assert (data[:, 1] == traj.ledger.H).all()

    def test_no_partial_file_on_failure(self, tmp_path):
        scn = write_scenario(tmp_path, base_scenario(P=2.0))
        out = tmp_path / "nope.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 3
        assert not out.exists()

    def test_conserved_standing_wave_column(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert cli.main(["simulate", "--scenario",
                         str(SCENARIOS / "standing_wave.json"),
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        h = data[:, 1]
        assert np.abs(np.diff(h)).max() <= 1e-10   # constant step to step
        assert np.abs(h - h[0]).max() <= 1e-9 * h[0]
        assert np.abs(data[:, 4:6]).max() == 0.0  # u stays zero

    def test_damped_energy_nonincreasing(self, tmp_path):
        doc = base_scenario(
            N=16, t_final=0.5, dt=0.002,
            coefficients={"rho": 1.0, "T": 1.0, "a": 1.0, "b": 0.5},
            initial={"kind": "gauss", "center": 0.5, "width": 0.1})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "damped.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert (np.diff(data[:, 1]) <= 1e-12).all()

    @pytest.mark.parametrize("m", [1, 3])
    def test_port_count_other_than_two_is_refused(self, tmp_path, m):
        # one port used to be broadcast into both columns, a third dropped
        rows, steps = 4, 3
        ledger = EnergyLedger(*[np.zeros(rows)] * 3, *[np.zeros(steps)] * 4)
        traj = Trajectory(np.arange(rows, dtype=float), np.zeros((rows, 5)),
                          np.ones((steps, m)), np.ones((steps, m)), ledger)
        with pytest.raises(ShapeMismatch, match=f"m = {m}"):
            cli._trajectory_table(traj)
        out = tmp_path / "ports.csv"
        with pytest.raises(ShapeMismatch):
            cli._write_csv_atomic(str(out), cli.CSV_COLUMNS,
                                  map(cli._trajectory_table, [traj]))
        assert not list(tmp_path.iterdir())


class TestJetCompare:
    def test_zero_scenario_identically_zero(self, tmp_path):
        doc = base_scenario(initial={"kind": "zero"})
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "jet.csv"
        assert cli.main(["jet-compare", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert not data[:, 1:].any()

    def test_standing_wave_deviation_small(self, tmp_path):
        doc = base_scenario(N=16, t_final=0.2, dt=0.002)
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "jet.csv"
        assert cli.main(["jet-compare", "--scenario", scn,
                         "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "state_deviation", "ran_a_defect"]
        assert data[:, 1].max() <= 1e-9
        assert data[:, 2].max() <= 1e-9


class TestCayleyCommand:
    def test_report_runs(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario())
        assert cli.main(["cayley", "--scenario", scn]) == 0
        out = capsys.readouterr().out
        assert "impedance -> scattering" in out
        assert "round-trip residual" in out

    def test_round_trip_at_beta_2_is_roundoff(self, tmp_path, capsys):
        # the transform is an involution at every beta: applied twice at
        # beta = 2 it gives back the maps
        scn = write_scenario(tmp_path, DAMPED_SINE)
        assert cli.main(["cayley", "--scenario", scn, "--beta", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("round-trip residual: ")
        assert float(line.split(": ")[1]) <= 1e-14

    @pytest.mark.parametrize("formulation, width", [
        ("position-momentum", 68), ("strain-momentum", 100)])
    def test_maps_are_those_of_the_formulation(self, tmp_path, capsys,
                                               monkeypatch, formulation,
                                               width):
        # N = 32: the lift's (z1, z2, tau) has 33 + 33 + 2 coordinates,
        # the strain-momentum form's (w, z2, tau) 65 + 33 + 2
        nodes = []
        real = cli.external_cayley
        monkeypatch.setattr(cli, "external_cayley",
                            lambda node, beta: nodes.append(node)
                            or real(node, beta))
        doc = dict(DAMPED_SINE, formulation=formulation)
        scn = write_scenario(tmp_path, doc)
        assert cli.main(["cayley", "--scenario", scn]) == 0
        node, transformed = nodes   # the round trip transforms twice
        assert node.flavor == "impedance" != transformed.flavor
        assert node.G_map.shape == node.K_map.shape == (2, width)
        assert capsys.readouterr().out.startswith(
            "flavor impedance -> scattering at beta=1\n")

    def test_steel_bar_in_strain_momentum(self, tmp_path, capsys):
        # in SI units the lift's X_h (+) X fails the relative positivity
        # gate; the strain-momentum node is the scenario's, and it is built
        doc = dict(DAMPED_SINE, formulation="strain-momentum",
                   coefficients={"T": 2e11, "rho": 7850, "a": 1e3, "b": 10})
        scn = write_scenario(tmp_path, doc)
        assert cli.main(["cayley", "--scenario", scn]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert float(line.split(": ")[1]) <= 1e-14

    def test_strain_momentum_formulation_runs(self, tmp_path):
        doc = base_scenario(formulation="strain-momentum", N=12,
                            t_final=0.1, dt=0.002)
        scn = write_scenario(tmp_path, doc)
        out = tmp_path / "strain.csv"
        assert cli.main(["simulate", "--scenario", scn,
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.isfinite(data).all()


def edited(doc, edits):
    """Copy of a scenario document with ``{key path: value}`` applied."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits.items():
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


def refused(*args, **kwargs):
    raise AssertionError("a run was set up or stepped")


def run_cli(tmp_path, capsys, command, doc):
    """Exit code and stderr of one CLI run; an escaping exception fails."""
    scn = write_scenario(tmp_path, doc)
    argv = [command, "--scenario", scn]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "run.csv")]
    code = cli.main(argv)
    return code, capsys.readouterr().err


DAMPED_SINE = json.loads((SCENARIOS / "damped_sine.json").read_text())
NAN, INF = math.nan, math.inf

REJECTED_INPUTS = {
    "t_final_infinite": {("t_final",): INF},
    "rho_nan": {("coefficients", "rho"): NAN},
    "P_nan": {("P",): NAN},
    "P_matrix_infinite": {("P",): [[0.1, INF], [0.0, 0.1]]},
    "T_list_nan": {("coefficients", "T"): [1.0] * 31 + [NAN]},
    "a_list_not_numbers": {("coefficients", "a"): ["1"] * 33},
    "length_overflows_float": {("length",): 10 ** 400},
    "input_amplitude_nan": {("input", "amplitude"): NAN},
    "input_weights_infinite": {("input", "channel_weights"): [INF, 0.0]},
    "beta_infinite": {("beta",): INF},
    "dt_beyond_t_final": {("dt",): 1.0, ("t_final",): 0.3},
    "t_final_not_whole_steps": {("dt",): 0.3, ("t_final",): 1.0},
    "step_count_overflows": {("dt",): 1e-300, ("t_final",): 1e300},
    "initial_gauss_width_zero": {("initial",): {"kind": "gauss",
                                                "center": 0.5,
                                                "width": 0.0}},
    "initial_mode_zero": {("initial",): {"kind": "standing_wave", "k": 0}},
    "input_pulse_width_negative": {("input",): {
        "kind": "gauss_pulse", "amplitude": 1.0, "center": 0.5,
        "width": -1.0, "channel_weights": [1.0, 0.0]}},
    # finite inputs whose arithmetic leaves the float range
    "rho_at_float_max": {("coefficients", "rho"): 1.7976931348623157e308},
    "input_amplitude_overflows_step": {
        ("input", "amplitude"): 1.7976931348623157e308},
    "step_matrix_overflows": {("dt",): 1e150, ("t_final",): 2e150,
                              ("coefficients", "b"): 1e308},
    "damping_overflows_eigensolver": {
        ("length",): 20.0, ("coefficients", "b"): 1.7976931348623157e308},
    # finite states whose energies overflow
    "input_amplitude_overflows_ledger": {("input", "amplitude"): 1e300},
    # a whole-step grid whose step count overflows an array index
    "step_count_unallocatable": {("dt",): 1.0, ("t_final",): 1e300},
    # 2 pi f, or 2 pi f t from step 143 on, leaves the float range
    "input_frequency_overflows": {("input", "frequency"): 1e308},
    "input_phase_overflows_mid_grid": {
        ("input", "frequency"): 2e307, ("t_final",): 2.0, ("dt",): 0.01},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInputRobustness:
    @pytest.mark.parametrize("case", sorted(REJECTED_INPUTS))
    def test_rejected_with_named_error(self, tmp_path, capsys, case):
        doc = edited(DAMPED_SINE, REJECTED_INPUTS[case])
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code in (2, 3), err
        assert "Traceback" not in err and err.strip()
        assert not (tmp_path / "run.csv").exists()

    def test_linalg_failure_exits_3_by_name(self, tmp_path, capsys):
        doc = edited(DAMPED_SINE,
                     REJECTED_INPUTS["damping_overflows_eigensolver"])
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code == 3, err
        assert err.strip().splitlines()[-1].startswith("LinAlgError: ")

    @pytest.mark.parametrize("case, message", [
        ("input_amplitude_overflows_ledger",
         "NonFiniteValue: the energy ledger"),
        ("step_count_unallocatable",
         "TimeGridTooLarge: cannot allocate 1e+300 steps of 68-dimensional")])
    def test_late_failure_exits_3_by_name(self, tmp_path, capsys, case,
                                          message):
        doc = edited(DAMPED_SINE, REJECTED_INPUTS[case])
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code == 3, err
        assert err.strip().splitlines()[-1].startswith(message), err
        assert not (tmp_path / "run.csv").exists()

    def test_wrong_shape_contraction_is_schema_error(self, tmp_path, capsys):
        doc = edited(DAMPED_SINE, {("P",): (0.5 * np.eye(3)).tolist()})
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code == 2, err
        assert "P must be a scalar or a 2x2" in err

    def test_wrong_shape_contraction_past_schema_exits_3(self, tmp_path,
                                                         capsys, monkeypatch):
        # the node's own gate names the shape; it used to end in exit 4
        import passivebc.scenario as scenario
        monkeypatch.setattr(scenario, "_parse_P",
                            lambda raw: np.asarray(raw, dtype=float))
        doc = edited(DAMPED_SINE, {("P",): (0.5 * np.eye(3)).tolist()})
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code == 3, err
        assert err.strip().splitlines()[-1].startswith(
            "ShapeMismatch: P must be 2x2, got (3, 3)"), err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("beta", ["1e308", "1e-320"])
    def test_extreme_cayley_beta_exits_3_by_name(self, tmp_path, capsys,
                                                 beta):
        # 1/sqrt(2 beta) underflows to 0 at 1e308; at 1e-320 the maps of
        # the second transform overflow
        scn = write_scenario(tmp_path, DAMPED_SINE)
        code = cli.main(["cayley", "--scenario", scn, "--beta", beta])
        captured = capsys.readouterr()
        assert code == 3, captured.err
        assert captured.err.startswith("NonFiniteValue: Cayley")
        assert captured.err.count("\n") == 1
        assert "round-trip residual" not in captured.out

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        # NumPy's generators refuse negative seeds
        code, err = run_cli(tmp_path, capsys, command, base_scenario(seed=-1))
        assert code == 2, err
        assert err == "scenario error: seed must be a nonnegative integer\n"

    @pytest.mark.parametrize("path", [("initial", "k"), ("t_final",),
                                      ("seed",)], ids=lambda p: p[-1])
    def test_integer_beyond_digit_limit_exits_2(self, tmp_path, capsys,
                                                path):
        # json's int() refuses literals longer than Python's digit limit
        # (4300 by default) with a bare ValueError
        text = json.dumps(edited(base_scenario(), {path: "HUGE"}))
        scn = tmp_path / "scenario.json"
        scn.write_text(text.replace('"HUGE"', "1" + "0" * 5000))
        out = tmp_path / "run.csv"
        code = cli.main(["simulate", "--scenario", str(scn),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("scenario error: ") and "integer literal" in err
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, content):
        scn = tmp_path / "scenario.json"
        scn.write_bytes(content)
        code = cli.main(["simulate", "--scenario", str(scn),
                         "--out", str(tmp_path / "run.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2],
                             ids=["true", "1.0", "string", "2"])
    def test_schema_version_other_than_integer_1_exits_2(self, tmp_path,
                                                         capsys, version):
        code, err = run_cli(tmp_path, capsys, "simulate",
                            base_scenario(schema_version=version))
        assert code == 2, err
        assert err == ("scenario error: schema_version must be the "
                       "integer 1\n")

    @pytest.mark.parametrize("k", [10 ** 300, 10 ** 400],
                             ids=["1e300", "1e400"])
    @pytest.mark.parametrize("command", ["simulate", "jet-compare"])
    def test_huge_standing_wave_mode_exits_3_in_one_line(
            self, tmp_path, capsys, command, k):
        doc = base_scenario(initial={"kind": "standing_wave", "k": k})
        out = tmp_path / "run.csv"
        code = cli.main([command, "--scenario", write_scenario(tmp_path, doc),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("NonFiniteValue: standing-wave mode k"), err
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("edits, label", [
        ({("coefficients", "rho"): 1e-300}, "X_h(+)X_M"),
        ({("length",): 1e300}, "Y~")])
    def test_relative_gram_gate_names_both_eigenvalues(self, tmp_path, capsys,
                                                       edits, label):
        # the smallest eigenvalue is positive; the message must show that
        # it is at most 1e-12 times the largest
        code, err = run_cli(tmp_path, capsys, "simulate",
                            edited(DAMPED_SINE, edits))
        assert code == 3, err
        found = re.fullmatch(
            re.escape(f"NonPositiveGram: gram of space {label!r} is not "
                      "positive definite (smallest eigenvalue ")
            + r"(\S+) is at most 1e-12 times the largest, (\S+)\)\n", err)
        assert found, err
        smallest, largest = map(float, found.groups())
        assert 0.0 < smallest <= 1e-12 * largest

    def test_ledger_overflow_prints_one_line(self, tmp_path):
        # NumPy's floating-point warnings would precede the named error
        doc = edited(DAMPED_SINE,
                     REJECTED_INPUTS["input_amplitude_overflows_ledger"])
        proc = subprocess.run(
            [sys.executable, "-m", "passivebc.cli", "simulate",
             "--scenario", write_scenario(tmp_path, doc),
             "--out", str(tmp_path / "run.csv")],
            env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("NonFiniteValue: the energy ledger")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_ledger_overflow_stops_the_run_at_its_block(
            self, tmp_path, capsys, monkeypatch):
        # 1000 steps make five blocks of k = 240 at ext_dim 68; the ledger
        # overflows in the first, so no later block is stepped
        import passivebc.sim as sim
        advance, calls = sim.StepSolver.advance, []

        def counted(solver, states, inputs):
            calls.append(states.shape)
            advance(solver, states, inputs)
        monkeypatch.setattr(sim.StepSolver, "advance", counted)
        doc = edited(DAMPED_SINE,
                     REJECTED_INPUTS["input_amplitude_overflows_ledger"])
        code, err = run_cli(tmp_path, capsys, "simulate", doc)
        assert code == 3, err
        assert err.startswith("NonFiniteValue: the energy ledger"), err
        [(rows, ext)] = calls
        assert rows == sim._block_steps(ext) + 1
        assert doc["t_final"] / doc["dt"] > 2 * (rows - 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scenario.json"]

    def test_unallocatable_set_up_exits_3_by_name(self, tmp_path, capsys,
                                                  monkeypatch):
        # a MemoryError that the set-up raises, here in the assembly and
        # without allocating, is printed by name
        import passivebc.wave1d as wave1d

        def unallocatable(coeffs):
            raise MemoryError("Unable to allocate 728. TiB for an array "
                              "with shape (10000001, 10000001) and data "
                              "type float64")
        monkeypatch.setattr(wave1d, "assemble", unallocatable)
        code, err = run_cli(tmp_path, capsys, "simulate", DAMPED_SINE)
        assert code == 3, err
        assert err == ("MemoryError: Unable to allocate 728. TiB for an "
                       "array with shape (10000001, 10000001) and data "
                       "type float64\n")
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command, formulation, what", [
        ("simulate", "position-momentum",
         "the step matrix, 2000004 x 2000004 doubles"),
        ("simulate", "strain-momentum",
         "the step matrix, 3000004 x 3000004 doubles"),
        ("verify", "position-momentum",
         "the extent of the lift's B_ext, 1000001 x 2000003 doubles"),
        ("jet-compare", "position-momentum",
         "the step matrix, 3000004 x 3000004 doubles"),
        ("cayley", "strain-momentum",
         "the strain-momentum set-up, 1000001 x 150 doubles")])
    def test_unmappable_dense_array_is_refused_before_the_set_up(
            self, tmp_path, capsys, monkeypatch, command, formulation, what):
        # the largest dense array of the command is asked for before any
        # O(N) set-up; the mapping fails as an exhausted address space does
        import mmap

        def unmappable(fileno, length):
            raise OSError(12, "Cannot allocate memory")
        monkeypatch.setattr(mmap, "mmap", unmappable)
        monkeypatch.setattr(cli, "build_system", refused)
        doc = edited(DAMPED_SINE, {("N",): 1000000,
                                   ("formulation",): formulation,
                                   ("out",): str(tmp_path / "run.csv")})
        code, err = run_cli(tmp_path, capsys, command, doc)
        assert code == 3, err
        assert err.startswith(f"MemoryError: cannot allocate {what} "), err
        assert err.endswith(", at N = 1000000: [Errno 12] Cannot allocate "
                            "memory\n") and err.count("\n") == 1, err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("formulation",
                             ["position-momentum", "strain-momentum"])
    def test_the_refused_arrays_are_the_runs_own(self, tmp_path, capsys,
                                                 monkeypatch, formulation):
        # the shapes asked for are the step matrix that the set-up at this
        # N forms and the extent of B_ext that the lift's tiles sweep
        import mmap
        asked, real = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda fileno, length:
                            asked.append(length) or real(fileno, length))
        doc = edited(DAMPED_SINE, {("N",): 7,
                                   ("formulation",): formulation,
                                   ("t_final",): 0.01,
                                   ("out",): str(tmp_path / "run.csv")})
        for command in ("simulate", "verify"):
            assert run_cli(tmp_path, capsys, command, doc)[0] == 0
        sc = load_scenario(write_scenario(tmp_path, doc))
        sys_ = build_system(sc)
        ext = build_node(sc, sys_).op.ext_dim
        rows, cols = sys_.dual_pair.B_ext.matrix.shape
        assert asked == [8 * ext * ext, 8 * rows * cols]

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="address-space limit set by setrlimit")
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_a_million_cells_exit_3_at_once_in_4_gib(self, tmp_path,
                                                     command):
        # one process under RLIMIT_AS = 4 GiB: its dense arrays cannot be
        # mapped, so it ends before the sparse set-up, whose transients
        # reach about 660 MB traced at this N
        child = ("import resource, sys, tracemalloc\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
                 "tracemalloc.start()\n"
                 "from passivebc.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(tracemalloc.get_traced_memory()[1])\n"
                 "sys.exit(code)\n")
        doc = edited(DAMPED_SINE, {("N",): 1000000,
                                   ("out",): str(tmp_path / "run.csv")})
        proc = subprocess.run(
            [sys.executable, "-c", child, command, "--scenario",
             write_scenario(tmp_path, doc)],
            env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("MemoryError: cannot allocate the "), \
            proc.stderr
        assert int(proc.stdout) < 150e6
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("case, step", [
        ("input_frequency_overflows", 0),
        ("input_phase_overflows_mid_grid", 143)])
    def test_overflowing_input_signal_exits_3_before_stepping(
            self, tmp_path, capsys, monkeypatch, case, step):
        import passivebc.sim as sim
        monkeypatch.setattr(sim, "StepSolver", refused)
        code, err = run_cli(tmp_path, capsys, "simulate",
                            edited(DAMPED_SINE, REJECTED_INPUTS[case]))
        assert code == 3, err
        assert err.startswith("NonFiniteValue: input signal 'sine' holds "
                              "NaN or infinity at the midpoint t = "), err
        assert err.endswith(f" of step {step}\n") and err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    @pytest.mark.parametrize("command", ["simulate", "jet-compare"])
    def test_unusable_output_path_exits_2_before_set_up(
            self, tmp_path, capsys, monkeypatch, command, where):
        monkeypatch.setattr(cli, "simulate_blocks", refused)
        (tmp_path / "taken").mkdir()
        (tmp_path / "file").write_text("")
        out = tmp_path / {"directory": "taken",
                          "under_a_file": "file/run.csv"}[where]
        scn = write_scenario(tmp_path, DAMPED_SINE)
        code = cli.main([command, "--scenario", scn, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("scenario error: ") and str(out) in err, err
        assert err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "file", "scenario.json", "taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_unexpected_exception_exits_4_in_one_line(self, tmp_path, capsys,
                                                      monkeypatch):
        def broken(path, out=None):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "run_scenario", broken)
        code, err = run_cli(tmp_path, capsys, "simulate", DAMPED_SINE)
        assert code == cli.EXIT_INTERNAL == 4
        assert err == "internal error: RuntimeError: boom\n"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 10 ** 6),
           dt=st.floats(1e-6, 10.0, allow_subnormal=False))
    def test_whole_step_grids_load(self, tmp_path, n, dt):
        doc = base_scenario(t_final=n * dt, dt=dt)
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert round(sc.t_final / sc.dt) == n


EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     1e300, 1.7976931348623157e308,
                     -1.7976931348623157e308, 10 ** 400]))

# Numeric scenario fields and how a value is placed in the document.
FUZZED_FIELDS = {
    "length": lambda v: {("length",): v},
    "rho": lambda v: {("coefficients", "rho"): v},
    "T": lambda v: {("coefficients", "T"): [1.0, v, 1.0, 1.0]},
    "a": lambda v: {("coefficients", "a"): v},
    "b": lambda v: {("coefficients", "b"): [0.1, 0.0, v, 0.0, 0.1]},
    "P": lambda v: {("P",): v},
    "P_entry": lambda v: {("P",): [[0.3, v], [0.0, 0.3]]},
    "beta": lambda v: {("beta",): v},
    "amplitude": lambda v: {("input", "amplitude"): v},
    "center": lambda v: {("input", "center"): v},
    "width": lambda v: {("input", "width"): v},
    "weight": lambda v: {("input", "channel_weights"): [v, 1.0]},
    "initial_center": lambda v: {("initial", "center"): v},
    "initial_width": lambda v: {("initial", "width"): v},
}


def fuzz_base():
    return base_scenario(
        N=4, coefficients={"rho": 1.0, "T": 1.0, "a": 1.0, "b": 0.2},
        input={"kind": "gauss_pulse", "amplitude": 0.5, "center": 0.01,
               "width": 0.02, "channel_weights": [1.0, 0.5]},
        initial={"kind": "gauss", "center": 0.5, "width": 0.2})


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScenarioFuzz:
    """Extreme and non-finite numbers anywhere in a scenario end in a
    documented exit code, never in an escaping exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.dictionaries(st.sampled_from(sorted(FUZZED_FIELDS)),
                                  EXTREME_FLOATS, min_size=1, max_size=3),
           dt=st.one_of(st.just(0.01), EXTREME_FLOATS),
           steps=st.integers(1, 3))
    def test_simulate(self, tmp_path, capsys, fields, dt, steps):
        # One to three steps of a fuzzed dt: a run's time and memory grow
        # with its step count.  test_cayley fuzzes the grid fields freely,
        # through the parser, without stepping.
        edits = {("dt",): dt, ("t_final",): steps * dt}
        for name, value in fields.items():
            edits.update(FUZZED_FIELDS[name](value))
        code, err = run_cli(tmp_path, capsys, "simulate",
                            edited(fuzz_base(), edits))
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.dictionaries(
        st.sampled_from(sorted(FUZZED_FIELDS) + ["t_final", "dt"]),
        EXTREME_FLOATS, min_size=1, max_size=3))
    def test_cayley(self, tmp_path, capsys, fields):
        edits = {}
        for name, value in fields.items():
            edits.update(FUZZED_FIELDS[name](value) if name in FUZZED_FIELDS
                         else {(name,): value})
        code, err = run_cli(tmp_path, capsys, "cayley",
                            edited(fuzz_base(), edits))
        assert code in (0, 2, 3), err
        assert "Traceback" not in err


def src_env():
    """Environment in which a child interpreter imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "passivebc.cli", "--help"],
        env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: passivebc" in proc.stdout


def test_zero_state_strain_momentum_run_builds_no_jet(tmp_path, monkeypatch,
                                                      capsys):
    doc = json.loads((SCENARIOS / "damped_sine.json").read_text())
    assert doc["initial"] == {"kind": "zero"}
    doc.update(formulation="strain-momentum", out=str(tmp_path / "run.csv"))
    path = write_scenario(tmp_path, doc)
    systems = []

    def kept(sc):
        systems.append(build_system(sc))
        return systems[-1]
    monkeypatch.setattr(cli, "build_system", kept)
    assert cli.run_scenario(path) == 0
    sys_, = systems
    assert "jet" not in sys_.__dict__
    # the bytes of the run that pushes its zero state through the jet
    sc = load_scenario(path)
    z0 = push_state(sys_.A_map, build_initial_state(sc, sys_))
    blocks = simulate_blocks(build_node(sc, sys_), z0, build_signal(sc),
                             sc.t_final, sc.dt)
    pushed = tmp_path / "pushed.csv"
    cli._write_csv_atomic(str(pushed), cli.CSV_COLUMNS,
                          map(cli._trajectory_table, blocks))
    assert (tmp_path / "run.csv").read_bytes() == pushed.read_bytes()
