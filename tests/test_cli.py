import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from passivebc import cli
from passivebc.errors import ScenarioError
from passivebc.scenario import build_node, build_system, load_scenario

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
        assert "NotAContraction" in capsys.readouterr().err

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

    def test_corrupted_trace_fails_named(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, base_scenario())
        code = cli.main(["verify", "--scenario", scn, "--suite", "green",
                         "--corrupt-gamma1"])
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
        # applying the beta = 2 transform twice misses the original maps
        # by 5e-1 on this scenario; the inverse recovers them
        scn = write_scenario(tmp_path, DAMPED_SINE)
        assert cli.main(["cayley", "--scenario", scn, "--beta", "2"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("round-trip residual: ")
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
