"""Streamed runs: ``simulate_blocks`` and the CLI's block-by-block CSV.

``passivebc simulate`` writes each block's rows as soon as the block is
stepped.  A block holds k steps, as many as fit ``sim.BLOCK_BYTES`` of
states (fewer in the last), and the rows they end on, and the first block
row 0 as well.  The file must equal, byte for byte, the table of the
collected ``simulate`` trajectory on every step count around the block
size (a final block shorter than k, exactly one block, one step past it,
a final one-step block), and a run must hold one block of states, not the
whole trajectory.  Every ledger form reads a row alone, so the ledger
also equals the one evaluated on the row partition used before streaming,
and the CSVs of ``simulate`` and ``jet-compare`` keep their bytes
whatever the budget.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from passivebc import cli, sim
from passivebc.errors import NonPositiveParameter, TimeGridTooLarge
from passivebc.jet import push_state
from passivebc.node import impedance_node
from passivebc.scenario import (
    build_initial_state,
    build_node,
    build_signal,
    build_system,
    load_scenario,
)
from passivebc.sim import (
    InputSignal,
    StepSolver,
    _block_steps,
    consistent_initialization,
    simulate,
    simulate_blocks,
)
from passivebc.wave1d import initial_state

from conftest import unstreamed_ledger, wave_system
from test_core_first import same_bytes

DT = 1e-3
# step counts around a block of k steps, as (blocks, extra): blocks * k +
# extra, k the steps of a block at the run's ext_dim
BOUNDARY_STEPS = ((0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1))


def ext_dim(N, strain):
    """The extended dimension of a wave run: 2N + 4, or 3N + 4 for the
    strain-momentum formulation."""
    return (3 if strain else 2) * N + 4


def random_scenario(n_steps, flavor, strain, seed, N=8):
    """A scenario document with random coefficients and contraction."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((2, 2))
    return {
        "schema_version": 1,
        "formulation": "strain-momentum" if strain else "position-momentum",
        "N": N, "length": 1.0,
        "coefficients": {"rho": rng.uniform(0.5, 2.0, N + 1).tolist(),
                         "T": rng.uniform(0.5, 2.0, N).tolist(),
                         "a": rng.uniform(0.5, 2.0, N + 1).tolist(),
                         "b": rng.uniform(0.0, 1.0, N + 1).tolist()},
        "P": (raw * (0.6 / np.linalg.norm(raw, 2))).tolist(),
        "flavor": flavor, "beta": 1.0,
        "input": {"kind": "sine", "amplitude": float(rng.uniform(0.1, 1.0)),
                  "frequency": float(rng.uniform(0.5, 5.0)),
                  "channel_weights": [1.0, float(rng.uniform(-1.0, 1.0))]},
        "initial": {"kind": "gauss", "center": 0.5, "width": 0.1},
        "t_final": n_steps * DT, "dt": DT, "seed": 1,
    }


def scenario_run(path):
    """Node, initial core state and signal of a scenario, as the CLI builds
    them."""
    sc = load_scenario(path)
    sys_ = build_system(sc)
    z0 = build_initial_state(sc, sys_)
    if sc.formulation == "strain-momentum":
        z0 = push_state(sys_.A_map, z0)
    return sc, build_node(sc, sys_), z0, build_signal(sc)


def boundary_examples(test):
    for i, (blocks, extra) in enumerate(BOUNDARY_STEPS):
        strain = i % 2 == 1
        n_steps = blocks * _block_steps(ext_dim(128, strain)) + extra
        for flavor in ("impedance", "scattering"):
            test = example(n_steps=n_steps, flavor=flavor, strain=strain,
                           seed=n_steps, N=128)(test)
    for N in (1, 2, 3):   # the lift's X_h is as wide as 4b >= n here
        test = example(n_steps=2 * _block_steps(ext_dim(N, False)) + 1,
                       flavor="scattering", strain=False, seed=N,
                       N=N)(test)
    return test


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_steps=st.integers(1, 700),
       flavor=st.sampled_from(["impedance", "scattering"]),
       strain=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       N=st.sampled_from([8, 32, 128]))
@boundary_examples
def test_streamed_csv_equals_collected_table(tmp_path, n_steps, flavor,
                                             strain, seed, N):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(random_scenario(n_steps, flavor, strain,
                                               seed, N)))
    streamed, collected = tmp_path / "streamed.csv", tmp_path / "whole.csv"
    assert cli.main(["simulate", "--scenario", str(path),
                     "--out", str(streamed)]) == 0

    sc, nd, z0, signal = scenario_run(path)
    traj = simulate(nd, z0, signal, sc.t_final, sc.dt)
    cli._write_csv_atomic(str(collected), cli.CSV_COLUMNS,
                          cli._trajectory_table(traj))
    assert streamed.read_bytes() == collected.read_bytes()
    for name, want in unstreamed_ledger(nd, traj.times, traj.states_ext,
                                        traj.inputs).items():
        got = traj.outputs if name == "outputs" else getattr(traj.ledger,
                                                              name)
        assert same_bytes(got, want), name

    # the blocks partition the steps k at a time, each with the rows its
    # steps end on (and row 0 in the first)
    k = _block_steps(nd.op.ext_dim)
    starts, start = [], 0
    for block in simulate_blocks(nd, z0, signal, sc.t_final, sc.dt):
        rows = slice(start + (start > 0), start + block.n_steps + 1)
        starts.append(start)
        assert block.n_steps == min(k, n_steps - start)
        assert same_bytes(block.states_ext, traj.states_ext[rows])
        start += block.n_steps
    assert starts == list(range(0, n_steps, k))
    assert start == n_steps


@pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 513])
def test_block_holds_its_steps_and_the_rows_they_end_on(n_steps,
                                                        monkeypatch):
    # block b: steps [256 b, min(256 b + 256, n)) and the rows they end
    # on, row 0 in the first, for a budget of 256 states at this node's
    # ext_dim; rows against one unblocked advance
    sys = wave_system(4, b=0.2)
    nd = impedance_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
    monkeypatch.setattr(sim, "BLOCK_BYTES", 8 * 256 * nd.op.ext_dim)
    assert _block_steps(nd.op.ext_dim) == 256
    signal = InputSignal("sine", weights=np.array([1.0, -0.5]),
                         amplitude=0.3, frequency=2.0)
    z0 = initial_state(sys, "gauss")
    times = DT * np.arange(n_steps + 1)
    inputs = signal(times[:-1] + 0.5 * DT)
    states = np.empty((n_steps + 1, nd.op.ext_dim))
    states[0] = consistent_initialization(nd, z0, signal(0.0))
    StepSolver(nd, DT).advance(states, inputs)
    hp, hk = nd.energy_split(states)
    h = hp + hk
    blocks = simulate_blocks(nd, z0, signal, n_steps * DT, DT)
    for b, block in enumerate(blocks):
        first = 256 * b
        steps = slice(first, min(first + 256, n_steps))
        rows = slice(first + (b > 0), steps.stop + 1)
        assert same_bytes(block.inputs, inputs[steps])
        assert same_bytes(block.times, times[rows])
        assert same_bytes(block.states_ext, states[rows])
        assert same_bytes(block.ledger.H, h[rows])
    assert b == (n_steps - 1) // 256


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_steps=st.integers(1, 300),
       flavor=st.sampled_from(["impedance", "scattering"]),
       strain=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       N=st.sampled_from([1, 8, 32, 128]))
@example(n_steps=200, flavor="scattering", strain=False, seed=1, N=128)
@example(n_steps=200, flavor="impedance", strain=True, seed=2, N=128)
def test_csv_bytes_do_not_depend_on_the_budget(tmp_path, monkeypatch,
                                               n_steps, flavor, strain, seed,
                                               N):
    # blocks of one step, of 63 steps and of the whole run write the same
    # bytes: every output and ledger value, and jet-compare's deviations,
    # are formed row by row; jet-compare cuts both runs at the blocks of
    # its strain-momentum run
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(random_scenario(n_steps, flavor, strain,
                                               seed, N)))
    for command, ext in (("simulate", ext_dim(N, strain)),
                         ("jet-compare", ext_dim(N, True))):
        files = []
        for budget in (1, 8 * 63 * ext, 8 * (n_steps + 1) * ext):
            monkeypatch.setattr(sim, "BLOCK_BYTES", budget)
            out = tmp_path / f"{command}-{budget}.csv"
            assert cli.main([command, "--scenario", str(path),
                             "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2], command


def test_run_holds_one_block_of_states(tmp_path, capsys):
    # a stored trajectory grows by ext_dim doubles per step (1.6 kB at
    # N=64); the run may grow only by its O(n m) times and midpoint inputs
    peaks = {}
    for n_steps in (2000, 8000):
        path = tmp_path / f"run{n_steps}.json"
        path.write_text(json.dumps(random_scenario(
            n_steps, "scattering", False, seed=5, N=64)))
        tracemalloc.start()
        try:
            assert cli.run_scenario(str(path), str(tmp_path / "run.csv")) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _, nd, _, _ = scenario_run(path)
    per_step = (peaks[8000] - peaks[2000]) / 6000
    assert per_step < 8 * 8 < 8 * nd.op.ext_dim, (peaks, per_step)
    assert "wrote 8000 steps" in capsys.readouterr().out


@pytest.mark.parametrize("steps", [0, -3, np.nan, 2.5, "3", True])
def test_block_of_no_step_is_refused(steps):
    sys = wave_system(4)
    nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
    with pytest.raises(NonPositiveParameter, match="at least one step"):
        simulate_blocks(nd, initial_state(sys, "zero"), InputSignal.zero(2),
                        0.01, DT, block_steps=steps)


def test_unallocatable_grid_names_what_it_requested():
    sys = wave_system(4)
    nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
    args = (nd, initial_state(sys, "zero"), InputSignal.zero(2), 1e300, 1.0)
    prefix = r"cannot allocate 1e\+300 steps of 12-dimensional states "
    with pytest.raises(TimeGridTooLarge,
                       match=prefix + r"\(9\.600e\+301 bytes requested for "
                             r"the states\)"):
        simulate(*args)
    with pytest.raises(TimeGridTooLarge,
                       match=prefix + r"\(3\.200e\+301 bytes requested for "
                             r"the time grid, its midpoint times and "
                             r"inputs\)"):
        simulate_blocks(*args)
