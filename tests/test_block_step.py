"""The block stepper, held to the per-step solve it replaces.

``simulate`` samples every midpoint input in one array call and advances
the states with ``StepSolver.advance`` (LAPACK ``getrs`` on the stored
factor, in place).  The oracle below is the former step loop: one scalar
signal call and one ``lu_solve(lu_factor(ahead), behind @ z + [0; 2u])``
per step, with ``ahead``/``behind`` written from the dense ``iota``.  The
trajectory, outputs and ledger must equal it byte for byte.
"""

import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from passivebc.hilbert import contraction_norm
from passivebc.jet import push_state
from passivebc.node import EnergyLedger, impedance_node, scattering_node
from passivebc.sim import (
    InputSignal,
    StepSolver,
    Trajectory,
    _block_steps,
    consistent_initialization,
    simulate,
)
from passivebc.wave1d import initial_state

from conftest import (
    ROOT,
    random_wave_system,
    unstreamed_ledger,
    wave_system,
)
from test_core_first import same_bytes

import dense_gram_oracle as oracle


def scalar_sample(signal, t):
    """The former ``InputSignal.__call__`` on one time."""
    if signal.kind == "zero":
        return np.zeros_like(signal.weights)
    if signal.kind == "sine":
        return (signal.amplitude * np.sin(
            2.0 * np.pi * signal.frequency * t)) * signal.weights
    arg = (t - signal.center) / signal.width
    return (signal.amplitude * np.exp(-arg * arg)) * signal.weights


def step_oracle(nd, dt):
    """The former step: dense iota formulas
    (``dense_gram_oracle.step_matrices``), one ``lu_solve`` per call."""
    ncore = nd.op.core.dim
    behind, ahead = oracle.step_matrices(nd.L_eff.toarray(), nd.G_map, dt)
    lu = scipy.linalg.lu_factor(ahead)

    def step(z, u):
        rhs = behind @ z
        rhs[ncore:] += 2.0 * u
        return scipy.linalg.lu_solve(lu, rhs, check_finite=False)
    return step


def simulate_oracle(nd, z_core0, signal, n_steps, dt):
    """The former ``simulate``: a per-step loop of scalar samples and
    ``lu_solve``, then the same chunked outputs and ledger."""
    m = nd.G_map.shape[0]
    step = step_oracle(nd, dt)
    times = dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, nd.op.ext_dim))
    inputs = np.empty((n_steps, m))
    states[0] = consistent_initialization(nd, z_core0,
                                          scalar_sample(signal, 0.0))
    for n in range(n_steps):
        u_mid = scalar_sample(signal, times[n] + 0.5 * dt)
        inputs[n] = u_mid
        states[n + 1] = step(states[n], u_mid)
    ledger = unstreamed_ledger(nd, times, states, inputs)
    outputs = ledger.pop("outputs")
    return Trajectory(times=times, states_ext=states, inputs=inputs,
                      outputs=outputs, ledger=EnergyLedger(**ledger))


def random_signal(kind, rng):
    if kind == "zero":
        return InputSignal.zero(2)
    weights = rng.uniform(-1.0, 1.0, 2)
    amplitude = rng.uniform(0.0, 1.0)
    if kind == "sine":
        return InputSignal("sine", weights=weights, amplitude=amplitude,
                           frequency=rng.uniform(0.1, 5.0))
    return InputSignal("gauss_pulse", weights=weights, amplitude=amplitude,
                       center=rng.uniform(0.0, 0.1),
                       width=rng.uniform(0.005, 0.1))


CASES = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
             flavor=st.sampled_from(["impedance", "scattering"]),
             strain=st.booleans(),
             kind=st.sampled_from(["zero", "sine", "gauss_pulse"]),
             dt=st.floats(1e-4, 1e-1))


def node_and_state(n, seed, flavor, strain):
    rng = np.random.default_rng(seed)
    sys = random_wave_system(n, rng, b_max=0.6)
    raw = rng.standard_normal((2, 2))
    p = raw * (rng.uniform(0.1, 0.9) / contraction_norm(raw, sys.op_A.bspace))
    op, z0 = sys.op_A, initial_state(sys, "gauss",
                                     center=rng.uniform(0.2, 0.8),
                                     width=rng.uniform(0.05, 0.3))
    if strain:
        op, z0 = sys.op_strain, push_state(sys.A_map, z0)
    builder = impedance_node if flavor == "impedance" else scattering_node
    return builder(op, p, sys.M_map, sys.D_map), z0, rng


@settings(max_examples=40, deadline=None)
@given(n_steps=st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0), (1, 1)]),
       **CASES)
def test_simulate_equals_per_step_oracle(n, seed, flavor, strain, kind, dt,
                                         n_steps):
    # n_steps as (blocks, extra): blocks * k + extra for k the steps of a
    # run's block at the node's ext_dim
    nd, z0, rng = node_and_state(n, seed, flavor, strain)
    blocks, extra = n_steps
    n_steps = blocks * _block_steps(nd.op.ext_dim) + extra
    signal = random_signal(kind, rng)
    got = simulate(nd, z0, signal, n_steps * dt, dt)
    want = simulate_oracle(nd, z0, signal, n_steps, dt)
    for name in ("times", "states_ext", "inputs", "outputs"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name
    for name in ("H", "H_p", "H_k", "supplied", "dissipated", "residual",
                 "slack"):
        assert same_bytes(getattr(got.ledger, name),
                          getattr(want.ledger, name)), name


@settings(max_examples=40, deadline=None)
@given(sign=st.sampled_from([1.0, -1.0]), **CASES)
def test_step_equals_per_step_oracle(n, seed, flavor, strain, kind, dt,
                                     sign):
    nd, _, rng = node_and_state(n, seed, flavor, strain)
    z = rng.standard_normal(nd.op.ext_dim)
    u = scalar_sample(random_signal(kind, rng), rng.uniform(0.0, 1.0))
    got = StepSolver(nd, sign * dt).step(z, u)
    assert same_bytes(got, step_oracle(nd, sign * dt)(z, u))


def test_one_factor_and_no_lu_solve_per_run(monkeypatch):
    sys = wave_system(8, b=0.2)
    nd = impedance_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
    calls = {"lu_factor": 0, "lu_solve": 0}

    def counted(name):
        original = getattr(scipy.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(scipy.linalg, name, counted(name))
    sig = InputSignal("sine", weights=np.array([1.0, -0.3]), amplitude=0.2)
    simulate(nd, initial_state(sys, "gauss"), sig, 0.3, 1e-3)
    assert calls == {"lu_factor": 1, "lu_solve": 0}


SIGNALS = dict(
    kind=st.sampled_from(["zero", "sine", "gauss_pulse"]),
    weights=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    amplitude=st.floats(-5.0, 5.0),
    frequency=st.floats(1e-3, 1e3),
    center=st.floats(-1e4, 1e4),
    width=st.floats(1e-3, 1e4),
    times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=50))


@settings(max_examples=200, deadline=None)
@given(**SIGNALS)
def test_array_sampling_equals_scalar_calls(kind, weights, amplitude,
                                            frequency, center, width, times):
    signal = InputSignal(kind, weights=weights, amplitude=amplitude,
                         frequency=frequency, center=center, width=width)
    m = len(weights)
    t = np.array(times)
    got = signal(t)
    assert got.shape == (len(times), m)
    for i, ti in enumerate(times):
        one = signal(ti)
        assert one.shape == (m,)
        assert same_bytes(got[i], one)
        assert same_bytes(one, scalar_sample(signal, ti))
    if kind == "zero":
        assert same_bytes(got, np.zeros((len(times), m)))


@pytest.mark.parametrize("kind", ["zero", "sine", "gauss_pulse"])
@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
def test_sample_shape_is_time_shape_plus_channels(kind, shape):
    signal = InputSignal(kind, weights=[1.0, -2.0, 0.5], amplitude=0.7,
                         width=0.2)
    got = signal(np.full(shape, 0.25))
    assert got.shape == shape + (3,)
    assert got.dtype == np.float64
    if kind == "zero":
        assert not got.any()


THREADED_RUNS = """
import sys, threading
import numpy as np
from passivebc.scenario import (build_initial_state, build_node,
                                build_system, load_scenario)
from passivebc.sim import StepSolver, consistent_initialization

sc = load_scenario(sys.argv[1])
system = build_system(sc)
node = build_node(sc, system)
solver = StepSolver(node, sc.dt)
z0 = consistent_initialization(node, build_initial_state(sc, system),
                               np.zeros(2))
rng = np.random.default_rng(0)
inputs = [rng.standard_normal((400, 2)) for _ in range(4)]

def run(u):
    states = np.empty((len(u) + 1, len(z0)))
    states[0] = z0
    solver.advance(states, u)
    return states.tobytes()

want = [run(u) for u in inputs]
start = threading.Barrier(4)
mismatches = 0
for _ in range(10):
    got = [None] * 4

    def work(i):
        start.wait()
        got[i] = run(inputs[i])
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    mismatches += sum(g != w for g, w in zip(got, want))
print(mismatches)
"""


def test_one_solver_serves_four_threads():
    # four threads advance 400 steps each on one shared solver, 10 times
    # over, and must reproduce the sequential bytes; a child interpreter
    # runs them, so a corrupted heap fails this test, not the session
    from test_cli import src_env
    proc = subprocess.run(
        [sys.executable, "-c", THREADED_RUNS,
         str(ROOT / "scenarios" / "gauss_scattering.json")],
        env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
