import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from passivebc.errors import (
    IncompatibleInitialData,
    InvalidTimeGrid,
    NonFiniteValue,
    ShapeMismatch,
    SingularBoundaryBlock,
    SingularStepMatrix,
    UnknownChoice,
)
from passivebc.extension import (
    dissipativity_residual,
    generator_from_contraction,
)
from passivebc.hilbert import ContractionParam, contraction_norm
from passivebc.jet import push_state
from passivebc.node import impedance_node, scattering_node
from passivebc.scenario import (
    build_initial_state,
    build_node,
    build_system,
    load_scenario,
)
from passivebc import sim
from passivebc.sim import (
    InputSignal,
    StepSolver,
    _block_steps,
    consistent_initialization,
    simulate,
    simulate_blocks,
    time_steps,
)
from passivebc.wave1d import analytic_standing_wave, initial_state

from conftest import (
    ROOT,
    dense_mass_weight,
    iota,
    random_wave_system,
    wave_system,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def neumann_node(sys):
    return impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)


class TestSignals:
    def test_zero(self):
        sig = InputSignal.zero(2)
        assert not sig(0.3).any()

    def test_sine_starts_at_zero(self):
        sig = InputSignal("sine", weights=np.array([1.0, -1.0]),
                          amplitude=2.0, frequency=0.5)
        assert not sig(0.0).any()
        assert sig(1.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert sig(0.25)[0] == pytest.approx(2.0 * math.sin(math.pi / 4))
        assert sig(0.25)[1] == pytest.approx(-2.0 * math.sin(math.pi / 4))

    def test_gauss_pulse_peak(self):
        sig = InputSignal("gauss_pulse", weights=np.array([1.0, 0.0]),
                          amplitude=0.7, center=0.4, width=0.1)
        assert sig(0.4)[0] == pytest.approx(0.7)
        assert sig(0.4)[1] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownChoice):
            InputSignal("sawtooth", weights=np.ones(2))

    @pytest.mark.parametrize("field", ["weights", "amplitude", "frequency",
                                       "center", "width"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        params = {"weights": np.ones(2), "amplitude": 1.0,
                  "frequency": 1.0, "center": 0.5, "width": 0.1}
        params[field] = np.array([1.0, bad]) if field == "weights" else bad
        with pytest.raises(NonFiniteValue):
            InputSignal("gauss_pulse", **params)


class TestConsistentInitialization:
    def test_recovers_known_boundary_coordinates(self, rng):
        sys = wave_system(6)
        nd = neumann_node(sys)
        z = rng.standard_normal(sys.op_A.ext_dim)
        rebuilt = consistent_initialization(nd, z[:14], nd.G_map @ z)
        assert np.allclose(rebuilt[14:], z[14:], atol=1e-12)

    def test_standing_wave_has_zero_tractions(self):
        sys = wave_system(8)
        nd = neumann_node(sys)
        z0 = initial_state(sys, "standing_wave", k=1)
        full = consistent_initialization(nd, z0, np.zeros(2))
        assert np.allclose(full[18:], 0.0, atol=1e-14)

    def test_velocity_control_incompatible_data(self):
        # P = -I: the constraint reads boundary velocities and cannot be
        # satisfied by choosing tractions
        sys = wave_system(6)
        nd = impedance_node(sys.op_A, -np.eye(2), sys.M_map, sys.D_map)
        z0 = initial_state(sys, "zero")
        with pytest.raises(IncompatibleInitialData):
            consistent_initialization(nd, z0, np.array([1.0, 0.0]))

    def test_velocity_control_compatible_but_singular(self):
        sys = wave_system(6)
        nd = impedance_node(sys.op_A, -np.eye(2), sys.M_map, sys.D_map)
        z0 = initial_state(sys, "zero")
        with pytest.raises(SingularBoundaryBlock):
            consistent_initialization(nd, z0, np.zeros(2))


class TestStepMidpoint:
    def test_small_step_stays_put(self):
        sys = wave_system(8)
        nd = neumann_node(sys)
        z0 = consistent_initialization(
            nd, initial_state(sys, "standing_wave", k=1), np.zeros(2))
        z1 = StepSolver(nd, 1e-12).step(z0, np.zeros(2))
        assert np.linalg.norm(z1 - z0) <= 1e-9 * np.linalg.norm(z0)

    def test_kernel_states_keep_norm_with_unitary_parameter(self, rng):
        # impedance node, unitary P, no damping: skew kernel flow
        sys = wave_system(8)
        from passivebc.hilbert import LinearMap
        eye = LinearMap(np.eye(9), sys.X, sys.X)
        zero = LinearMap(np.zeros((9, 9)), sys.X, sys.X)
        nd = impedance_node(sys.op_A, rotation(0.6), eye, zero)
        kernel = scipy.linalg.null_space(nd.G_map, rcond=1e-10)
        w = nd.state_space.gram
        for _ in range(5):
            z = kernel @ rng.standard_normal(kernel.shape[1])
            zn = StepSolver(nd, 5e-3).step(z, np.zeros(2))
            n0 = float((iota(nd.op) @ z) @ w @ (iota(nd.op) @ z))
            n1 = float((iota(nd.op) @ zn) @ w @ (iota(nd.op) @ zn))
            assert n1 == pytest.approx(n0, rel=1e-12)

    def test_local_order_three_against_discrete_mode(self):
        # compare one step against the exact semi-discrete mode solution;
        # halving dt cuts the defect by about eight
        sys = wave_system(16)
        nd = neumann_node(sys)
        n = 16
        lam = 4.0 * n ** 2 * math.sin(math.pi / (2 * n)) ** 2 + 1.0
        omega = math.sqrt(lam)
        mode = np.cos(math.pi * sys.nodes)

        # the nodal cosine is an exact eigenvector of the zero-traction
        # discrete operator
        w_h = sys.op_A.core.gram[:17, :17]
        s_mode = np.linalg.solve(sys.X.gram, w_h @ mode)
        assert np.allclose(s_mode, lam * mode, atol=1e-10)

        def defect(dt):
            z0 = np.concatenate([mode, np.zeros(17)])
            ze = consistent_initialization(nd, z0, np.zeros(2))
            z1 = StepSolver(nd, dt).step(ze, np.zeros(2))
            exact = np.concatenate([mode * math.cos(omega * dt),
                                    -omega * mode * math.sin(omega * dt)])
            return np.linalg.norm(z1[:34] - exact)

        d1, d2 = defect(2e-2), defect(1e-2)
        assert d1 / d2 == pytest.approx(8.0, rel=0.2)

    def test_singular_step_matrix_detected(self):
        sys = wave_system(4)
        nd = neumann_node(sys)
        broken = dataclasses.replace(nd, G_map=np.zeros_like(nd.G_map))
        with pytest.raises(SingularStepMatrix):
            StepSolver(broken, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -0.0, math.nan])
    def test_zero_or_nan_step_refused(self, dt):
        with pytest.raises(InvalidTimeGrid, match="dt must be nonzero"):
            StepSolver(neumann_node(wave_system(4)), dt)

    @pytest.mark.parametrize("dt", [math.inf, -math.inf])
    def test_infinite_step_fails_finiteness_gate(self, dt):
        with pytest.raises(NonFiniteValue, match="midpoint step matrix"):
            StepSolver(neumann_node(wave_system(4)), dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_entry_fails_finiteness_gate(self, bad):
        matrix = np.asfortranarray(np.eye(4))
        matrix[2, 1] = bad
        with pytest.raises(NonFiniteValue, match="midpoint step matrix"):
            StepSolver._factor(matrix)

    def test_each_factor_logs_its_size_and_pivot_ratio(self, rng, caplog):
        # a run logs its factor once it is made, with the steps of its
        # blocks and the bytes of its buffer: 1000 steps, blocks of k < 1000
        sys_ = random_wave_system(16, rng)
        nd = neumann_node(sys_)
        with caplog.at_level(logging.DEBUG, logger="passivebc"):
            simulate_blocks(nd, initial_state(sys_, "zero"),
                            InputSignal.zero(2), 1.0, 1e-3)
        solver = StepSolver(nd, 1e-3)      # the run's factor, made again
        pivots = np.abs(np.diag(solver._lu[0]))
        assert solver.pivot_ratio == pivots.min() / pivots.max()
        assert 0.0 < solver.pivot_ratio <= 1.0
        held = solver._behind.nbytes + sum(x.nbytes for x in solver._lu)
        ext, k = nd.op.ext_dim, _block_steps(nd.op.ext_dim)
        assert k < 1000
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "passivebc"
        assert record.getMessage() == (
            f"step factor: ext_dim {ext}, {held} bytes held, "
            f"pivot ratio {solver.pivot_ratio:.3e}; blocks of {k} steps in "
            f"a {8 * (k + 1) * ext}-byte buffer")


class TestSimulate:
    def test_zero_everything_stays_zero(self):
        sys = wave_system(8)
        nd = neumann_node(sys)
        traj = simulate(nd, initial_state(sys, "zero"),
                        InputSignal.zero(2), 0.05, 1e-3)
        assert not traj.states_ext.any()
        assert not traj.outputs.any()
        assert not traj.ledger.H.any()

    def test_constraint_holds_at_midpoints(self, rng):
        sys = random_wave_system(10, rng)
        nd = neumann_node(sys)
        sig = InputSignal("sine", weights=np.array([0.5, 1.0]),
                          amplitude=0.4, frequency=2.0)
        traj = simulate(nd, initial_state(sys, "gauss"), sig, 0.2, 1e-3)
        mids = 0.5 * (traj.states_ext[:-1] + traj.states_ext[1:])
        for i in range(traj.n_steps):
            gap = np.linalg.norm(nd.G_map @ mids[i] - traj.inputs[i])
            assert gap <= 1e-9

    def test_standing_wave_accuracy(self):
        sys = wave_system(32)
        nd = neumann_node(sys)
        z0 = initial_state(sys, "standing_wave", k=1)
        traj = simulate(nd, z0, InputSignal.zero(2), 1.0, 1e-3)
        state, _ = analytic_standing_wave(1, sys.coeffs)
        gap = traj.states_ext[-1][:66] - state(1.0)
        wx = sys.X.gram
        err = math.sqrt(gap[:33] @ wx @ gap[:33]
                        + gap[33:] @ wx @ gap[33:])
        assert err <= 1e-2

    def test_monotone_decay_without_input(self, rng):
        sys = wave_system(12, b=0.2)
        for _ in range(5):
            raw = rng.standard_normal((2, 2))
            p = raw * rng.uniform(0.05, 1.0) / np.linalg.norm(raw, 2)
            nd = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
            traj = simulate(nd, initial_state(sys, "gauss"),
                            InputSignal.zero(2), 0.1, 2e-3)
            increments = np.diff(traj.ledger.H)
            assert increments.max() <= 1e-10 * (1.0 + traj.ledger.H[0])

    def test_time_reversal(self):
        sys = wave_system(16)
        from passivebc.hilbert import LinearMap
        eye = LinearMap(np.eye(17), sys.X, sys.X)
        zero = LinearMap(np.zeros((17, 17)), sys.X, sys.X)
        nd = impedance_node(sys.op_A, np.eye(2), eye, zero)
        z0 = consistent_initialization(
            nd, initial_state(sys, "standing_wave", k=2), np.zeros(2))
        forward, back = StepSolver(nd, 1e-3), StepSolver(nd, -1e-3)
        z = z0.copy()
        for _ in range(100):
            z = forward.step(z, np.zeros(2))
        for _ in range(100):
            z = back.step(z, np.zeros(2))
        assert np.linalg.norm(z - z0) <= 1e-10


class TestShapeMismatch:
    """Inputs whose channel count or dimension is not the node's are
    refused where they enter, not broadcast onto the node's ports."""

    @pytest.fixture(scope="class")
    def damped_sine(self):
        sc = load_scenario(ROOT / "scenarios" / "damped_sine.json")
        sys = build_system(sc)
        return build_node(sc, sys), build_initial_state(sc, sys)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.5, -0.5]])
    def test_simulate_refuses_other_channel_counts(self, damped_sine,
                                                  weights):
        nd, z0 = damped_sine
        assert nd.G_map.shape[0] == 2
        sig = InputSignal("sine", weights=weights, amplitude=0.1)
        with pytest.raises(ShapeMismatch, match="input signal weights"):
            simulate(nd, z0, sig, 0.01, 1e-3)

    @pytest.mark.parametrize("u0", [[0.0], [0.0, 0.0, 0.0]])
    def test_initialization_refuses_other_channel_counts(self, damped_sine,
                                                        u0):
        nd, z0 = damped_sine
        with pytest.raises(ShapeMismatch, match="initial input u0"):
            consistent_initialization(nd, z0, u0)

    def test_initialization_refuses_wrong_core_length(self, damped_sine):
        nd, z0 = damped_sine
        with pytest.raises(ShapeMismatch, match="initial core state"):
            consistent_initialization(nd, z0[:-1], np.zeros(2))

    @pytest.mark.parametrize("u", [[0.0], [0.0, 0.0, 0.0], 0.0])
    def test_step_refuses_other_channel_counts(self, damped_sine, u):
        nd, _ = damped_sine
        z = np.zeros(nd.op.ext_dim)
        with pytest.raises(ShapeMismatch, match="inputs"):
            StepSolver(nd, 1e-3).step(z, u)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_step_refuses_wrong_state_length(self, damped_sine, delta):
        nd, _ = damped_sine
        z = np.zeros(nd.op.ext_dim + delta)
        with pytest.raises(ShapeMismatch, match="state z"):
            StepSolver(nd, 1e-3).step(z, np.zeros(2))

    def test_advance_refuses_bad_blocks(self, damped_sine):
        nd, _ = damped_sine
        solver, ext = StepSolver(nd, 1e-3), nd.op.ext_dim
        with pytest.raises(ShapeMismatch, match="inputs"):
            solver.advance(np.zeros((4, ext)), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch, match="inputs"):
            solver.advance(np.zeros((4, ext)), np.zeros((3, 1)))
        with pytest.raises(ShapeMismatch, match="states"):
            solver.advance(np.zeros((4, ext + 1)), np.zeros((3, 2)))
        # rows that getrs could not overwrite in place
        for states in (np.zeros((4, ext), order="F"),
                       np.zeros((4, ext), dtype=np.float32)):
            with pytest.raises(ShapeMismatch, match="C-contiguous float64"):
                solver.advance(states, np.zeros((3, 2)))


class TestNonFiniteEntry:
    """NaN or infinity in an initial state or input is refused at entry;
    the residual gates downstream compare with ``>``, which NaN passes."""

    @pytest.fixture(scope="class")
    def damped_sine(self):
        sc = load_scenario(ROOT / "scenarios" / "damped_sine.json")
        sys = build_system(sc)
        return build_node(sc, sys), build_initial_state(sc, sys)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["initial_core_state",
                                     "initial_input_u0"])
    def test_initialization_refuses(self, damped_sine, bad, arg):
        nd, z0 = damped_sine
        args = {"initial_core_state": z0.copy(),
                "initial_input_u0": np.zeros(2)}
        args[arg][0] = bad
        with pytest.raises(NonFiniteValue, match=arg):
            consistent_initialization(nd, args["initial_core_state"],
                                      args["initial_input_u0"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["state_z", "midpoint_input_u_mid"])
    def test_step_refuses(self, damped_sine, bad, arg):
        # a NaN state stepped silently to a NaN state
        nd, _ = damped_sine
        args = {"state_z": np.zeros(nd.op.ext_dim),
                "midpoint_input_u_mid": np.zeros(2)}
        args[arg][-1] = bad
        with pytest.raises(NonFiniteValue, match=arg):
            StepSolver(nd, 1e-3).step(args["state_z"],
                                      args["midpoint_input_u_mid"])

    def test_simulate_refuses_before_factoring(self, damped_sine,
                                               monkeypatch):
        nd, z0 = damped_sine
        calls = []
        original = scipy.linalg.lu_factor

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
        z0 = z0.copy()
        z0[3] = np.nan
        sig = InputSignal("sine", weights=[1.0, 0.0], amplitude=0.1)
        with pytest.raises(NonFiniteValue, match="initial_core_state"):
            simulate(nd, z0, sig, 0.01, 1e-3)
        assert calls == []

    @pytest.mark.parametrize("frequency, t_final, dt, where", [
        (1e308, 0.01, 1e-3, "t = 0.0005 of step 0"),
        (2e307, 2.0, 1e-2, "t = 1.4349999999999998 of step 143")],
        ids=["2_pi_f", "2_pi_f_t_mid_grid"])
    def test_overflowing_signal_refused_before_the_step(
            self, damped_sine, monkeypatch, frequency, t_final, dt, where):
        # 2 pi f, or 2 pi f t from some step on, leaves the float range
        import passivebc.sim as sim

        def refused(*args, **kwargs):
            raise AssertionError("the step was built")
        monkeypatch.setattr(sim, "StepSolver", refused)
        nd, z0 = damped_sine
        sig = InputSignal("sine", weights=[1.0, 0.0], amplitude=0.1,
                          frequency=frequency)
        message = "input signal 'sine' holds NaN or infinity at the midpoint "
        with pytest.raises(NonFiniteValue, match=re.escape(message + where)):
            simulate(nd, z0, sig, t_final, dt)


class TestConcurrency:
    def test_parallel_simulations_match_sequential(self):
        # nodes are immutable; independent runs may share one freely
        from concurrent.futures import ThreadPoolExecutor
        sys = wave_system(12, b=0.3)
        nd = neumann_node(sys)
        z0 = initial_state(sys, "gauss")
        sigs = [InputSignal("sine", weights=np.array([1.0, 0.0]),
                            amplitude=0.1 * (i + 1), frequency=1.0)
                for i in range(4)]
        sequential = [simulate(nd, z0, s, 0.1, 2e-3) for s in sigs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda s: simulate(nd, z0, s, 0.1, 2e-3), sigs))
        for a, b in zip(sequential, parallel):
            assert np.array_equal(a.states_ext, b.states_ext)
            assert np.array_equal(a.ledger.H, b.ledger.H)


class TestTimeGrid:
    @pytest.mark.parametrize("t_final, dt, steps", [
        (0.002, 1e-3, 2), (0.3, 0.1, 3), (1.0, 1e-3, 1000),
        (1.0 + 1e-10, 1.0, 1)])
    def test_whole_step_grids(self, t_final, dt, steps):
        assert time_steps(t_final, dt) == steps

    @pytest.mark.parametrize("t_final, dt", [
        (0.0015, 1e-3),            # 1.5 steps: was run as 2, ending at 0.002
        (1.0 + 1e-8, 1.0),         # off the grid by more than GRID_RTOL
        (-1.0, 1e-3),              # was run as 1 step
        (0.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
        (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan),
        (1e300, 1e-300),           # t_final / dt overflows
        (1e-3, 1.0)])              # zero steps
    def test_simulate_refuses_other_grids(self, t_final, dt):
        sys = wave_system(4)
        nd = neumann_node(sys)
        with pytest.raises(InvalidTimeGrid):
            simulate(nd, initial_state(sys, "zero"), InputSignal.zero(2),
                     t_final, dt)


class TestLedger:
    def test_midpoint_energy_identity(self, rng):
        # dH equals dt times the power functional at the midpoint state
        sys = random_wave_system(10, rng, b_max=0.6)
        nd = neumann_node(sys)
        sig = InputSignal("gauss_pulse", weights=np.array([1.0, 0.3]),
                          amplitude=0.5, center=0.1, width=0.05)
        traj = simulate(nd, initial_state(sys, "gauss"), sig, 0.2, 1e-3)
        mids = 0.5 * (traj.states_ext[:-1] + traj.states_ext[1:])
        w = nd.state_space.gram
        dt = 1e-3
        for i in range(traj.n_steps):
            zc = iota(nd.op) @ mids[i]
            power = float(zc @ w @ (nd.L_eff @ mids[i]))
            dh = traj.ledger.H[i + 1] - traj.ledger.H[i]
            assert dh == pytest.approx(dt * power,
                                       abs=1e-12 * (1 + abs(dh)))

    def test_impedance_residual_machine_zero_for_unitary(self):
        sys = wave_system(32, b=0.5)
        nd = neumann_node(sys)
        sig = InputSignal("sine", weights=np.array([1.0, 0.0]),
                          amplitude=0.3, frequency=1.3)
        traj = simulate(nd, initial_state(sys, "zero"), sig, 1.0, 1e-3)
        led = traj.ledger
        bound = 1e-10 * (1.0 + np.abs(led.H[1:]))
        assert (np.abs(led.residual) <= bound).all()

    def test_scattering_slack_sign_and_identity(self, rng):
        sys = wave_system(16, b=0.3)
        p = 0.5 * rotation(0.4)
        nd = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
        sig = InputSignal("sine", weights=np.array([1.0, 0.2]),
                          amplitude=0.4, frequency=0.9)
        traj = simulate(nd, initial_state(sys, "gauss"), sig, 0.5, 1e-3)
        led = traj.ledger
        assert led.slack.min() >= -1e-10
        gap = np.abs(led.residual + 0.5 * led.slack)
        assert (gap <= 1e-10 * (1.0 + np.abs(led.H[1:]))).all()

    def test_impedance_residual_equals_minus_half_slack(self, rng):
        # for non-unitary P the impedance balance closes only after the
        # contraction slack is accounted; the gap is exactly -slack/2
        sys = wave_system(16, b=0.2)
        raw = rng.standard_normal((2, 2))
        p = 0.5 * raw / np.linalg.norm(raw, 2)
        nd = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
        sig = InputSignal("sine", weights=np.array([1.0, 0.4]),
                          amplitude=0.3, frequency=1.2)
        traj = simulate(nd, initial_state(sys, "gauss"), sig, 0.5, 1e-3)
        led = traj.ledger
        assert led.slack.min() >= -1e-10
        assert led.slack.max() > 1e-8    # genuinely non-unitary
        gap = np.abs(led.residual + 0.5 * led.slack)
        assert (gap <= 1e-10 * (1.0 + np.abs(led.H[1:]))).all()

    def test_energy_preserving_scattering_zero_slack(self):
        sys = wave_system(16)
        from passivebc.hilbert import LinearMap
        eye = LinearMap(np.eye(17), sys.X, sys.X)
        zero = LinearMap(np.zeros((17, 17)), sys.X, sys.X)
        nd = scattering_node(sys.op_A, rotation(1.2), eye, zero)
        sig = InputSignal("sine", weights=np.array([1.0, -0.5]),
                          amplitude=0.2, frequency=1.0)
        traj = simulate(nd, initial_state(sys, "zero"), sig, 0.5, 1e-3)
        assert np.abs(traj.ledger.slack).max() <= 1e-10
        assert np.abs(traj.ledger.residual).max() <= 1e-10

    def test_ledger_totals_bound_energy(self):
        # accumulated supply dominates the energy gain along the run
        sys = wave_system(16, b=0.5)
        nd = neumann_node(sys)
        sig = InputSignal("gauss_pulse", weights=np.array([1.0, 0.0]),
                          amplitude=0.6, center=0.2, width=0.06)
        traj = simulate(nd, initial_state(sys, "zero"), sig, 1.0, 1e-3)
        led = traj.ledger
        dt = 1e-3
        supply = dt * np.cumsum(led.supplied)
        assert (led.H[1:] <= led.H[0] + supply + 1e-10).all()

    def test_energy_split_against_quadratic_forms(self, rng):
        # H_p is half the squared strain norm of z1, H_k the half
        # inverse-mass form of z2; recomputed here from the factor map
        sys = wave_system(10, rho=1.6, a=0.9, T=1.2)
        nd = neumann_node(sys)
        z = rng.standard_normal(sys.op_A.ext_dim)
        hp, hk = (h[0] for h in nd.energy_split(z[None]))
        az1 = sys.A_map.matrix @ z[:11]
        hp_direct = 0.5 * float(az1 @ sys.Y.gram @ az1)
        z2 = z[11:22]
        hk_direct = 0.5 * float((z2 / sys.coeffs.rho) @ sys.X.gram @ z2)
        assert hp == pytest.approx(hp_direct, rel=1e-12)
        assert hk == pytest.approx(hk_direct, rel=1e-12)



def oracle_run(node, z_core0, signal, t_final, dt):
    """Step loop with per-step outputs and the per-state ledger loop.

    Evaluates every ledger formula state by state straight from the node's
    maps, as the simulator did before the vectorized ledger.
    """
    n_steps = max(1, int(round(t_final / dt)))
    times = dt * np.arange(n_steps + 1)
    z0 = consistent_initialization(node, z_core0, signal(0.0))
    solver = StepSolver(node, dt)
    m = node.G_map.shape[0]
    states = np.empty((n_steps + 1, node.op.ext_dim))
    inputs = np.empty((n_steps, m))
    outputs = np.empty((n_steps, m))
    states[0] = z0
    for n in range(n_steps):
        u_mid = signal(times[n] + 0.5 * dt)
        inputs[n] = u_mid
        states[n + 1] = solver.step(states[n], u_mid)
        outputs[n] = node.K_map @ (0.5 * (states[n] + states[n + 1]))

    op = node.op
    n1, n2 = op.core_blocks
    w = node.state_space.gram
    wd = np.linalg.inv(op.bspace.gram)
    weight = dense_mass_weight(node)
    gap = op.bspace.gram @ op.Gamma0 @ weight - op.Gamma1 @ weight
    hp = np.array([0.5 * float(zc[:n1] @ w[:n1, :n1] @ zc[:n1])
                   for zc in states @ iota(op).T])
    hk = np.array([0.5 * float(zc[n1:] @ w[n1:, n1:] @ zc[n1:])
                   for zc in states @ iota(op).T])
    supplied, dissipated, slack = (np.empty(n_steps) for _ in range(3))
    for i in range(n_steps):
        z_mid = 0.5 * (states[i] + states[i + 1])
        u, y = inputs[i], outputs[i]
        if node.flavor == "impedance":
            supplied[i] = float(u @ wd @ y)
        else:
            supplied[i] = 0.5 * (float(u @ wd @ u) - float(y @ wd @ y))
        v = weight[n1:n1 + n2] @ z_mid
        dissipated[i] = float((node.D.toarray() @ v)
                             @ node.op.core.blocks[1].gram @ v)
        r = gap @ z_mid
        pr = node.P.matrix @ r
        slack[i] = dt * (0.5 * float(r @ wd @ r - pr @ wd @ pr))
    return dict(states_ext=states, inputs=inputs, outputs=outputs,
                H=hp + hk, H_p=hp, H_k=hk, supplied=supplied,
                dissipated=dissipated, slack=slack)


class TestVectorizedLedger:
    @pytest.mark.parametrize("flavor", ["impedance", "scattering"])
    @pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 515])
    def test_matches_per_state_oracle(self, rng, flavor, n_steps,
                                      monkeypatch):
        # one step, k - 1, k, k + 1 and 2k + 3 for blocks of k = 256 steps:
        # the budget is set to 256 states at this node's ext_dim
        sys = random_wave_system(6, rng, b_max=0.6)
        raw = rng.standard_normal((2, 2))
        norm = ContractionParam.from_matrix(raw, sys.op_A.bspace).dual_norm
        p = rng.uniform(0.2, 0.9) * raw / norm
        builder = impedance_node if flavor == "impedance" else scattering_node
        nd = builder(sys.op_A, p, sys.M_map, sys.D_map)
        assert nd.P.dual_norm < 1.0
        monkeypatch.setattr(sim, "BLOCK_BYTES", 8 * 256 * nd.op.ext_dim)
        assert _block_steps(nd.op.ext_dim) == 256
        sig = InputSignal("sine", weights=np.array([1.0, 0.6]),
                          amplitude=0.4, frequency=3.0)
        z0 = initial_state(sys, "gauss")
        dt = 1e-3
        traj = simulate(nd, z0, sig, n_steps * dt, dt)
        want = oracle_run(nd, z0, sig, n_steps * dt, dt)

        assert traj.n_steps == n_steps
        assert np.array_equal(traj.states_ext, want["states_ext"])
        assert np.array_equal(traj.inputs, want["inputs"])
        scale = np.abs(want["outputs"]).max()
        assert np.abs(traj.outputs - want["outputs"]).max() <= 1e-13 * scale
        led = traj.ledger
        for name in ("H", "H_p", "H_k", "supplied", "dissipated", "slack"):
            got, ref = getattr(led, name), want[name]
            assert got.shape == ref.shape
            tol = 1e-12 * np.abs(ref).max() + 1e-15
            assert np.abs(got - ref).max() <= tol, name
        assert led.dissipated.max() > 0.0
        assert led.slack.max() > 0.0
        closure = np.abs(led.residual + 0.5 * led.slack)
        assert (closure <= 1e-10 * (1.0 + np.abs(led.H[1:]))).all()


class TestLedgerProperties:
    """Random coefficient fields and contractions: the ledger closes and
    the contraction's restriction is dissipative, at the acceptance
    tolerances (C2, C5)."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1),
           b_max=st.floats(0.0, 1.0), norm=st.floats(0.05, 1.0),
           flavor=st.sampled_from(["scattering", "impedance"]),
           strain=st.booleans(), steps=st.integers(1, 20))
    def test_ledger_closes_and_restriction_dissipative(
            self, n, seed, b_max, norm, flavor, strain, steps):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=b_max)
        raw = rng.standard_normal((2, 2))
        p = raw * (norm / contraction_norm(raw, sys.op_A.bspace))
        z0 = initial_state(sys, "gauss", center=rng.uniform(0.2, 0.8),
                           width=rng.uniform(0.05, 0.3))
        op = sys.op_A
        if strain:
            op, z0 = sys.op_strain, push_state(sys.A_map, z0)
        builder = scattering_node if flavor == "scattering" \
            else impedance_node
        nd = builder(op, p, sys.M_map, sys.D_map)
        signal = InputSignal("sine", weights=rng.uniform(-1.0, 1.0, 2),
                             amplitude=rng.uniform(0.0, 1.0),
                             frequency=rng.uniform(0.1, 5.0))
        dt = 1e-2
        led = simulate(nd, z0, signal, steps * dt, dt).ledger
        tol = 1e-10 * (1.0 + led.H.max())
        assert np.abs(led.residual + 0.5 * led.slack).max() <= tol
        assert led.slack.min() >= -tol
        assert dissipativity_residual(
            generator_from_contraction(op, p)) <= 1e-10
