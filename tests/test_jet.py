import numpy as np
import pytest

from passivebc.hilbert import LinearMap, euclidean_space
from passivebc.jet import (
    build_jet,
    pull_state,
    push_state,
    ran_A_defect,
    state_injection,
    transform_node,
)
from passivebc.node import impedance_node, internal_wellposedness
from passivebc.sim import InputSignal, simulate
from passivebc.triplet import assemble_dual_pair, green_residual, lift_second_order

from conftest import random_wave_system, wave_system


def identity_factor_pair():
    """Dual pair whose factor map is the identity (X = Y, one boundary dof)."""
    n = 3
    X = euclidean_space(n, "X")
    Y = euclidean_space(n, "Y")
    A = LinearMap(np.eye(n), X, Y)
    e = np.zeros((n, 1))
    e[0, 0] = 1.0
    iota_Y = np.hstack([np.eye(n), np.zeros((n, 1))])
    b = np.hstack([-np.eye(n), e])
    B_ext = LinearMap(b, euclidean_space(n + 1, "Y~"), X)
    lam1 = -e.T            # forced by the Green identity
    pi1 = np.zeros((1, n + 1))
    pi1[0, n] = 1.0
    return assemble_dual_pair(A, B_ext, iota_Y, lam1, pi1,
                              euclidean_space(1, "G1"))


class TestBuildJet:
    def test_wave_dimensions(self):
        sys = wave_system(4)
        assert sys.jet.target.ext_dim == 16
        assert sys.jet.target.core.dim == 14
        assert sys.jet.target.core_blocks == (9, 5)

    @pytest.mark.parametrize("N", [4, 16])
    def test_target_green_identity(self, N):
        assert green_residual(wave_system(N).jet.target) <= 1e-12

    def test_isometry(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        w_h = sys.op_A.core.gram[:9, :9]
        for _ in range(20):
            z1 = rng.standard_normal(9)
            az = jt.A_iso.matrix @ z1
            lhs = float(az @ sys.Y.gram @ az)
            rhs = float(z1 @ w_h @ z1)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_trace_transport(self):
        # Xi composed with the state injection reproduces Gamma exactly
        sys = wave_system(6)
        jt = sys.jet
        inj = state_injection(jt)
        assert np.abs(jt.target.Gamma0 @ inj - sys.op_A.Gamma0).max() \
            <= 1e-12
        assert np.abs(jt.target.Gamma1 @ inj - sys.op_A.Gamma1).max() \
            <= 1e-12

    def test_identity_factor_degenerates_to_source(self):
        dp = identity_factor_pair()
        op = lift_second_order(dp)
        jt = build_jet(op)
        assert np.array_equal(jt.target.L, op.L)
        assert np.array_equal(jt.target.Gamma0, op.Gamma0)
        assert np.array_equal(jt.target.Gamma1, op.Gamma1)
        assert np.array_equal(jt.target.iota, op.iota)


class TestStateTransport:
    def test_zero_maps_to_zero(self):
        sys = wave_system(4)
        assert not push_state(sys.jet, np.zeros(10)).any()

    def test_energy_preserved(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        wa = sys.op_A.core.gram
        wb = jt.target.core.gram
        for _ in range(20):
            z = rng.standard_normal(18)
            w = push_state(jt, z)
            assert float(w @ wb @ w) == pytest.approx(
                float(z @ wa @ z), rel=1e-12, abs=1e-12)

    def test_pull_inverts_push(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        z = rng.standard_normal(18)
        assert np.allclose(pull_state(jt, push_state(jt, z)), z,
                           atol=1e-12)

    def test_standing_wave_blocks(self):
        # strain block is T^{1/2} times the nodal difference quotient,
        # the restoring block a^{1/2} times the displacement
        sys = wave_system(8, T=2.0, a=1.5)
        from passivebc.wave1d import initial_state
        z = initial_state(sys, "standing_wave", k=1)
        w = push_state(sys.jet, z)
        h = sys.coeffs.h
        diff = np.diff(z[:9]) / h
        assert np.allclose(w[:8], np.sqrt(2.0) * diff, atol=1e-13)
        assert np.allclose(w[8:17], np.sqrt(1.5) * z[:9], atol=1e-13)
        assert np.allclose(w[17:], z[9:], atol=1e-13)


class TestRanADefect:
    def test_range_states_have_none(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        for _ in range(10):
            z1 = rng.standard_normal(9)
            assert ran_A_defect(jt, jt.A_iso.matrix @ z1) <= 1e-12

    def test_kernel_vector_keeps_norm(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        v = jt.P_ker @ rng.standard_normal(17)
        w_y = sys.Y.gram
        assert ran_A_defect(jt, v) == pytest.approx(
            np.sqrt(v @ w_y @ v), rel=1e-10)

    def test_kernel_annihilated_by_extension(self):
        # ker A* never feeds the momentum equation
        sys = wave_system(8)
        jt = sys.jet
        b_y = sys.dual_pair.B_ext.matrix[:, :17]
        norm = np.linalg.norm(b_y @ jt.P_ker)
        assert norm / (1.0 + np.linalg.norm(b_y)) <= 1e-12


class TestTransformNode:
    def test_traction_input_reads_strain_boundary(self):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        out = transform_node(sys.jet, nd)
        # input map is the signed flux extraction on the tau block only
        assert np.allclose(out.G_map[:, 14:], np.diag([-1.0, 1.0]),
                           atol=1e-14)
        assert not out.G_map[:, :14].any()

    def test_transformed_node_wellposed(self):
        sys = wave_system(6, rho=1.2, b=0.3)
        nd = impedance_node(sys.op_A, np.zeros((2, 2)), sys.M_map,
                            sys.D_map)
        out = transform_node(sys.jet, nd)
        ok, gen = internal_wellposedness(out)
        assert ok
        wa = out.state_space.gram @ gen
        assert np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1] <= 1e-10

    def test_identity_factor_transform_is_identity(self):
        dp = identity_factor_pair()
        op = lift_second_order(dp)
        jt = build_jet(op)
        x = euclidean_space(3, "X")
        m = LinearMap(np.eye(3), x, x)
        d = LinearMap(np.zeros((3, 3)), x, x)
        nd = impedance_node(op, np.eye(1), m, d)
        out = transform_node(jt, nd)
        assert np.allclose(out.G_map, nd.G_map, atol=1e-14)
        assert np.allclose(out.K_map, nd.K_map, atol=1e-14)
        assert np.allclose(out.L_eff, nd.L_eff, atol=1e-14)

    def test_foreign_node_rejected(self):
        sys_a = wave_system(4)
        sys_b = wave_system(6)
        nd = impedance_node(sys_b.op_A, np.eye(2), sys_b.M_map,
                            sys_b.D_map)
        with pytest.raises(ValueError):
            transform_node(sys_a.jet, nd)


class TestTrajectoryEquivalence:
    def test_short_run_matches(self, rng):
        sys = random_wave_system(12, rng, b_max=0.5)
        jt = sys.jet
        nd_a = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        nd_b = transform_node(jt, nd_a)
        from passivebc.wave1d import initial_state
        z0 = initial_state(sys, "gauss", center=0.4, width=0.15)
        sig = InputSignal("sine", weights=np.array([1.0, 0.0]),
                          amplitude=0.2, frequency=1.1)
        ta = simulate(nd_a, z0, sig, 0.1, 1e-3)
        tb = simulate(nd_b, push_state(jt, z0), sig, 0.1, 1e-3)
        nc = sys.op_A.core.dim
        for i in range(ta.n_steps + 1):
            z = ta.states_ext[i][:nc]
            w = tb.states_ext[i][:jt.target.core.dim]
            assert np.linalg.norm(push_state(jt, z) - w) <= 1e-10
            assert ran_A_defect(jt, w[:sys.Y.dim]) <= 1e-10
        assert np.abs(ta.ledger.H - tb.ledger.H).max() <= 1e-10
