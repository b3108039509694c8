import numpy as np
import pytest
import scipy.linalg

from passivebc.errors import NonFiniteValue, ShapeMismatch
from passivebc.hilbert import LinearMap, euclidean_space
from passivebc.jet import pull_state, push_state, ran_A_defect
from passivebc.node import _build_node, impedance_node, internal_wellposedness
from passivebc.sim import InputSignal, simulate
from passivebc.triplet import (
    assemble_dual_pair,
    green_residual,
    lift_second_order,
    strain_momentum,
)

from conftest import iota, random_wave_system, wave_system


def on_target(target, nd, mass, damping):
    """The node with ``nd``'s P and flavor, the mass map ``mass`` and the
    damping map ``damping`` on the jet target."""
    return _build_node(target, nd.P, mass, damping, nd.flavor)


def identity_factor_pair():
    """Dual pair whose factor map is the identity (X = Y, one boundary dof)."""
    n = 3
    X = euclidean_space(n, "X")
    Y = euclidean_space(n, "Y")
    A = LinearMap(np.eye(n), X, Y)
    e = np.zeros((n, 1))
    e[0, 0] = 1.0
    b = np.hstack([-np.eye(n), e])
    B_ext = LinearMap(b, euclidean_space(n + 1, "Y~"), X)
    lam1 = -e.T            # forced by the Green identity
    pi1 = np.zeros((1, n + 1))
    pi1[0, n] = 1.0
    return assemble_dual_pair(A, B_ext, lam1, pi1, euclidean_space(1, "G1"))


class TestBuildJet:
    def test_wave_dimensions(self):
        sys = wave_system(4)
        assert sys.op_strain.ext_dim == 16
        assert sys.op_strain.core.dim == 14
        assert sys.op_strain.core_blocks == (9, 5)

    @pytest.mark.parametrize("N", [4, 16])
    def test_target_green_identity(self, N):
        assert green_residual(wave_system(N).op_strain) <= 1e-12

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
        inj = scipy.linalg.block_diag(jt.A_iso.matrix.toarray(), np.eye(7),
                                      np.eye(2))
        assert np.abs(sys.op_strain.Gamma0 @ inj - sys.op_A.Gamma0).max() \
            <= 1e-12
        assert np.abs(sys.op_strain.Gamma1 @ inj - sys.op_A.Gamma1).max() \
            <= 1e-12

    def test_identity_factor_degenerates_to_source(self):
        dp = identity_factor_pair()
        op = lift_second_order(dp)
        target = strain_momentum(dp)
        assert np.array_equal(target.L.toarray(), op.L.toarray())
        assert np.array_equal(target.Gamma0, op.Gamma0)
        assert np.array_equal(target.Gamma1, op.Gamma1)
        assert np.array_equal(iota(target), iota(op))


class TestStateTransport:
    def test_zero_maps_to_zero(self):
        sys = wave_system(4)
        assert not push_state(sys.A_map, np.zeros(10)).any()

    @pytest.mark.parametrize("length", [17, 19, 21, 26])
    def test_push_refuses_a_state_of_another_length(self, length):
        # at N = 8 the cores have 18 and 26 entries; a 21-entry state used
        # to come back with 29 entries
        with pytest.raises(ShapeMismatch, match=r"expects \(18,\)"):
            push_state(wave_system(8).A_map, np.ones(length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_transport_refuses_non_finite_entries(self, bad):
        jt = wave_system(8).jet
        for fn, arg, length in ((push_state, jt.A_iso, 18),
                                (pull_state, jt, 26), (ran_A_defect, jt, 17)):
            x = np.ones(length)
            x[3] = bad
            with pytest.raises(NonFiniteValue, match="NaN or infinity"):
                fn(arg, x)

    def test_energy_preserved(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        wa = sys.op_A.core.gram
        wb = sys.op_strain.core.gram
        for _ in range(20):
            z = rng.standard_normal(18)
            w = push_state(jt.A_iso, z)
            assert float(w @ wb @ w) == pytest.approx(
                float(z @ wa @ z), rel=1e-12, abs=1e-12)

    def test_pull_inverts_push(self, rng):
        sys = wave_system(8)
        jt = sys.jet
        z = rng.standard_normal(18)
        assert np.allclose(pull_state(jt, push_state(jt.A_iso, z)), z,
                           atol=1e-12)

    def test_standing_wave_blocks(self):
        # strain block is T^{1/2} times the nodal difference quotient,
        # the restoring block a^{1/2} times the displacement
        sys = wave_system(8, T=2.0, a=1.5)
        from passivebc.wave1d import initial_state
        z = initial_state(sys, "standing_wave", k=1)
        w = push_state(sys.A_map, z)
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
        w_y = sys.Y.gram
        # ker A* = ker (A^T W_Y), an orthonormal basis by SVD
        ker = scipy.linalg.null_space(sys.A_map.matrix.T @ w_y)
        v = ker @ rng.standard_normal(ker.shape[1])
        assert ran_A_defect(jt, v) == pytest.approx(
            np.sqrt(v @ w_y @ v), rel=1e-10)

    def test_kernel_annihilated_by_extension(self):
        # ker A* never feeds the momentum equation
        sys = wave_system(8)
        b_y = sys.dual_pair.B_ext.matrix[:, :17].toarray()
        ker = scipy.linalg.null_space(sys.A_map.matrix.T @ sys.Y.gram)
        norm = np.linalg.norm(b_y @ ker)
        assert norm / (1.0 + np.linalg.norm(b_y)) <= 1e-12


class TestTransformNode:
    def test_traction_input_reads_strain_boundary(self):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        out = on_target(sys.op_strain, nd, sys.M_map, sys.D_map)
        # input map is the signed flux extraction on the tau block only
        assert np.allclose(out.G_map[:, 14:], np.diag([-1.0, 1.0]),
                           atol=1e-14)
        assert not out.G_map[:, :14].any()

    def test_transformed_node_wellposed(self):
        sys = wave_system(6, rho=1.2, b=0.3)
        nd = impedance_node(sys.op_A, np.zeros((2, 2)), sys.M_map,
                            sys.D_map)
        out = on_target(sys.op_strain, nd, sys.M_map, sys.D_map)
        ok, gen = internal_wellposedness(out)
        assert ok
        wa = out.state_space.gram @ gen
        assert np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1] <= 1e-10

    def test_identity_factor_transform_is_identity(self):
        dp = identity_factor_pair()
        op = lift_second_order(dp)
        x = euclidean_space(3, "X")
        m = LinearMap(np.eye(3), x, x)
        d = LinearMap(np.zeros((3, 3)), x, x)
        nd = impedance_node(op, np.eye(1), m, d)
        out = on_target(strain_momentum(dp), nd, m, d)
        assert np.allclose(out.G_map, nd.G_map, atol=1e-14)
        assert np.allclose(out.K_map, nd.K_map, atol=1e-14)
        assert np.allclose(out.L_eff.toarray(), nd.L_eff.toarray(),
                           atol=1e-14)


class TestTrajectoryEquivalence:
    def test_short_run_matches(self, rng):
        sys = random_wave_system(12, rng, b_max=0.5)
        jt = sys.jet
        nd_a = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        nd_b = on_target(sys.op_strain, nd_a, sys.M_map, sys.D_map)
        from passivebc.wave1d import initial_state
        z0 = initial_state(sys, "gauss", center=0.4, width=0.15)
        sig = InputSignal("sine", weights=np.array([1.0, 0.0]),
                          amplitude=0.2, frequency=1.1)
        ta = simulate(nd_a, z0, sig, 0.1, 1e-3)
        tb = simulate(nd_b, push_state(jt.A_iso, z0), sig, 0.1, 1e-3)
        nc = sys.op_A.core.dim
        for i in range(ta.n_steps + 1):
            z = ta.states_ext[i][:nc]
            w = tb.states_ext[i][:sys.op_strain.core.dim]
            assert np.linalg.norm(push_state(jt.A_iso, z) - w) <= 1e-10
            assert ran_A_defect(jt, w[:sys.Y.dim]) <= 1e-10
        assert np.abs(ta.ledger.H - tb.ledger.H).max() <= 1e-10
