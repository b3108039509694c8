import dataclasses

import numpy as np
import pytest
import scipy.linalg

from passivebc import wave1d
from passivebc.errors import GreenIdentityViolated, TraceNotSurjective
from passivebc.hilbert import LinearMap, euclidean_space, make_space
from passivebc.jet import build_jet, state_injection
from passivebc.triplet import (
    GREEN_TOL,
    BoundaryOperator,
    assemble_dual_pair,
    extend_adjoint,
    green_residual,
    lift_second_order,
    minimal_domain,
    skew_on_minimal,
)

from conftest import random_wave_system, wave_system


def synthetic_two_block_pair(rng, nx=5, ny=6, nb=3, m1=2, m2=1):
    """Random dual pair with both boundary blocks, exact by construction.

    B_ext is defined from the traces so that the Green identity holds as a
    matrix identity: B_ext = W_X^{-1}(-A^T W_Y iota_Y - L1^T Pi1 + L2^T Pi2).
    """
    X = make_space(nx, np.diag(rng.uniform(0.5, 2.0, nx)), "X")
    Y = make_space(ny, np.diag(rng.uniform(0.5, 2.0, ny)), "Y")
    a = rng.standard_normal((ny, nx)) + 3.0 * np.eye(ny, nx)
    A = LinearMap(a, X, Y)
    ext = ny + nb
    iota_Y = np.hstack([np.eye(ny), np.zeros((ny, nb))])
    lam1 = rng.standard_normal((m1, nx))
    lam2 = rng.standard_normal((m2, nx))
    pi1 = rng.standard_normal((m1, ext))
    pi2 = rng.standard_normal((m2, ext))
    b = np.linalg.solve(X.gram, (-a.T @ Y.gram @ iota_Y
                                 - lam1.T @ pi1 + lam2.T @ pi2))
    ext_space = make_space(ext, np.eye(ext), "Y~")
    B_ext = LinearMap(b, ext_space, X)
    G1 = euclidean_space(m1, "G1")
    G2 = euclidean_space(m2, "G2")
    return assemble_dual_pair(A, B_ext, iota_Y, lam1, pi1, G1,
                              lam2, pi2, G2)


class TestAssembleDualPair:
    def test_wave_residual_exact(self):
        sys = wave_system(4)
        assert sys.dual_pair.residual <= 1e-12

    def test_wave_identity_on_random_vectors(self, rng):
        # direct evaluation of both sides of the Green identity
        sys = wave_system(6)
        dp = sys.dual_pair
        wx, wy = sys.X.gram, sys.Y.gram
        for _ in range(25):
            yt = rng.standard_normal(dp.ext_Y_dim)
            x = rng.standard_normal(7)
            lhs = (-float(dp.B_ext(yt) @ wx @ x)
                   - float((dp.iota_Y @ yt) @ wy @ (dp.A(x))))
            rhs = float((dp.Pi1 @ yt) @ (dp.Lambda1 @ x))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_perturbed_trace_rejected_linearly(self):
        sys = wave_system(4)
        dp = sys.dual_pair
        residuals = {}
        for eps in (1e-3, 1e-6):
            with pytest.raises(GreenIdentityViolated) as info:
                assemble_dual_pair(dp.A, dp.B_ext, dp.iota_Y, dp.Lambda1,
                                   dp.Pi1 + eps, dp.G1)
            residuals[eps] = info.value.residual
        assert residuals[1e-3] == pytest.approx(1e3 * residuals[1e-6],
                                                rel=1e-6)

    def test_trivial_pair_empty_boundary(self):
        X = euclidean_space(2, "X")
        Y = euclidean_space(3, "Y")
        A = LinearMap(np.zeros((3, 2)), X, Y)
        B = LinearMap(np.zeros((2, 3)), Y, X)
        G0 = euclidean_space(0, "G1")
        dp = assemble_dual_pair(A, B, np.eye(3), np.zeros((0, 2)),
                                np.zeros((0, 3)), G0)
        assert dp.residual == 0.0

    def test_two_block_pair(self, rng):
        dp = synthetic_two_block_pair(rng)
        assert dp.residual <= 1e-12

    def test_non_surjective_traces_rejected(self, rng):
        # duplicated trace rows keep the identity exact (B_ext is built
        # from the traces) but fail the surjectivity rank check
        X = euclidean_space(4, "X")
        Y = euclidean_space(4, "Y")
        A = LinearMap(np.eye(4) * 2.0, X, Y)
        lam1 = np.vstack([np.ones(4), np.ones(4)])
        pi1 = rng.standard_normal((2, 5))
        iota_Y = np.hstack([np.eye(4), np.zeros((4, 1))])
        b = -A.matrix.T @ iota_Y - lam1.T @ pi1
        B_ext = LinearMap(b, euclidean_space(5, "Y~"), X)
        with pytest.raises(TraceNotSurjective):
            assemble_dual_pair(A, B_ext, iota_Y, lam1, pi1,
                               euclidean_space(2, "G1"))


class TestLift:
    def test_wave_dimensions(self):
        sys = wave_system(4)
        op = sys.op_A
        assert op.ext_dim == 12
        assert op.core.dim == 10
        assert op.n_boundary == 2

    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_green_residual(self, N):
        assert green_residual(wave_system(N).op_A) <= 1e-12

    def test_green_residual_random_fields(self, rng):
        for _ in range(5):
            sys = random_wave_system(16, rng)
            assert green_residual(sys.op_A) <= 1e-12

    def test_single_block_trace_structure(self):
        # with no second boundary block: Gamma0 reads z2 endpoints,
        # Gamma1 the signed boundary fluxes
        sys = wave_system(4)
        op, dp = sys.op_A, sys.dual_pair
        nx = 5
        assert np.array_equal(op.Gamma0[:, nx:2 * nx], dp.Lambda1)
        assert not op.Gamma0[:, :nx].any()
        assert not op.Gamma0[:, 2 * nx:].any()
        assert not op.Gamma1[:, :2 * nx].any()
        assert np.array_equal(op.Gamma1[:, 2 * nx:],
                              np.diag([-1.0, 1.0]))

    def test_operator_green_identity_on_random_vectors(self, rng):
        # scalar-product form of the identity, independent of the
        # residual's matrix algebra
        op = wave_system(6).op_A
        w = op.core.gram
        for _ in range(25):
            f = rng.standard_normal(op.ext_dim)
            g = rng.standard_normal(op.ext_dim)
            lhs = float((op.iota @ f) @ w @ (op.L @ g)) \
                + float((op.L @ f) @ w @ (op.iota @ g))
            rhs = float((op.Gamma1 @ f) @ (op.Gamma0 @ g)) \
                + float((op.Gamma0 @ f) @ (op.Gamma1 @ g))
            scale = 1.0 + np.linalg.norm(f) * np.linalg.norm(g)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_two_block_lift_green(self, rng):
        dp = synthetic_two_block_pair(rng)
        op = lift_second_order(dp)
        assert green_residual(op) <= 1e-12
        assert op.ext_dim == 2 * 5 + 3
        assert op.n_boundary == 3

    def test_scaled_gamma1_breaks_identity(self):
        import dataclasses
        op = wave_system(4).op_A
        bad = dataclasses.replace(op, Gamma1=2.0 * op.Gamma1)
        assert green_residual(bad) > 1e-6


def dense_green_residual(op):
    """Operator Green defect in dense algebra: the reference formula."""
    wl = op.core.gram @ op.L
    defect = (op.iota.T @ wl + wl.T @ op.iota
              - op.Gamma1.T @ op.Gamma0 - op.Gamma0.T @ op.Gamma1)
    return np.linalg.norm(defect) / (1.0 + np.linalg.norm(wl))


def dense_dual_pair_defect(A, B_ext, iota_Y, lam1, pi1, lam2, pi2):
    """(residual, worst entry) of the dual-pair defect, in dense algebra."""
    pairing = iota_Y.T @ A.codomain.gram @ A.matrix
    defect = (-B_ext.matrix.T @ A.domain.gram - pairing
              - pi1.T @ lam1 + pi2.T @ lam2)
    return (np.linalg.norm(defect) / (1.0 + np.linalg.norm(pairing)),
            np.abs(defect).max())


def gate_systems(rng):
    """Wave systems with random fields and boundary Grams, plus a pair
    with two boundary blocks."""
    systems = []
    for N in (3, 8, 33):
        c = rng.standard_normal((2, 2))
        gram = c @ c.T + 0.5 * np.eye(2)
        systems.append(wave1d.assemble(
            wave1d.random_coefficients(N, rng), boundary_gram=gram))
    return systems


class TestStructuredGates:
    """The CSR gates against their dense formulas."""

    def test_green_residual_matches_dense_on_exact_operators(self, rng):
        ops = [sys.op_A for sys in gate_systems(rng)]
        ops += [gate_systems(rng)[1].jet.target,
                lift_second_order(synthetic_two_block_pair(rng))]
        for op in ops:
            res = green_residual(op)
            assert res <= GREEN_TOL
            assert abs(res - dense_green_residual(op)) <= 1e-15

    def test_green_residual_matches_dense_on_corrupted_operators(self, rng):
        for sys in gate_systems(rng):
            op = sys.op_A
            corrupted = [
                dataclasses.replace(op, Gamma1=2.0 * op.Gamma1),
                dataclasses.replace(
                    op, Gamma0=op.Gamma0 + 1e-6 * rng.standard_normal(
                        op.Gamma0.shape)),
                dataclasses.replace(
                    op, L=op.L + 1e-9 * rng.standard_normal(op.L.shape)),
            ]
            for bad in corrupted:
                res = green_residual(bad)
                assert res > GREEN_TOL
                assert res == pytest.approx(dense_green_residual(bad),
                                            rel=1e-12)

    def test_corrupt_gamma1_suite_operator_fails_gate(self):
        from passivebc.scenario import build_system, load_scenario
        from passivebc.verify import run_suite
        from conftest import ROOT
        sc = load_scenario(ROOT / "scenarios" / "damped_sine.json")
        checks = {c.name: c for c in run_suite(sc, "green",
                                               corrupt_gamma1=True)}
        check = checks["green_identity"]
        assert not check.passed
        op = build_system(sc).op_A
        bad = dataclasses.replace(op, Gamma1=2.0 * op.Gamma1)
        assert check.residual == pytest.approx(dense_green_residual(bad),
                                               rel=1e-12)

    def test_dual_pair_residual_matches_dense(self, rng):
        pairs = [sys.dual_pair for sys in gate_systems(rng)]
        pairs.append(synthetic_two_block_pair(rng))
        for dp in pairs:
            res, _ = dense_dual_pair_defect(dp.A, dp.B_ext, dp.iota_Y,
                                            dp.Lambda1, dp.Pi1, dp.Lambda2,
                                            dp.Pi2)
            assert dp.residual <= GREEN_TOL
            assert abs(dp.residual - res) <= 1e-15

    def test_dual_pair_violation_matches_dense(self, rng):
        for dp in [sys.dual_pair for sys in gate_systems(rng)] + [
                synthetic_two_block_pair(rng)]:
            b_bad = LinearMap(dp.B_ext.matrix + 1e-8 * rng.standard_normal(
                dp.B_ext.matrix.shape), dp.B_ext.domain, dp.B_ext.codomain)
            pi1_bad = dp.Pi1 + 1e-4
            for b_ext, pi1 in ((b_bad, dp.Pi1), (dp.B_ext, pi1_bad)):
                res, worst = dense_dual_pair_defect(
                    dp.A, b_ext, dp.iota_Y, dp.Lambda1, pi1, dp.Lambda2,
                    dp.Pi2)
                with pytest.raises(GreenIdentityViolated) as info:
                    assemble_dual_pair(dp.A, b_ext, dp.iota_Y, dp.Lambda1,
                                       pi1, dp.G1, dp.Lambda2, dp.Pi2,
                                       dp.G2)
                assert info.value.residual == pytest.approx(res, rel=1e-12)
                assert info.value.worst_entry == pytest.approx(worst,
                                                               rel=1e-12)


def lift_recipe(dp):
    """The second-order lift as assembled on its own, before it shared a
    builder with the jet: (iota, L, Gamma0, Gamma1, core Gram, blocks,
    core label)."""
    nx = dp.A.domain.dim
    dim_y = dp.A.codomain.dim
    nb = dp.n_boundary_coords
    ext_dim = 2 * nx + nb
    m1 = dp.G1.dim
    m = m1 + (dp.G2.dim if dp.G2 is not None else 0)
    w_h = dp.A.matrix.T @ dp.A.codomain.gram @ dp.A.matrix
    w_z = scipy.linalg.block_diag(0.5 * (w_h + w_h.T), dp.A.domain.gram)
    iota = np.hstack([np.eye(2 * nx), np.zeros((2 * nx, nb))])
    lift_y = np.zeros((dim_y + nb, ext_dim))
    lift_y[:dim_y, :nx] = dp.A.matrix
    lift_y[dim_y:, 2 * nx:] = np.eye(nb)
    L = np.zeros((2 * nx, ext_dim))
    L[:nx, nx:2 * nx] = np.eye(nx)
    L[nx:, :] = dp.B_ext.matrix @ lift_y
    gamma0 = np.zeros((m, ext_dim))
    gamma1 = np.zeros((m, ext_dim))
    gamma0[:m1, nx:2 * nx] = dp.Lambda1
    gamma0[m1:, :] = dp.Pi2 @ lift_y
    gamma1[:m1, :] = -dp.Pi1 @ lift_y
    gamma1[m1:, nx:2 * nx] = dp.Lambda2
    label = f"{dp.A.domain.label}_h(+){dp.A.domain.label}"
    return iota, L, gamma0, gamma1, w_z, (nx, nx), label


def jet_recipe(dp):
    """The strain-momentum target as assembled on its own, same tuple."""
    nx = dp.A.domain.dim
    dim_y = dp.A.codomain.dim
    nb = dp.n_boundary_coords
    ext_dim = dim_y + nx + nb
    core_dim = dim_y + nx
    m1 = dp.G1.dim
    m = m1 + (dp.G2.dim if dp.G2 is not None else 0)
    w_core = scipy.linalg.block_diag(dp.A.codomain.gram, dp.A.domain.gram)
    iota = np.hstack([np.eye(core_dim), np.zeros((core_dim, nb))])
    select_y = np.zeros((dim_y + nb, ext_dim))
    select_y[:dim_y, :dim_y] = np.eye(dim_y)
    select_y[dim_y:, core_dim:] = np.eye(nb)
    L = np.zeros((core_dim, ext_dim))
    L[:dim_y, dim_y:core_dim] = dp.A.matrix
    L[dim_y:, :] = dp.B_ext.matrix @ select_y
    xi0 = np.zeros((m, ext_dim))
    xi1 = np.zeros((m, ext_dim))
    xi0[:m1, dim_y:core_dim] = dp.Lambda1
    xi0[m1:, :] = dp.Pi2 @ select_y
    xi1[:m1, :] = -dp.Pi1 @ select_y
    xi1[m1:, dim_y:core_dim] = dp.Lambda2
    label = f"{dp.A.codomain.label}(+){dp.A.domain.label}"
    return iota, L, xi0, xi1, w_core, (dim_y, nx), label


def assert_realizes(op, recipe):
    iota, L, g0, g1, gram, blocks, label = recipe
    for got, want in ((op.iota, iota), (op.L, L), (op.Gamma0, g0),
                      (op.Gamma1, g1), (op.core.gram, gram)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert op.core_blocks == blocks
    assert op.core.label == label
    assert op.ext_dim == L.shape[1]


class TestSharedRealization:
    """The lift and the jet target share one builder; it reproduces the
    two recipes they were assembled with separately, bit for bit."""

    @pytest.mark.parametrize("N", [1, 3, 16, 64])
    def test_wave_systems(self, rng, N):
        sys = random_wave_system(N, rng)
        assert_realizes(lift_second_order(sys.dual_pair),
                        lift_recipe(sys.dual_pair))
        assert_realizes(build_jet(sys.op_A).target,
                        jet_recipe(sys.dual_pair))

    def test_two_block_pair(self, rng):
        dp = synthetic_two_block_pair(rng)
        op = lift_second_order(dp)
        assert_realizes(op, lift_recipe(dp))
        jt = build_jet(op)
        assert_realizes(jt.target, jet_recipe(dp))
        assert green_residual(jt.target) <= 1e-12
        inj = state_injection(jt)
        assert np.abs(jt.target.Gamma0 @ inj - op.Gamma0).max() <= 1e-12
        assert np.abs(jt.target.Gamma1 @ inj - op.Gamma1).max() <= 1e-12


class TestMinimalDomain:
    def test_wave_dimension(self):
        op = wave_system(4).op_A
        v = minimal_domain(op)
        assert v.shape[1] == 8  # ext 12 minus 2 m = 4

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_rank_nullity(self, N):
        op = wave_system(N).op_A
        assert minimal_domain(op).shape[1] + 2 * op.n_boundary == op.ext_dim

    def test_kernel_property(self):
        op = wave_system(8).op_A
        v = minimal_domain(op)
        assert np.abs(op.Gamma0 @ v).max() + np.abs(op.Gamma1 @ v).max() \
            <= 1e-12

    def test_zero_traces_full_space(self):
        op = wave_system(4).op_A
        import dataclasses
        free = dataclasses.replace(op, Gamma0=np.zeros_like(op.Gamma0),
                                   Gamma1=np.zeros_like(op.Gamma1))
        assert minimal_domain(free).shape[1] == op.ext_dim

    def test_empty_boundary_block_full_space(self):
        core = euclidean_space(2, "Z")
        op = BoundaryOperator(core=core, ext_dim=2, iota=np.eye(2),
                              L=np.zeros((2, 2)),
                              Gamma0=np.zeros((0, 2)),
                              Gamma1=np.zeros((0, 2)),
                              bspace=euclidean_space(0, "G"),
                              core_blocks=(1, 1))
        assert minimal_domain(op).shape[1] == 2
        assert green_residual(op) == 0.0
        assert skew_on_minimal(op) == 0.0


class TestSkewOnMinimal:
    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_undamped_is_skew(self, N):
        assert skew_on_minimal(wave_system(N).op_A) <= 1e-12

    def test_undamped_random_fields(self, rng):
        sys = random_wave_system(8, rng, b_max=0.0)
        assert skew_on_minimal(sys.op_A) <= 1e-12

    def test_damping_folded_in_gives_negative_modes(self):
        sys = wave_system(8, b=0.5)
        op = sys.op_A
        nx = 9
        folded = op.L.copy()
        folded[nx:, :] -= sys.D_map.matrix @ op.iota[nx:, :]
        defect = skew_on_minimal(op, L=folded)
        assert defect > 1e-3
        v = minimal_domain(op)
        sym = v.T @ op.iota.T @ op.core.gram @ folded @ v
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert eigs[0] < -1e-8          # strictly negative modes present
        assert eigs[-1] <= 1e-12        # and none positive

    def test_eigenvalues_within_roundoff(self):
        op = wave_system(8).op_A
        v = minimal_domain(op)
        sym = v.T @ op.iota.T @ op.core.gram @ op.L @ v
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert np.abs(eigs).max() <= 1e-12


def test_extend_adjoint_recovers_negative_adjoint_inside():
    # away from the boundary block, B_ext acts as -W_X^{-1} A^T W_Y
    sys = wave_system(4)
    dp = sys.dual_pair
    astar = np.linalg.solve(sys.X.gram, sys.A_map.matrix.T @ sys.Y.gram)
    assert np.allclose(dp.B_ext.matrix[:, :9], -astar, atol=1e-13)


def test_lift_preserves_exactness_scaling(rng):
    # residual of the lift stays at the dual-pair level for random fields
    for _ in range(5):
        sys = random_wave_system(12, rng)
        assert green_residual(sys.op_A) <= 4.0 * max(
            sys.dual_pair.residual, 1e-12)
