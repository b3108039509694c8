import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from passivebc import wave1d
from passivebc.errors import (
    GreenIdentityViolated,
    NonFiniteValue,
    ShapeMismatch,
    TraceNotSurjective,
)
from passivebc.hilbert import (
    LinearMap,
    direct_sum,
    euclidean_space,
    make_space,
)
from passivebc.triplet import (
    GREEN_TOL,
    BoundaryOperator,
    assemble_dual_pair,
    extend_adjoint,
    green_residual,
    lift_second_order,
    minimal_domain,
    skew_on_minimal,
    strain_momentum,
)

from conftest import iota, random_wave_system, wave_system

import dense_gram_oracle as oracle


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
    return assemble_dual_pair(A, B_ext, lam1, pi1, G1, lam2, pi2, G2)


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
                   - float(yt[:dp.A.codomain.dim] @ wy @ (dp.A(x))))
            rhs = float((dp.Pi1 @ yt) @ (dp.Lambda1 @ x))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_perturbed_trace_rejected_linearly(self):
        sys = wave_system(4)
        dp = sys.dual_pair
        residuals = {}
        for eps in (1e-3, 1e-6):
            with pytest.raises(GreenIdentityViolated) as info:
                assemble_dual_pair(dp.A, dp.B_ext, dp.Lambda1, dp.Pi1 + eps,
                                   dp.G1)
            residuals[eps] = info.value.residual
        assert residuals[1e-3] == pytest.approx(1e3 * residuals[1e-6],
                                                rel=1e-6)

    def test_trivial_pair_empty_boundary(self):
        X = euclidean_space(2, "X")
        Y = euclidean_space(3, "Y")
        A = LinearMap(np.zeros((3, 2)), X, Y)
        B = LinearMap(np.zeros((2, 3)), Y, X)
        G0 = euclidean_space(0, "G1")
        dp = assemble_dual_pair(A, B, np.zeros((0, 2)), np.zeros((0, 3)),
                                G0)
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
            assemble_dual_pair(A, B_ext, lam1, pi1, euclidean_space(2, "G1"))


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
            lhs = float((iota(op) @ f) @ w @ (op.L.toarray() @ g)) \
                + float((op.L.toarray() @ f) @ w @ (iota(op) @ g))
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
    wl = op.core.gram @ op.L.toarray()
    defect = (iota(op).T @ wl + wl.T @ iota(op)
              - op.Gamma1.T @ op.Gamma0 - op.Gamma0.T @ op.Gamma1)
    return np.linalg.norm(defect) / (1.0 + np.linalg.norm(wl))


def dense_dual_pair_defect(A, B_ext, lam1, pi1, lam2, pi2):
    """(residual, worst entry) of the dual-pair defect, in dense algebra,
    with the dense coordinate projection iota_Y = [I | 0]."""
    iota_Y = np.eye(A.codomain.dim, B_ext.domain.dim)
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
        ops += [gate_systems(rng)[1].op_strain,
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
                    op, L=op.L.toarray()
                    + 1e-9 * rng.standard_normal(op.L.shape)),
            ]
            for bad in corrupted:
                res = green_residual(bad)
                assert res > GREEN_TOL
                assert res == pytest.approx(dense_green_residual(bad),
                                            rel=1e-12)

    def test_corrupt_gamma1_suite_operator_fails_gate(self, monkeypatch):
        from passivebc.scenario import build_system, load_scenario
        from passivebc.verify import run_suite
        from conftest import ROOT, double_gamma1
        sc = load_scenario(ROOT / "scenarios" / "damped_sine.json")
        double_gamma1(monkeypatch)
        checks = {c.name: c for c in run_suite(sc, "green")}
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
            res, _ = dense_dual_pair_defect(dp.A, dp.B_ext, dp.Lambda1,
                                            dp.Pi1, dp.Lambda2, dp.Pi2)
            assert dp.residual <= GREEN_TOL
            assert abs(dp.residual - res) <= 1e-15

    def test_dual_pair_violation_matches_dense(self, rng):
        for dp in [sys.dual_pair for sys in gate_systems(rng)] + [
                synthetic_two_block_pair(rng)]:
            b_bad = LinearMap(dp.B_ext.matrix.toarray()
                              + 1e-8 * rng.standard_normal(
                                  dp.B_ext.matrix.shape),
                              dp.B_ext.domain, dp.B_ext.codomain)
            pi1_bad = dp.Pi1 + 1e-4
            for b_ext, pi1 in ((b_bad, dp.Pi1), (dp.B_ext, pi1_bad)):
                res, worst = dense_dual_pair_defect(
                    dp.A, b_ext, dp.Lambda1, pi1, dp.Lambda2, dp.Pi2)
                with pytest.raises(GreenIdentityViolated) as info:
                    assemble_dual_pair(dp.A, b_ext, dp.Lambda1, pi1, dp.G1,
                                       dp.Lambda2, dp.Pi2, dp.G2)
                assert info.value.residual == pytest.approx(res, rel=1e-12)
                assert info.value.worst_entry == pytest.approx(worst,
                                                               rel=1e-12)


def lift_recipe(dp):
    """The second-order lift as assembled on its own, before it shared a
    builder with the jet: (iota, L, Gamma0, Gamma1, core Gram, blocks,
    core label)."""
    nx = dp.A.domain.dim
    nb = dp.n_boundary_coords
    ext_dim = 2 * nx + nb
    m1 = dp.G1.dim
    m = m1 + (dp.G2.dim if dp.G2 is not None else 0)
    # X_h is the factor map's normal Gram, which test_normal_gram holds to
    # the dense A^T W_Y A; `_realize` must carry its bytes into the core
    a = dp.A.matrix.toarray()
    w_z = scipy.linalg.block_diag(dp.A.normal_gram.toarray(),
                                  dp.A.domain.gram)
    iota = np.hstack([np.eye(2 * nx), np.zeros((2 * nx, nb))])
    L = oracle.realized_action(dp, a, np.eye(nx))
    gamma0 = np.zeros((m, ext_dim))
    gamma1 = np.zeros((m, ext_dim))
    gamma0[:m1, nx:2 * nx] = dp.Lambda1
    gamma0[m1:, :] = oracle.selected(dp.Pi2, a, 2 * nx, ext_dim)
    gamma1[:m1, :] = oracle.selected(-dp.Pi1, a, 2 * nx, ext_dim)
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
    eye_y = np.eye(dim_y)
    L = oracle.realized_action(dp, eye_y, dp.A.matrix.toarray())
    xi0 = np.zeros((m, ext_dim))
    xi1 = np.zeros((m, ext_dim))
    xi0[:m1, dim_y:core_dim] = dp.Lambda1
    xi0[m1:, :] = oracle.selected(dp.Pi2, eye_y, core_dim, ext_dim)
    xi1[:m1, :] = oracle.selected(-dp.Pi1, eye_y, core_dim, ext_dim)
    xi1[m1:, dim_y:core_dim] = dp.Lambda2
    label = f"{dp.A.codomain.label}(+){dp.A.domain.label}"
    return iota, L, xi0, xi1, w_core, (dim_y, nx), label


def assert_realizes(op, recipe):
    """``op`` holds the recipe's arrays, every nonzero bit of them."""
    proj, L, g0, g1, gram, blocks, label = recipe
    for got, want in ((iota(op), proj), (op.L.toarray(), L), (op.Gamma0, g0),
                      (op.Gamma1, g1), (op.core.gram, gram)):
        assert oracle.same_canonical_bytes(got, want)
    assert op.core_blocks == blocks
    assert op.core.label == label
    assert op.ext_dim == L.shape[1]


class TestSharedRealization:
    """The lift and the jet target share one builder; it reproduces the
    two recipes they were assembled with separately, every nonzero bit."""

    @pytest.mark.parametrize("N", [1, 3, 9, 16, 64])
    def test_wave_systems(self, N):
        sys = random_wave_system(N, np.random.default_rng(0))
        assert_realizes(lift_second_order(sys.dual_pair),
                        lift_recipe(sys.dual_pair))
        assert_realizes(strain_momentum(sys.dual_pair),
                        jet_recipe(sys.dual_pair))

    def test_two_block_pair(self, rng):
        dp = synthetic_two_block_pair(rng)
        op = lift_second_order(dp)
        assert_realizes(op, lift_recipe(dp))
        target = strain_momentum(dp)
        assert_realizes(target, jet_recipe(dp))
        assert green_residual(target) <= 1e-12
        inj = scipy.linalg.block_diag(dp.A.matrix.toarray(),
                                      np.eye(dp.A.domain.dim),
                                      np.eye(dp.n_boundary_coords))
        assert np.abs(target.Gamma0 @ inj - op.Gamma0).max() <= 1e-12
        assert np.abs(target.Gamma1 @ inj - op.Gamma1).max() <= 1e-12


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
        core = direct_sum("Z", euclidean_space(1, "Z1"),
                          euclidean_space(1, "Z2"))
        op = BoundaryOperator(core=core, L=np.zeros((2, 2)),
                              Gamma0=np.zeros((0, 2)),
                              Gamma1=np.zeros((0, 2)),
                              bspace=euclidean_space(0, "G"))
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
        folded = op.L.toarray()
        folded[nx:, :] -= sys.D_map.matrix @ iota(op)[nx:, :]
        defect = skew_on_minimal(op, L=folded)
        assert defect > 1e-3
        v = minimal_domain(op)
        sym = v.T @ iota(op).T @ op.core.gram @ folded @ v
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert eigs[0] < -1e-8          # strictly negative modes present
        assert eigs[-1] <= 1e-12        # and none positive

    def test_eigenvalues_within_roundoff(self):
        op = wave_system(8).op_A
        v = minimal_domain(op)
        sym = v.T @ iota(op).T @ op.core.gram @ op.L.toarray() @ v
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        assert np.abs(eigs).max() <= 1e-12


def test_extend_adjoint_recovers_negative_adjoint_inside():
    # away from the boundary block, B_ext acts as -W_X^{-1} A^T W_Y
    sys = wave_system(4)
    dp = sys.dual_pair
    astar = np.linalg.solve(sys.X.gram, sys.A_map.matrix.T @ sys.Y.gram)
    assert np.allclose(dp.B_ext.matrix[:, :9].toarray(), -astar, atol=1e-13)


def test_lift_preserves_exactness_scaling(rng):
    # residual of the lift stays at the dual-pair level for random fields
    for _ in range(5):
        sys = random_wave_system(12, rng)
        assert green_residual(sys.op_A) <= 4.0 * max(
            sys.dual_pair.residual, 1e-12)


DUAL_PAIR_ARRAYS = ("A", "B_ext", "Lambda1", "Pi1", "Lambda2", "Pi2")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", DUAL_PAIR_ARRAYS)
def test_dual_pair_refuses_non_finite_arrays_by_name(name, bad, rng):
    dp = synthetic_two_block_pair(rng)
    arrays = {n: getattr(dp, n) for n in DUAL_PAIR_ARRAYS}
    if name in ("A", "B_ext"):
        f = arrays[name]
        m = f.matrix.toarray()
        m[0, -1] = bad
        arrays[name] = LinearMap(m, f.domain, f.codomain)
    else:
        arrays[name] = np.array(arrays[name])
        arrays[name][-1, 0] = bad
    with pytest.raises(NonFiniteValue, match=f"^{name} holds"):
        assemble_dual_pair(arrays["A"], arrays["B_ext"], arrays["Lambda1"],
                           arrays["Pi1"], dp.G1, arrays["Lambda2"],
                           arrays["Pi2"], dp.G2)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["A", "B_ext"]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       form=st.sampled_from(["dense", "csr", "coo"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_non_finite_map_entry_is_named_dense_or_sparse(name, bad, form,
                                                         seed):
    # a map holds the entry in its CSR, whatever form it was given in
    rng = np.random.default_rng(seed)
    dp = synthetic_two_block_pair(rng)
    maps = {"A": dp.A, "B_ext": dp.B_ext}
    f = maps[name]
    m = f.matrix.toarray()
    m[rng.integers(m.shape[0]), rng.integers(m.shape[1])] = bad
    maps[name] = LinearMap(m if form == "dense" else
                           scipy.sparse.csr_array(m).asformat(form),
                           f.domain, f.codomain)
    with pytest.raises(NonFiniteValue, match=f"^{name} holds"):
        assemble_dual_pair(maps["A"], maps["B_ext"], dp.Lambda1, dp.Pi1,
                           dp.G1, dp.Lambda2, dp.Pi2, dp.G2)


def test_green_gates_fail_closed_on_a_nan_residual():
    # Grams and a factor map of 1e200 overflow the products W_Y A: the
    # defect and its scale hold inf, the residual inf / inf = NaN, which
    # "> GREEN_TOL" let through
    dp = wave_system(4).dual_pair
    huge = LinearMap(1e200 * dp.A.matrix,
                     *(make_space(s.dim, 1e200 * s.gram_csr, s.label)
                       for s in (dp.A.domain, dp.A.codomain)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GreenIdentityViolated, match="dual pair: "
                           "residual nan"):
            assemble_dual_pair(huge, dp.B_ext, dp.Lambda1, dp.Pi1, dp.G1)
        with pytest.raises(GreenIdentityViolated, match="jet target: "
                           "residual nan"):
            strain_momentum(dataclasses.replace(dp, A=huge))


def test_green_gate_norms_do_not_overflow():
    # entries near 1e154 square past the float range; summed as squares
    # the defect and its scale read inf and the residual inf / inf = NaN
    dp = wave_system(4, T=1e308, a=1e308).dual_pair
    scaled = LinearMap(1.5 * dp.B_ext.matrix, dp.B_ext.domain,
                       dp.B_ext.codomain)
    with pytest.raises(GreenIdentityViolated, match="dual pair: "
                       "residual 5.000e-01,") as info:
        assemble_dual_pair(dp.A, scaled, dp.Lambda1, dp.Pi1, dp.G1)
    assert info.value.residual == pytest.approx(0.5, rel=1e-12)
    assert assemble_dual_pair(dp.A, dp.B_ext, dp.Lambda1, dp.Pi1,
                              dp.G1).residual <= 1e-12


def test_jet_target_gate_refuses_a_nan_factor_map():
    dp = wave_system(4).dual_pair
    a = dp.A.matrix.toarray()
    a[0, 0] = np.nan
    nan_map = LinearMap(a, dp.A.domain, dp.A.codomain)
    with pytest.raises(GreenIdentityViolated, match="jet target"):
        strain_momentum(dataclasses.replace(dp, A=nan_map))


@pytest.mark.parametrize("realize", [lift_second_order, strain_momentum])
@pytest.mark.parametrize("name", ["Lambda1", "Pi1"])
def test_a_pair_refuses_a_non_finite_trace_where_it_is_made(realize, name):
    # a pair made by replace is checked as one made by assemble_dual_pair;
    # a NaN trace used to reach _realize's rank test as a bare LinAlgError
    dp = wave_system(4).dual_pair
    bad = np.array(getattr(dp, name))
    bad[0, -1] = np.nan
    with pytest.raises(NonFiniteValue, match=f"^{name} holds"):
        realize(dataclasses.replace(dp, **{name: bad}))


@pytest.mark.parametrize("name", ["Lambda2", "Pi2"])
def test_a_two_block_pair_refuses_a_non_finite_second_trace(name, rng):
    dp = synthetic_two_block_pair(rng)
    bad = np.array(getattr(dp, name))
    bad[-1, 0] = np.inf
    with pytest.raises(NonFiniteValue, match=f"^{name} holds"):
        dataclasses.replace(dp, **{name: bad})


def test_skew_on_minimal_refuses_an_action_of_the_wrong_shape():
    op = wave_system(4).op_A
    with pytest.raises(ShapeMismatch, match="action L"):
        skew_on_minimal(op, op.L.toarray()[:, :-1])
