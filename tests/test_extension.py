import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from passivebc.errors import IllPosedRestriction, SingularCoreProjection
from passivebc.extension import (
    CONDITION_LIMIT,
    constraint_matrix,
    dissipativity_residual,
    generator_from_contraction,
)
from passivebc.hilbert import contraction_norm, euclidean_space, make_space
from passivebc.node import (
    external_cayley,
    impedance_node,
    internal_wellposedness,
    scattering_node,
)
from passivebc.triplet import NULLSPACE_RCOND, BoundaryOperator, green_residual
from passivebc.verify import _kernel_gap

from conftest import random_wave_system, wave_system


def random_contraction(rng, m, bspace, target=None):
    raw = rng.standard_normal((m, m))
    nrm = contraction_norm(raw, bspace)
    scale = rng.uniform(0.05, 1.0) if target is None else target
    return raw * (scale / nrm)


class TestConstraintMatrix:
    def test_neumann_substitution(self):
        op = wave_system(4).op_A
        assert np.allclose(constraint_matrix(op, np.eye(2)),
                           -2.0 * op.Gamma1, atol=1e-14)

    def test_dirichlet_substitution(self):
        op = wave_system(4).op_A
        assert np.allclose(constraint_matrix(op, -np.eye(2)),
                           -2.0 * op.bspace.gram @ op.Gamma0, atol=1e-14)

    def test_zero_substitution(self):
        op = wave_system(4).op_A
        expected = -op.bspace.gram @ op.Gamma0 - op.Gamma1
        assert np.allclose(constraint_matrix(op, np.zeros((2, 2))),
                           expected, atol=1e-14)


class TestGeneratorFromContraction:
    def test_spectrum_in_left_half_plane(self):
        op = wave_system(2).op_A
        g = generator_from_contraction(op, np.zeros((2, 2)))
        eigs = np.linalg.eigvals(g.A_main)
        assert eigs.real.max() <= 1e-12

    def test_neumann_is_skew_without_damping(self):
        op = wave_system(6).op_A
        g = generator_from_contraction(op, np.eye(2))
        wa = op.core.gram @ g.A_main
        assert np.linalg.norm(0.5 * (wa + wa.T)) <= 1e-10

    def test_expansion_is_not_dissipative(self):
        op = wave_system(4).op_A
        g = generator_from_contraction(op, 1.5 * np.eye(2))
        assert dissipativity_residual(g) > 1e-8

    def test_random_contractions_dissipative(self, rng):
        op = wave_system(8).op_A
        for _ in range(50):
            p = random_contraction(rng, 2, op.bspace)
            g = generator_from_contraction(op, p)
            assert dissipativity_residual(g) <= 1e-10

    def test_random_expansions_detected(self, rng):
        op = wave_system(8).op_A
        for _ in range(20):
            p = random_contraction(rng, 2, op.bspace,
                                   target=1.1 + rng.uniform(0.0, 0.9))
            g = generator_from_contraction(op, p)
            assert dissipativity_residual(g) > 1e-12

    def test_damped_system_strictly_negative_modes(self, rng):
        sys = wave_system(6, b=0.5)
        op = sys.op_A
        # fold the damping into the action the way nodes do
        import dataclasses
        folded = op.L.copy()
        folded[7:, :] -= sys.D_map.matrix @ op.iota[7:, :]
        damped = dataclasses.replace(op, L=folded)
        for _ in range(5):
            p = random_contraction(rng, 2, op.bspace)
            g = generator_from_contraction(damped, p)
            assert dissipativity_residual(g) <= 1e-10
            wa = op.core.gram @ g.A_main
            eigs = np.linalg.eigvalsh(0.5 * (wa + wa.T))
            assert eigs[0] < -1e-8

    def test_realization_invariants(self, rng):
        op = wave_system(6).op_A
        p = random_contraction(rng, 2, op.bspace)
        g = generator_from_contraction(op, p)
        # constraint rows vanish on the stored domain basis
        c = constraint_matrix(op, p)
        assert np.abs(c @ g.domain_basis).max() <= 1e-12
        # core projection is square, invertible, with reported condition
        proj = op.iota @ g.domain_basis
        assert proj.shape == (op.core.dim, op.core.dim)
        assert np.isfinite(g.condition) and g.condition >= 1.0
        assert g.P.is_contraction

    def test_rebasing_invariance(self, rng):
        op = wave_system(6).op_A
        p = random_contraction(rng, 2, op.bspace)
        c = constraint_matrix(op, p)
        g = generator_from_contraction(op, p)
        # an alternative kernel basis: mix the null_space columns
        basis = scipy.linalg.null_space(c, rcond=1e-10)
        mix = rng.standard_normal((basis.shape[1], basis.shape[1]))
        mix += 3.0 * np.eye(basis.shape[1])
        alt = basis @ mix
        a_alt = np.linalg.solve((op.iota @ alt).T, (op.L @ alt).T).T
        scale = 1.0 + np.linalg.norm(g.A_main)
        assert np.abs(a_alt - g.A_main).max() <= 1e-12 * scale


class TestDomains:
    def test_neumann_domain_is_ker_gamma1(self):
        op = wave_system(6).op_A
        dom = generator_from_contraction(op, np.eye(2)).domain_basis
        ker = scipy.linalg.null_space(op.Gamma1, rcond=1e-10)
        angles = scipy.linalg.subspace_angles(dom, ker)
        assert angles.max() <= 1e-10

    def test_dirichlet_domain_is_ker_gamma0(self):
        op = wave_system(6).op_A
        c = constraint_matrix(op, -np.eye(2))
        dom = scipy.linalg.null_space(c, rcond=1e-10)
        ker = scipy.linalg.null_space(op.Gamma0, rcond=1e-10)
        angles = scipy.linalg.subspace_angles(dom, ker)
        assert angles.max() <= 1e-10

    def test_dirichlet_core_projection_singular(self):
        # pure boundary coordinates lie in ker Gamma0, so iota cannot be
        # inverted on the Dirichlet domain: the index-2 case is refused
        op = wave_system(4).op_A
        with pytest.raises(SingularCoreProjection):
            generator_from_contraction(op, -np.eye(2))

    def test_mixed_dirichlet_side_singular(self):
        op = wave_system(4).op_A
        with pytest.raises(SingularCoreProjection):
            generator_from_contraction(op, np.diag([1.0, -1.0]))


def test_ill_posed_restriction_detected():
    # a degenerate operator whose constraint vanishes identically
    core = euclidean_space(2, "Z")
    bspace = make_space(1, [[2.0]], "G")
    gamma = np.array([[1.0, 0.0, 0.0]])
    op = BoundaryOperator(core=core, ext_dim=3,
                          iota=np.eye(2, 3), L=np.zeros((2, 3)),
                          Gamma0=gamma, Gamma1=gamma, bspace=bspace,
                          core_blocks=(1, 1))
    # (P-1) W_G Gamma0 - (P+1) Gamma1 = 0 for P = 3, W_G = 2
    assert np.allclose(constraint_matrix(op, [[3.0]]), 0.0)
    with pytest.raises(IllPosedRestriction):
        generator_from_contraction(op, [[3.0]])


def svd_realization(c, action, iota):
    """The SVD null-space realization the closed form replaced (oracle).

    Returns ``(A_main, condition)`` with ``A_main = (L N)(iota N)^{-1}``
    for an orthonormal basis N of ker c.
    """
    basis = scipy.linalg.null_space(c, rcond=NULLSPACE_RCOND)
    if basis.shape[1] != iota.shape[0]:
        raise IllPosedRestriction("oracle: kernel dimension")
    core_proj = iota @ basis
    sigma = np.linalg.svd(core_proj, compute_uv=False)
    if sigma[-1] == 0.0 or sigma[0] / sigma[-1] > CONDITION_LIMIT:
        raise SingularCoreProjection("oracle: core projection")
    a_main = np.linalg.solve(core_proj.T, (action @ basis).T).T
    return a_main, sigma[0] / sigma[-1]


def oracle_outcome(c, action, iota):
    try:
        return svd_realization(c, action, iota)
    except (IllPosedRestriction, SingularCoreProjection) as exc:
        return type(exc)


def folded_damping(sys, op=None):
    """The maximal operator (default ``sys.op_A``) with the damping folded
    into its action."""
    op = sys.op_A if op is None else op
    nx = op.core_blocks[0]
    folded = op.L.copy()
    folded[nx:, :] -= sys.D_map.matrix @ op.iota[nx:, :]
    return dataclasses.replace(op, L=folded)


def assert_same_generator(a_main, condition, oracle):
    a_ref, cond_ref = oracle
    assert np.abs(a_main - a_ref).max() <= 1e-12 * (
        1.0 + np.linalg.norm(a_ref))
    assert abs(condition - cond_ref) <= 1e-10 * cond_ref


SYSTEMS = dict(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1),
               damped=st.booleans())


class TestClosedFormRealization:
    """The closed-form kernel realizes what the SVD null space did."""

    @settings(max_examples=40, deadline=None)
    @given(norm=st.floats(0.05, 2.0), **SYSTEMS)
    def test_generator_matches_svd_oracle(self, n, seed, damped, norm):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=0.5 if damped else 0.0)
        op = folded_damping(sys) if damped else sys.op_A
        p = random_contraction(rng, 2, op.bspace, target=norm)
        oracle = oracle_outcome(constraint_matrix(op, p), op.L, op.iota)
        if isinstance(oracle, type):
            with pytest.raises(oracle):
                generator_from_contraction(op, p)
            return
        g = generator_from_contraction(op, p)
        assert_same_generator(g.A_main, g.condition, oracle)
        assert np.abs(op.iota @ g.domain_basis
                      - np.eye(op.core.dim)).max() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(norm=st.floats(0.0, 1.0), beta=st.floats(0.1, 10.0),
           flavor=st.sampled_from(["scattering", "impedance"]),
           cayley=st.booleans(), **SYSTEMS)
    def test_node_generator_matches_svd_oracle(self, n, seed, damped, norm,
                                               beta, flavor, cayley):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=0.5 if damped else 0.0)
        builder = scattering_node if flavor == "scattering" \
            else impedance_node
        p = random_contraction(rng, 2, sys.op_A.bspace, target=norm)
        nd = builder(sys.op_A, p, sys.M_map, sys.D_map)
        if cayley:
            nd = external_cayley(nd, beta)
        oracle = oracle_outcome(nd.G_map, nd.L_eff, nd.op.iota)
        if isinstance(oracle, type):
            with pytest.raises(oracle):
                internal_wellposedness(nd)
            return
        ok, gen = internal_wellposedness(nd)
        a_ref, _ = oracle
        assert np.abs(gen - a_ref).max() <= 1e-12 * (
            1.0 + np.linalg.norm(a_ref))
        wa = nd.state_space.gram @ a_ref
        assert ok is bool(np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1] <= 1e-10)

    @pytest.mark.parametrize("case", [
        "dirichlet", "mixed_dirichlet_side", "vanishing_constraint",
        "no_boundary_coordinates", "no_boundary_coordinates_no_traces",
        "no_traces", "ill_conditioned_boundary_block",
        "near_singular_boundary_block", "negligible_constraint_row"])
    def test_degenerate_cases_raise_what_the_oracle_raises(self, case):
        op, p, expected = degenerate_case(case)
        oracle = oracle_outcome(constraint_matrix(op, p), op.L, op.iota)
        if expected is None:
            g = generator_from_contraction(op, p)
            assert_same_generator(g.A_main, g.condition, oracle)
        else:
            assert oracle is expected
            with pytest.raises(expected):
                generator_from_contraction(op, p)

    def test_dirichlet_node_raises_what_the_oracle_raises(self):
        sys = wave_system(6, b=0.3)
        nd = impedance_node(sys.op_A, -np.eye(2), sys.M_map, sys.D_map)
        assert oracle_outcome(nd.G_map, nd.L_eff, nd.op.iota) \
            is SingularCoreProjection
        with pytest.raises(SingularCoreProjection):
            internal_wellposedness(nd)
        assert nd.internally_wellposed is False

    def test_no_null_space_and_no_large_svd(self, monkeypatch, rng):
        sys = wave_system(24, b=0.3)
        op = sys.op_A
        shapes = []

        def record(svd):
            def recorded(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return svd(a, *args, **kwargs)
            return recorded

        def refused(*args, **kwargs):
            raise AssertionError("null_space called")
        monkeypatch.setattr(scipy.linalg, "null_space", refused)
        monkeypatch.setattr(np.linalg, "svd", record(np.linalg.svd))
        monkeypatch.setattr(scipy.linalg, "svd", record(scipy.linalg.svd))

        p = random_contraction(rng, 2, op.bspace)
        generator_from_contraction(op, p)
        nd = scattering_node(op, p, sys.M_map, sys.D_map)
        assert nd.internally_wellposed
        assert shapes and max(min(s) for s in shapes) <= op.n_boundary


def small_op(gamma0, gamma1, ext_dim=3):
    """Two core coordinates, ``ext_dim - 2`` boundary ones, given traces."""
    gamma0 = np.asarray(gamma0, dtype=float).reshape(-1, ext_dim)
    action = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.25]])[:, :ext_dim]
    return BoundaryOperator(
        core=euclidean_space(2, "Z"), ext_dim=ext_dim,
        iota=np.eye(2, ext_dim), L=action, Gamma0=gamma0,
        Gamma1=np.asarray(gamma1, dtype=float).reshape(-1, ext_dim),
        bspace=euclidean_space(len(gamma0), "G"), core_blocks=(1, 1))


def degenerate_case(name):
    """``(operator, P, expected error or None)`` for a degenerate case."""
    none = np.zeros((0, 0))
    return {
        "dirichlet": (wave_system(4).op_A, -np.eye(2),
                      SingularCoreProjection),
        "mixed_dirichlet_side": (wave_system(4).op_A, np.diag([1.0, -1.0]),
                                 SingularCoreProjection),
        # (P - 1) W_G Gamma0 - (P + 1) Gamma1 = 0 for P = 3, W_G = 2
        "vanishing_constraint": (dataclasses.replace(
            small_op([1, 0, 0], [1, 0, 0]), bspace=make_space(
                1, [[2.0]], "G")), [[3.0]], IllPosedRestriction),
        "no_traces": (small_op([], []), none, IllPosedRestriction),
        "no_boundary_coordinates": (small_op([1, 0], [0, 1], ext_dim=2),
                                    [[0.5]], IllPosedRestriction),
        "no_boundary_coordinates_no_traces": (small_op([], [], ext_dim=2),
                                              none, None),
        # C = -[1, 0, eps]: the core projection has condition 1/eps
        "ill_conditioned_boundary_block": (
            small_op([1, 0, 0], [0, 0, 1e-8]), [[0.0]], None),
        "near_singular_boundary_block": (
            small_op([1, 0, 0], [0, 0, 1e-14]), [[0.0]],
            SingularCoreProjection),
        # the second constraint row lies below NULLSPACE_RCOND, so the
        # kernel is span{e2, e3}, on which the core projection is singular
        "negligible_constraint_row": (
            small_op([[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1e-12]]),
            np.zeros((2, 2)), SingularCoreProjection),
    }[name]


def dense_residual(op, g):
    """Largest eigenvalue of the dense sym(W_Z A_main) (oracle)."""
    wa = op.core.gram @ g.A_main
    return np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1]


def trace_allowance(op, g):
    """The docstring's Weyl bound on |trace form - dense spectrum|, plus
    one unit roundoff of the same scale for forming and solving either
    side (exact arithmetic is what the bound covers)."""
    x = g.domain_basis[op.core.dim:]
    scale = (1.0 + np.linalg.norm(x, 2) ** 2) * (
        1.0 + np.linalg.norm(op.core.gram @ op.L))
    return 0.5 * scale * green_residual(op) + np.finfo(float).eps * scale


def realized(op, p):
    try:
        return generator_from_contraction(op, p)
    except (IllPosedRestriction, SingularCoreProjection):
        assume(False)


TRACE_CASES = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
                   norm=st.floats(0.05, 2.0), jet=st.booleans())


class TestTraceDissipativity:
    """``dissipativity_residual`` reads the dense spectrum from the traces."""

    # N = 1: the lift's core has dimension 2m, so no zero eigenvalue is
    # implied and the trace form is not clamped
    @example(n=1, seed=1, norm=0.5, jet=False)
    @settings(max_examples=60, deadline=None)
    @given(**TRACE_CASES)
    def test_matches_dense_spectrum_within_bound(self, n, seed, norm, jet):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng)
        op = sys.jet.target if jet else sys.op_A
        g = realized(op, random_contraction(rng, 2, op.bspace, target=norm))
        assert abs(dissipativity_residual(g) - dense_residual(op, g)) \
            <= trace_allowance(op, g)

    @settings(max_examples=40, deadline=None)
    @given(**TRACE_CASES)
    def test_folded_damping_bounded_by_trace_form(self, n, seed, norm, jet):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=1.0)
        op = folded_damping(sys, sys.jet.target if jet else sys.op_A)
        g = realized(op, random_contraction(rng, 2, op.bspace, target=norm))
        assert dense_residual(op, g) \
            <= dissipativity_residual(g) + trace_allowance(op, g)


class TestKernelGap:
    """``verify._kernel_gap`` against ``scipy.linalg.subspace_angles``."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), m=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1), log_delta=st.floats(-14, 0))
    def test_matches_subspace_angles(self, n, m, seed, log_delta):
        assume(m <= n)
        rng = np.random.default_rng(seed)
        trace = rng.standard_normal((m, n))
        ker = scipy.linalg.null_space(trace, rcond=1e-10)
        mix = rng.standard_normal((ker.shape[1],) * 2) \
            + 3.0 * np.eye(ker.shape[1])
        basis = (ker + 10.0 ** log_delta
                 * rng.standard_normal(ker.shape)) @ mix
        angles = scipy.linalg.subspace_angles(basis, ker)
        ref = angles.max() if angles.size else 0.0
        gap = _kernel_gap(basis, trace)
        assert abs(np.sin(gap) - np.sin(ref)) <= 1e-12
        if ref < 1.0:
            assert abs(gap - ref) <= 1e-12 + 1e-10 * ref

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_dimension_mismatch_is_a_right_angle(self, rng, extra):
        trace = rng.standard_normal((2, 9))
        basis = rng.standard_normal((9, 7 + extra))
        assert _kernel_gap(basis, trace) == np.pi / 2.0

    def test_rank_counted_at_null_space_rcond(self, rng):
        # the second row lies below rcond 1e-10, so the kernel has
        # dimension n - 1, as null_space counts it
        trace = rng.standard_normal((2, 9))
        trace[1] = 1e-12 * trace[0] + 1e-13 * rng.standard_normal(9)
        basis = scipy.linalg.null_space(trace, rcond=1e-10)
        assert basis.shape[1] == 8
        assert _kernel_gap(basis, trace) <= 1e-12
