import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from passivebc.errors import (
    IllPosedRestriction,
    NonFiniteValue,
    ShapeMismatch,
    SingularCoreProjection,
)
from passivebc.extension import (
    CONDITION_LIMIT,
    constraint_matrix,
    dissipativity_residual,
    generator_from_contraction,
)
from passivebc.hilbert import (
    ContractionParam,
    _frozen,
    contraction_norm,
    direct_sum,
    euclidean_space,
    make_space,
)
from passivebc.node import (
    external_cayley,
    impedance_node,
    internal_wellposedness,
    scattering_node,
)
from passivebc.triplet import NULLSPACE_RCOND, BoundaryOperator, green_residual
from passivebc.verify import _kernel_gap

from conftest import iota, random_wave_system, wave_system

import dense_gram_oracle


def kernel_basis(g):
    """The kernel basis ``[I; X]`` of a realization, whose core projection
    is the identity."""
    return np.vstack([np.eye(g.X.shape[1]), g.X])


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

    def test_keeps_its_bits_for_a_matrix_or_a_parameter(self, rng):
        op = random_wave_system(6, rng).op_A
        p = random_contraction(rng, 2, op.bspace)
        eye = np.eye(2)
        want = (p - eye) @ op.bspace.gram @ op.Gamma0 - (p + eye) @ op.Gamma1
        for given in (p, ContractionParam.from_matrix(p, op.bspace)):
            assert constraint_matrix(op, given).tobytes() == want.tobytes()
        assert generator_from_contraction(op, p).P.matrix.tobytes() \
            == p.tobytes()


@pytest.mark.parametrize("build", [constraint_matrix,
                                   generator_from_contraction])
class TestParameterGate:
    """P passes the nodes' ``ContractionParam`` gate before any SVD."""

    @pytest.fixture(autouse=True)
    def no_svd(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("SVD of an ungated P")
        monkeypatch.setattr(np.linalg, "svd", refused)

    def test_wrong_shape_is_shape_mismatch(self, build):
        op = wave_system(4).op_A
        with pytest.raises(ShapeMismatch,
                           match=r"P must be 2x2, got \(3, 3\)"):
            build(op, 0.5 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_named(self, build, bad):
        op = wave_system(4).op_A
        p = 0.5 * np.eye(2)
        p[0, 1] = bad
        with pytest.raises(NonFiniteValue, match="contraction parameter P"):
            build(op, p)


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
        folded = op.L.toarray()
        folded[7:, :] -= sys.D_map.matrix @ iota(op)[7:, :]
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
        # constraint rows vanish on the kernel basis [I; X]
        c = constraint_matrix(op, p)
        assert np.abs(c @ kernel_basis(g)).max() <= 1e-12
        # core projection is square, invertible, with reported condition
        proj = iota(op) @ kernel_basis(g)
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
        a_alt = np.linalg.solve((iota(op) @ alt).T, (op.L.toarray() @ alt).T).T
        scale = 1.0 + np.linalg.norm(g.A_main)
        assert np.abs(a_alt - g.A_main).max() <= 1e-12 * scale


class TestDomains:
    def test_neumann_domain_is_ker_gamma1(self):
        op = wave_system(6).op_A
        dom = kernel_basis(generator_from_contraction(op, np.eye(2)))
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
    core = direct_sum("Z", euclidean_space(1, "Z1"), euclidean_space(1, "Z2"))
    bspace = make_space(1, [[2.0]], "G")
    gamma = np.array([[1.0, 0.0, 0.0]])
    op = BoundaryOperator(core=core, L=np.zeros((2, 3)), Gamma0=gamma,
                          Gamma1=gamma, bspace=bspace)
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
    folded = op.L.toarray()
    folded[nx:, :] -= sys.D_map.matrix @ iota(op)[nx:, :]
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
        oracle = oracle_outcome(constraint_matrix(op, p), op.L, iota(op))
        if isinstance(oracle, type):
            with pytest.raises(oracle):
                generator_from_contraction(op, p)
            return
        g = generator_from_contraction(op, p)
        assert_same_generator(g.A_main, g.condition, oracle)
        assert np.abs(iota(op) @ kernel_basis(g)
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
        oracle = oracle_outcome(nd.G_map, nd.L_eff, iota(nd.op))
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
        oracle = oracle_outcome(constraint_matrix(op, p), op.L, iota(op))
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
        assert oracle_outcome(nd.G_map, nd.L_eff, iota(nd.op)) \
            is SingularCoreProjection
        with pytest.raises(SingularCoreProjection):
            internal_wellposedness(nd)

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
        assert internal_wellposedness(nd)[0]
        assert shapes and max(min(s) for s in shapes) <= op.n_boundary


def small_op(gamma0, gamma1, ext_dim=3):
    """Two core coordinates, ``ext_dim - 2`` boundary ones, given traces."""
    gamma0 = np.asarray(gamma0, dtype=float).reshape(-1, ext_dim)
    action = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.25]])[:, :ext_dim]
    return BoundaryOperator(
        core=direct_sum("Z", euclidean_space(1, "Z1"),
                        euclidean_space(1, "Z2")),
        L=action, Gamma0=gamma0,
        Gamma1=np.asarray(gamma1, dtype=float).reshape(-1, ext_dim),
        bspace=euclidean_space(len(gamma0), "G"))


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
    x = g.X
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
        op = sys.op_strain if jet else sys.op_A
        g = realized(op, random_contraction(rng, 2, op.bspace, target=norm))
        assert abs(dissipativity_residual(g) - dense_residual(op, g)) \
            <= trace_allowance(op, g)

    @settings(max_examples=40, deadline=None)
    @given(**TRACE_CASES)
    def test_folded_damping_bounded_by_trace_form(self, n, seed, norm, jet):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=1.0)
        op = folded_damping(sys, sys.op_strain if jet else sys.op_A)
        g = realized(op, random_contraction(rng, 2, op.bspace, target=norm))
        assert dense_residual(op, g) \
            <= dissipativity_residual(g) + trace_allowance(op, g)


def eager_realization(c, action, core):
    """``(A_main, [I; X])`` of ``action`` on ``ker c = span [I; X]``
    as the realization once built and stored them, eagerly on every call,
    for a c that passes its gates (oracle)."""
    _, sigma, vt = np.linalg.svd(c, full_matrices=False)
    rank = int(np.sum(sigma > NULLSPACE_RCOND * sigma.max(initial=0.0)))
    u, s, wt = np.linalg.svd(vt[:rank, core:])
    x = -(wt.T / s) @ (u.T @ vt[:rank, :core])
    a_main = action[:, :core] + action[:, core:] @ x
    return _frozen(a_main), _frozen(np.vstack([np.eye(core), x]))


def eager_dissipativity_residual(op, basis):
    """``dissipativity_residual`` as it read the stored kernel basis
    (oracle)."""
    core, m = op.core.dim, op.n_boundary
    traces = np.vstack([op.Gamma0, op.Gamma1])
    tk = traces[:, :core] + traces[:, core:] @ basis[core:]
    r = np.linalg.qr(tk.T, mode="r")
    s = r[:, :m] @ r[:, m:].T
    lam = np.linalg.eigvalsh(0.5 * (s + s.T)).max(initial=-np.inf)
    return float(max(lam, 0.0) if core > 2 * m else lam)


def reachable_arrays(value, skip=()):
    """Every array reachable from ``value`` through dataclass fields,
    cached attributes and tuples, leaving out the attributes ``skip``."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in reachable_arrays(v)]
    if dataclasses.is_dataclass(value):
        return [a for name, v in vars(value).items() if name not in skip
                for a in reachable_arrays(v)]
    return []


LAZY_CASES = dict(n=st.integers(1, 48), seed=st.integers(0, 2 ** 32 - 1),
                  norm=st.floats(0.05, 2.0), jet=st.booleans(),
                  damped=st.booleans())


def lazy_case(n, seed, norm, jet, damped):
    """A realization of a random contraction or expansion on ``op_A`` or
    ``op_strain``, with or without damping folded into its action."""
    rng = np.random.default_rng(seed)
    sys = random_wave_system(n, rng, b_max=1.0 if damped else 0.0)
    op = sys.op_strain if jet else sys.op_A
    if damped:
        op = folded_damping(sys, op)
    p = random_contraction(rng, 2, op.bspace, target=norm)
    return op, p, realized(op, p)


class TestLazyRealization:
    """A realization holds only X; ``A_main`` is built from it on each
    read, and both have the bytes of the eager build."""

    @settings(max_examples=40, deadline=None)
    @given(**LAZY_CASES)
    def test_reads_have_the_eager_bytes(self, n, seed, norm, jet, damped):
        op, p, g = lazy_case(n, seed, norm, jet, damped)
        a_main, basis = eager_realization(constraint_matrix(op, p),
                                          op.L.toarray(), op.core.dim)
        got = g.A_main
        assert got.shape == a_main.shape and got.dtype == a_main.dtype
        assert got.tobytes() == a_main.tobytes()
        assert got.flags.c_contiguous
        assert g.X.tobytes() == basis[op.core.dim:].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(**LAZY_CASES)
    def test_dissipativity_keeps_its_bits(self, n, seed, norm, jet, damped):
        op, p, g = lazy_case(n, seed, norm, jet, damped)
        _, basis = eager_realization(constraint_matrix(op, p), op.L,
                                     op.core.dim)
        got = dissipativity_residual(g)
        want = eager_dissipativity_residual(op, basis)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(norm=st.floats(0.0, 1.0),
           flavor=st.sampled_from([scattering_node, impedance_node]),
           **SYSTEMS)
    def test_node_generator_keeps_its_bits(self, n, seed, damped, norm,
                                           flavor):
        rng = np.random.default_rng(seed)
        sys = random_wave_system(n, rng, b_max=0.5 if damped else 0.0)
        p = random_contraction(rng, 2, sys.op_A.bspace, target=norm)
        nd = flavor(sys.op_A, p, sys.M_map, sys.D_map)
        if isinstance(oracle_outcome(nd.G_map, nd.L_eff, iota(nd.op)),
                      type):
            return
        _, gen = internal_wellposedness(nd)
        # the dense recipe: L_eff's boundary rows hold one nonzero each
        dense = dense_gram_oracle.effective_action(nd.op, nd.D, nd.M_inv)
        want, _ = eager_realization(nd.G_map, dense, nd.op.core.dim)
        assert gen.tobytes() == want.tobytes()

    def test_each_read_is_a_new_read_only_array(self, rng):
        op = random_wave_system(6, rng).op_A
        g = generator_from_contraction(
            op, random_contraction(rng, 2, op.bspace))
        assert not g.X.flags.writeable
        first, second = g.A_main, g.A_main
        assert first is not second
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, g.X)
        assert not (first.flags.writeable or second.flags.writeable)
        assert first.tobytes() == second.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            g.X[0, 0] = 1.0

    @pytest.mark.parametrize("n", [1, 8, 48])
    def test_holds_only_the_kernel_coordinates(self, rng, n):
        op = random_wave_system(n, rng).op_A
        core, nb = op.core.dim, op.ext_dim - op.core.dim
        g = generator_from_contraction(
            op, random_contraction(rng, 2, op.bspace))
        g.A_main, dissipativity_residual(g)
        assert g.X.shape == (nb, core)
        assert g.X.nbytes == 8 * nb * core
        # nothing is cached on the realization by a read
        assert set(vars(g)) == {f.name for f in dataclasses.fields(g)}
        own = reachable_arrays(g, skip=("parent",))
        assert any(a is g.X for a in own)
        assert max(a.size for a in own) < core ** 2


def qr_kernel_angle(basis, trace):
    """Largest principal angle between span(basis) and ker trace, as
    ``verify`` measured it before it bounded the angle from the trace:
    ``arcsin ||R Q||_2`` for the orthonormal row space R of the trace,
    counted at rcond 1e-10, and a QR basis Q of the span."""
    q = np.linalg.qr(basis)[0]
    _, sigma, vt = np.linalg.svd(trace, full_matrices=False)
    row = vt[:int(np.sum(sigma > 1e-10 * sigma.max(initial=0.0)))]
    if q.shape[1] != trace.shape[1] - row.shape[0]:
        return np.pi / 2.0
    return float(np.arcsin(min(np.linalg.norm(row @ q, 2), 1.0)))


def graph_pair(rng, k, m):
    """A random trace ``L [C | -I_m]`` on R^(k + m) and its kernel basis
    ``[I_k; C]``, whose singular values are all at least 1."""
    c = rng.standard_normal((m, k))
    lead = rng.standard_normal((m, m)) + 3.0 * np.eye(m)
    return lead @ np.hstack([c, -np.eye(m)]), np.vstack([np.eye(k), c])


class TestKernelGap:
    """``verify._kernel_gap`` bounds the angle that ``qr_kernel_angle``
    measures, and the oracle matches ``scipy.linalg.subspace_angles``."""

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
        gap = qr_kernel_angle(basis, trace)
        assert abs(np.sin(gap) - np.sin(ref)) <= 1e-12
        if ref < 1.0:
            assert abs(gap - ref) <= 1e-12 + 1e-10 * ref

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 40), m=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1), log_delta=st.floats(-14, 0),
           orthonormal=st.booleans())
    def test_bound_covers_the_angle(self, k, m, seed, log_delta,
                                    orthonormal):
        # both kinds of basis verify passes: [I; X] and an orthonormal one,
        # near the kernel (small delta) and far from it
        rng = np.random.default_rng(seed)
        trace, ker = graph_pair(rng, k, m)
        basis = ker + 10.0 ** log_delta * rng.standard_normal(ker.shape)
        basis[:k] = np.eye(k)
        if orthonormal:
            basis = np.linalg.qr(basis)[0]
        angle = qr_kernel_angle(basis, trace)
        # the bound holds exactly; both sides round at about 1e-15
        assert _kernel_gap(trace @ basis, k, trace) \
            >= angle * (1 - 1e-12) - 1e-14

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_exact_kernel_is_a_zero_angle(self, rng, m):
        # [C | -I] [I; C] = C - C: every entry is exactly zero
        c = rng.standard_normal((m, 7))
        trace, ker = np.hstack([c, -np.eye(m)]), np.vstack([np.eye(7), c])
        assert not (trace @ ker).any()
        assert _kernel_gap(trace @ ker, 7, trace) == 0.0

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_dimension_mismatch_is_a_right_angle(self, rng, extra):
        trace = rng.standard_normal((2, 9))
        basis = rng.standard_normal((9, 7 + extra))
        assert _kernel_gap(trace @ basis, 7 + extra, trace) == np.pi / 2.0

    def test_rank_counted_at_null_space_rcond(self, rng):
        # the second row lies below rcond 1e-10, so the kernel has
        # dimension n - 1, as null_space counts it
        trace = rng.standard_normal((2, 9))
        trace[1] = 1e-12 * trace[0] + 1e-13 * rng.standard_normal(9)
        basis = scipy.linalg.null_space(trace, rcond=1e-10)
        assert basis.shape[1] == 8
        assert _kernel_gap(trace @ basis, 8, trace) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 40), r=st.integers(1, 2), m=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1), log_delta=st.floats(-14, 0))
    def test_row_space_projector_matches_the_kernel_basis(self, n, r, m,
                                                          seed, log_delta):
        # the Dirichlet check's form: ker c as the complement of the row
        # space V of c, trace (I - V^T V) for trace Q, Q a basis of ker c
        rng = np.random.default_rng(seed)
        trace = rng.standard_normal((m, n))
        c = rng.standard_normal((r, m)) @ trace \
            + 10.0 ** log_delta * rng.standard_normal((r, n))
        _, sigma, vt = np.linalg.svd(c, full_matrices=False)
        v = vt[:int(np.sum(sigma > 1e-10 * sigma.max()))]
        ker = scipy.linalg.null_space(c, rcond=1e-10)
        got = _kernel_gap(trace - (trace @ v.T) @ v, n - len(v), trace)
        want = _kernel_gap(trace @ ker, ker.shape[1], trace)
        assert abs(np.sin(got) - np.sin(want)) <= 1e-12
