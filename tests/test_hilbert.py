
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from passivebc.errors import (
    NonFiniteValue,
    NonPositiveGram,
    NonSymmetricGram,
    RankDeficient,
    ShapeMismatch,
)
from passivebc.hilbert import (
    ContractionParam,
    LinearMap,
    _times_csr,
    _times_rows,
    check_dissipative,
    contraction_norm,
    euclidean_space,
    inner,
    make_space,
    norm,
)
from passivebc.verify import random_contraction

from passivebc.jet import build_jet, pull_state, push_state, ran_A_defect
from passivebc.triplet import (
    assemble_dual_pair,
    extend_adjoint,
    lift_second_order,
)

from conftest import half_width, wave_system


class TestMakeSpace:
    def test_identity_gram(self):
        sp = make_space(2, np.eye(2), "X")
        assert sp.dim == 2 and sp.eig_min == pytest.approx(1.0)

    def test_diagonal_gram(self):
        sp = make_space(2, np.diag([2.0, 3.0]), "Y")
        assert sp.eig_min == pytest.approx(2.0)
        assert sp.eig_max == pytest.approx(3.0)

    def test_indefinite_gram_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are -1 and 3
        with pytest.raises(NonPositiveGram) as info:
            make_space(2, [[1.0, 2.0], [2.0, 1.0]], "bad")
        assert info.value.min_eig == pytest.approx(-1.0, abs=1e-12)
        assert info.value.max_eig == pytest.approx(3.0, abs=1e-12)

    def test_relative_gate_reports_both_eigenvalues(self):
        # both eigenvalues are positive; the gate is relative to the largest
        with pytest.raises(NonPositiveGram) as info:
            make_space(2, np.diag([2.0, 4e12]), "stiff")
        assert info.value.min_eig == 2.0 and info.value.max_eig == 4e12
        assert str(info.value) == (
            "gram of space 'stiff' is not positive definite (smallest "
            "eigenvalue 2.000e+00 is at most 1e-12 times the largest, "
            "4.000e+12)")

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(NonSymmetricGram):
            make_space(2, [[1.0, 0.1], [0.0, 1.0]], "bad")

    def test_huge_asymmetric_gram_rejected(self):
        # the Frobenius norms of g and g - g^T overflow at entries near
        # 1e200 when summed as squares; the gate takes them by BLAS dnrm2
        with pytest.raises(NonSymmetricGram):
            make_space(2, [[1e200, 1e200], [0.0, 1e200]], "W")
        sp = make_space(2, [[1e200, 5e199], [5e199, 1e200]], "W")
        assert sp.eig_min == pytest.approx(5e199)

    def test_gram_is_frozen(self):
        sp = make_space(2, np.eye(2), "X")
        with pytest.raises(ValueError):
            sp.gram[0, 0] = 5.0


@st.composite
def spd_grams(draw):
    """Random SPD Gram: diagonal, banded (half-width 1 to 3) or dense.

    A banded Gram is ``B^T B + I/10`` with B upper triangular of the same
    half-width, so it is SPD with exactly that band; sizes reach past four
    times the half-width, where ``make_space`` takes the banded route.  The
    shift keeps every Gram clear of the positivity gate, which the
    near-singular test probes on its own.
    """
    kind = draw(st.sampled_from(["diagonal", "banded", "dense"]))
    half = draw(st.integers(1, 3))
    n = draw(st.integers(half + 1 if kind == "banded" else 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        return np.diag(np.exp(rng.uniform(-6.0, 6.0, n)))
    if kind == "banded":
        b = np.diag(rng.uniform(0.2, 3.0, n))
        for k in range(1, half + 1):
            b += np.diag(rng.uniform(-2.0, 2.0, n - k), k)
        return b.T @ b + 0.1 * np.eye(n)
    c = rng.standard_normal((n, n))
    return c @ c.T + 0.1 * np.eye(n)


def _spectrum(g):
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    return eigs[0], eigs[-1]


@settings(max_examples=50, deadline=None)
@given(spd_grams(), st.integers(0, 2**32 - 1))
def test_symmetrized_gram_is_the_mean_with_its_transpose(g, seed):
    # halving before the sum is exact in the normal range, so Grams keep
    # the bytes of 0.5 (g + g^T)
    noise = np.random.default_rng(seed).standard_normal(g.shape)
    g = g + 1e-14 * np.abs(g).max() * noise
    assert make_space(len(g), g, "W").gram.tobytes() == \
        (0.5 * (g + g.T)).tobytes()


@settings(max_examples=50, deadline=None)
@given(spd_grams(), st.integers(0, 2**32 - 1))
def test_inner_matches_the_dense_form(g, seed):
    # x^T W y on a Gram of any band, for a vector and each row of a block:
    # the band kernel and the dense (x W) . y each stay within gamma_{3n}
    # of the entrywise bound (Higham, Accuracy and Stability, sec. 3.5)
    sp = make_space(len(g), g, "W")
    w = sp.gram
    x, y = np.random.default_rng(seed).standard_normal((2, 3, len(g)))
    want = ((x @ w) * y).sum(axis=-1)
    bound = (2 * (3 * len(g) + 1) * np.finfo(float).eps
             * ((np.abs(x) @ np.abs(w)) * np.abs(y)).sum(axis=-1))
    assert (np.abs(inner(sp, x, y) - want) <= bound).all()
    assert abs(inner(sp, x[0], y[0]) - want[0]) <= bound[0]


@st.composite
def banded_gram_and_block(draw):
    """A space whose SPD Gram ``C^T C + I/10`` has half-bandwidth 0 to 3
    (C upper triangular of that half-width), and a block of 1 to 12 rows
    over ten decades, a fifth of its entries +0.0 and a fifth -0.0."""
    b = draw(st.integers(0, 3))
    n = draw(st.integers(b + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.diag(rng.uniform(0.2, 3.0, n))
    for k in range(1, b + 1):
        c += np.diag(rng.uniform(-2.0, 2.0, n - k), k)
    shape = (draw(st.integers(1, 12)), n)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    pick = rng.uniform(size=shape)
    x[pick < 0.2] = 0.0
    x[pick > 0.8] = -0.0
    return make_space(n, c.T @ c + 0.1 * np.eye(n), "W"), x


@settings(max_examples=100, deadline=None)
@given(banded_gram_and_block())
def test_gram_products_take_one_path(case):
    # x @ W is SciPy's product with the CSR Gram for every half-width
    space, x = case
    w = space.gram_csr
    got = _times_csr(x, w)
    assert got.flags.c_contiguous
    if half_width(space) == 0:
        # one product per entry, + 0.0 turning -0.0 into +0.0
        assert got.tobytes() == (x * w.diagonal() + 0.0).tobytes()
        assert not np.signbit(got[x == 0.0]).any()
    else:
        dense = w.toarray()
        bound = 1e-15 * (np.abs(x) @ np.abs(dense))
        assert (np.abs(got - x @ dense) <= bound).all()
    for i in range(len(x)):
        assert _times_csr(x[i:i + 1], w).tobytes() == got[i:i + 1].tobytes()
        assert _times_csr(x[i], w).tobytes() == got[i].tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 80), width=st.integers(1, 300),
       cols=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       transposed=st.booleans())
def test_dense_row_products_read_each_row_alone(rows, width, cols, seed,
                                                transposed):
    # x @ a of a block of rows has, in every row, the bytes of that row
    # alone, for a C-ordered a or the transposed view of one (K^T, P^T)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, width))
    a = (rng.standard_normal((cols, width)).T if transposed
         else rng.standard_normal((width, cols)))
    got = _times_rows(x, a)
    assert got.shape == (rows, cols)
    bound = 1e-14 * (np.abs(x) @ np.abs(a))
    assert (np.abs(got - x @ a) <= bound).all()
    for i in range(rows):
        assert _times_rows(x[i:i + 1], a).tobytes() == got[i:i + 1].tobytes()
        assert _times_rows(x[i], a).tobytes() == got[i].tobytes()
    cut = rows // 3
    assert np.concatenate([_times_rows(x[:cut], a),
                           _times_rows(x[cut:], a)]).tobytes() \
        == got.tobytes()


@settings(max_examples=50, deadline=None)
@given(banded_gram_and_block(), st.booleans())
def test_make_space_raises_where_it_did(case, sparse):
    space, _ = case
    g, n = np.array(space.gram), space.dim
    given_as = csr_array if sparse else np.asarray
    with pytest.raises(ShapeMismatch):
        make_space(n + 1, given_as(g), "W")
    bad = g.copy()
    bad[n // 2, n // 2] = np.nan
    with pytest.raises(NonFiniteValue):
        make_space(n, given_as(bad), "W")
    if n > 1:
        bad = g.copy()
        bad[0, -1] += 1e-6 * np.abs(g).max()
        with pytest.raises(NonSymmetricGram):
            make_space(n, given_as(bad), "W")
    with pytest.raises(NonPositiveGram):
        make_space(n, given_as(g - 2.0 * space.eig_max * np.eye(n)), "W")


class TestStructuredEigenvalueBounds:
    """``make_space`` bounds against dense ``eigvalsh``, relative to the
    largest eigenvalue (the Gram's scale)."""

    @settings(max_examples=150, deadline=None)
    @given(spd_grams())
    def test_bounds_match_eigvalsh(self, g):
        lo, hi = _spectrum(g)
        sp = make_space(len(g), g, "W")
        assert abs(sp.eig_min - lo) <= 1e-12 * hi
        assert abs(sp.eig_max - hi) <= 1e-12 * hi

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(0.0, 1e-13))
    def test_near_singular_rejected(self, g, rel):
        # Shift the spectrum to [rel, 1 + rel] (hi - lo); a clustered
        # spectrum leaves only roundoff after the shift, so it is skipped.
        lo, hi = _spectrum(g)
        assume(len(g) == 1 or hi - lo >= 0.1 * hi)
        shifted = g - (lo - rel * (hi - lo)) * np.eye(len(g))
        with pytest.raises(NonPositiveGram):
            make_space(len(g), shifted, "W")

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(1e-3, 1.0))
    def test_indefinite_rejected_with_smallest_eigenvalue(self, g, frac):
        lo, hi = _spectrum(g)
        shifted = g - (lo + frac * hi) * np.eye(len(g))
        ref_lo, ref_hi = _spectrum(shifted)
        with pytest.raises(NonPositiveGram) as info:
            make_space(len(g), shifted, "W")
        scale = max(abs(ref_lo), abs(ref_hi))
        assert abs(info.value.min_eig - ref_lo) <= 1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(spd_grams(), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.data())
    def test_non_finite_rejected(self, g, bad, data):
        i = data.draw(st.integers(0, len(g) - 1))
        j = data.draw(st.integers(0, len(g) - 1))
        g = g.copy()
        g[i, j] = g[j, i] = bad
        with pytest.raises(NonFiniteValue):
            make_space(len(g), g, "W")


def _dual_norm_sweep(P, space, samples=20000):
    """Independent oracle: sup of the dual-norm ratio over a dense sweep."""
    w_inv = np.linalg.inv(space.gram)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    best = 0.0
    for t in thetas:
        v = np.array([np.cos(t), np.sin(t)])
        pv = P @ v
        best = max(best, np.sqrt((pv @ w_inv @ pv) / (v @ w_inv @ v)))
    return best


class TestContractionNorm:
    def test_scalar_scaling(self):
        sp = euclidean_space(2, "G")
        assert contraction_norm(0.5 * np.eye(2), sp) == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 1)])
    def test_wrong_shape_is_shape_mismatch(self, shape):
        sp = euclidean_space(2, "G")
        p = np.full(shape, 0.1)
        with pytest.raises(ShapeMismatch, match=r"P must be 2x2, got \("):
            contraction_norm(p, sp)
        with pytest.raises(ShapeMismatch, match="P must be 2x2"):
            ContractionParam.from_matrix(p, sp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_named_before_the_svd(self, bad):
        # NaN made the SVD fail to converge (LinAlgError)
        sp = euclidean_space(2, "G")
        p = 0.5 * np.eye(2)
        p[1, 0] = bad
        with pytest.raises(NonFiniteValue, match="contraction parameter P"):
            contraction_norm(p, sp)

    def test_weighted_nilpotent(self):
        # W = diag(4, 1): W^{-1/2} P W^{1/2} = [[0, 1/2], [0, 0]]
        sp = make_space(2, np.diag([4.0, 1.0]), "G")
        P = np.array([[0.0, 1.0], [0.0, 0.0]])
        val = contraction_norm(P, sp)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert val == pytest.approx(_dual_norm_sweep(P, sp), abs=1e-6)

    def test_jordan_block_expands(self):
        sp = euclidean_space(2, "G")
        P = np.array([[1.0, 1.0], [0.0, 1.0]])
        val = contraction_norm(P, sp)
        golden = 0.5 * (1.0 + np.sqrt(5.0))
        assert val == pytest.approx(golden, abs=1e-12)
        assert val > 1.0
        assert val == pytest.approx(_dual_norm_sweep(P, sp), abs=1e-6)

    def test_invariant_under_dual_unitary_conjugation(self, rng):
        sp = make_space(2, [[3.0, 0.5], [0.5, 1.0]], "G")
        w_half, w_inv_half = sp.gram_roots
        P = rng.standard_normal((2, 2))
        base = contraction_norm(P, sp)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            u = w_half @ q @ w_inv_half  # unitary on the dual space
            assert contraction_norm(u @ P @ np.linalg.inv(u), sp) == \
                pytest.approx(base, abs=1e-10)


    def test_gram_roots_factored_once_per_space(self, monkeypatch, rng):
        sp = make_space(3, [[3.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                            [0.0, 0.2, 2.0]], "G")
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for _ in range(5):
            contraction_norm(rng.standard_normal((3, 3)), sp)
            ContractionParam.from_matrix(rng.standard_normal((3, 3)), sp)
        assert calls == [(3, 3)]
        assert all(not r.flags.writeable for r in sp.gram_roots)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_cached_roots_keep_the_dual_norm_bits(self, m, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((m, m))
        sp = make_space(m, f @ f.T + m * np.eye(m), "G")
        # the roots as contraction_norm formed them on every call
        eigs, vecs = np.linalg.eigh(sp.gram)
        w_half = (vecs * np.sqrt(eigs)) @ vecs.T
        w_inv_half = (vecs / np.sqrt(eigs)) @ vecs.T
        for _ in range(3):
            P = rng.standard_normal((m, m))
            want = float(np.linalg.norm(w_inv_half @ P @ w_half, 2))
            assert np.array(contraction_norm(P, sp)).tobytes() \
                == np.array(want).tobytes()


class TestCheckDissipative:
    def test_zero(self):
        sp = euclidean_space(2, "X")
        ok, lam = check_dissipative(LinearMap(np.zeros((2, 2)), sp, sp))
        assert ok and lam == pytest.approx(0.0, abs=1e-15)

    def test_positive_multiple_of_identity(self):
        sp = euclidean_space(2, "X")
        ok, lam = check_dissipative(LinearMap(0.3 * np.eye(2), sp, sp))
        assert ok and lam == pytest.approx(0.3)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=0, seed=0)
    def test_matches_dense_eigvalsh_of_the_weighted_form(self, n, seed):
        # sym(W D) on a weighted space of every half-width; the empty
        # space has the bounds (0.0, 0.0) of a zero-dimensional space
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((n, n))
        sp = make_space(n, c @ c.T + 0.1 * np.eye(n), "X")
        d = rng.standard_normal((n, n))
        ok, lam = check_dissipative(LinearMap(d, sp, sp))
        if n == 0:
            assert (ok, lam) == (True, 0.0)
            return
        wd = sp.gram @ d
        eigs = np.linalg.eigvalsh(0.5 * (wd + wd.T))
        assert abs(lam - eigs[0]) <= 1e-12 * np.abs(eigs).max()
        assert ok is (lam >= -1e-10)

    def test_rotation_with_negative_part(self):
        # sym(D) = diag(0, -0.1): quadratic form can be negative
        sp = euclidean_space(2, "X")
        D = LinearMap(np.array([[0.0, 1.0], [-1.0, -0.1]]), sp, sp)
        ok, lam = check_dissipative(D)
        assert not ok
        assert lam == pytest.approx(-0.1, abs=1e-12)


class TestCheckDissipativeStructured:
    """``check_dissipative`` reads the structure-aware extreme eigenvalue."""

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(0.0, 2.0))
    def test_matches_eigvalsh(self, g, shift):
        # diagonal, banded and dense forms with spectra of either sign
        lo, hi = _spectrum(g)
        d = g - shift * hi * np.eye(len(g))
        sp = euclidean_space(len(g), "X")
        ok, lam = check_dissipative(LinearMap(d, sp, sp))
        ref = _spectrum(d)[0]
        assert abs(lam - ref) <= 1e-12 * hi
        assert ok is (lam >= -1e-10)

    # the largest finite value overflows when the form is symmetrized
    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.finfo(float).max])
    def test_non_finite_form_fails_like_eigvalsh(self, bad):
        sp = euclidean_space(3, "X")
        d = np.eye(3)
        d[1, 1] = bad
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError):
            check_dissipative(LinearMap(d, sp, sp))


def lift_of_factor(a, dom, cod):
    """The second-order lift of a dual pair with factor map ``a``.

    B_ext extends -A* by one boundary column on the first X coordinate,
    with the traces the Green identity forces.
    """
    A = LinearMap(a, dom, cod)
    injection = np.eye(dom.dim, 1)
    b_ext = extend_adjoint(A, injection)
    pi1 = np.eye(1, cod.dim + 1, cod.dim)
    dp = assemble_dual_pair(A, b_ext, -injection.T, pi1,
                            euclidean_space(1, "G1"))
    return lift_second_order(dp)


def jet_of_factor(a, dom, cod):
    return build_jet(LinearMap(a, dom, cod))


def ker_projector(jt):
    """I - A (A^T W_Y A)^{-1} A^T W_Y from the jet's normal factor."""
    a = jt.A_iso.matrix
    return (np.eye(a.shape[0])
            - a @ jt.normal_solve(a.T @ jt.A_iso.codomain.gram))


class TestHelmholtz:
    """The splitting of the codomain into ran A and ker A* that the jet's
    normal-equation factor carries (``ran_A_defect``, ``pull_state``)."""

    def test_identity(self, rng):
        sp = euclidean_space(2, "Y")
        jt = jet_of_factor(np.eye(2), euclidean_space(2, "X"), sp)
        assert np.allclose(ker_projector(jt), 0.0, atol=1e-14)
        for _ in range(5):
            assert ran_A_defect(jt, rng.standard_normal(2)) <= 1e-14

    def test_coordinate_axis(self):
        dom = euclidean_space(1, "X")
        cod = euclidean_space(2, "Y")
        jt = jet_of_factor(np.array([[1.0], [0.0]]), dom, cod)
        assert np.allclose(ker_projector(jt), np.diag([0.0, 1.0]),
                           atol=1e-14)
        assert ran_A_defect(jt, np.array([3.0, -2.0])) == pytest.approx(
            2.0, rel=1e-14)
        w = push_state(jt.A_iso, np.array([3.0, 0.5]))
        assert np.allclose(pull_state(jt, w), [3.0, 0.5], atol=1e-14)

    def test_wave_strain_map(self):
        jt = wave_system(4).jet
        p_ker = ker_projector(jt)
        assert np.linalg.norm(p_ker @ p_ker - p_ker) <= 1e-12
        # W_Y self-adjointness of the projector
        w = jt.A_iso.codomain.gram
        assert np.linalg.norm(w @ p_ker - p_ker.T @ w) <= 1e-12
        assert np.linalg.matrix_rank(p_ker) == 9 - 5
        assert np.linalg.norm(p_ker @ jt.A_iso.matrix) <= 1e-12

    def test_rank_deficient_rejected(self):
        # A^T A has eigenvalues 1 and 1e-11: the lift's core Gram passes
        # its 1e-12 SPD gate, the jet's RANK_RTOL = 1e-10 gate refuses it
        a = np.array([[1.0, 0.0], [0.0, 10 ** -5.5], [0.0, 0.0]])
        dom, cod = euclidean_space(2, "X"), euclidean_space(3, "Y")
        lift_of_factor(a, dom, cod)
        with pytest.raises(RankDeficient):
            jet_of_factor(a, dom, cod)


def test_contraction_param_flag():
    from passivebc.hilbert import ContractionParam
    sp = euclidean_space(2, "G")
    assert ContractionParam.from_matrix(0.9 * np.eye(2), sp).is_contraction
    assert ContractionParam.from_matrix(np.eye(2), sp).is_contraction
    assert not ContractionParam.from_matrix(1.5 * np.eye(2),
                                            sp).is_contraction


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_contraction_param_rejects_non_finite(bad):
    from passivebc.hilbert import ContractionParam
    P = np.zeros((2, 2))
    P[1, 0] = bad
    with pytest.raises(NonFiniteValue):
        ContractionParam.from_matrix(P, euclidean_space(2, "G"))


def test_linear_map_shape_mismatch_rejected():
    dom = euclidean_space(3, "X")
    cod = euclidean_space(2, "Y")
    with pytest.raises(ShapeMismatch, match="does not match map"):
        LinearMap(np.zeros((3, 3)), dom, cod)


@pytest.mark.parametrize("call", [
    lambda x: inner(euclidean_space(3, "X"), x, np.ones(3)),
    lambda x: inner(euclidean_space(3, "X"), np.ones(3), x),
    lambda x: norm(euclidean_space(3, "X"), x),
    lambda x: LinearMap(np.ones((2, 3)), euclidean_space(3, "X"),
                        euclidean_space(2, "Y"))(x),
])
@pytest.mark.parametrize("x", [np.ones(2), np.ones(4), np.ones((2, 4)),
                               np.float64(1.0), np.ones((1, 2, 3))])
def test_vector_of_the_wrong_length_is_a_shape_mismatch(call, x):
    # a block (k, 3) of rows is a valid argument of inner and norm; one of
    # another width, or a 3-D array, is not
    with pytest.raises(ShapeMismatch, match="has shape"):
        call(x)


def _map_over(a):
    return LinearMap(a, euclidean_space(3, "X"), euclidean_space(2, "Y"))


def _canonical_parts(m):
    return m.data.tobytes(), m.indices.tolist(), m.indptr.tolist()


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       form=st.sampled_from(["csr", "csc", "coo", "raw csr"]))
def test_linear_map_stores_one_canonical_read_only_csr(rows, cols, seed,
                                                       form):
    # the dense array (with -0.0 entries) and a sparse one of the same
    # matrix that stores, in shuffled order, each entry split in two exact
    # halves, zeros of either sign and, where the matrix is zero, a pair
    # cancelling to zero give the same entries, sorted, summed and
    # without a stored zero, in read-only arrays
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.5)
    a[a == 0.0] = rng.choice([0.0, -0.0], size=int((a == 0.0).sum()))
    r, c = np.nonzero(np.ones_like(a))
    half = np.ldexp(a.ravel(), -1)
    zeros = rng.choice([0.0, -0.0], size=r.size)
    pad = rng.standard_normal(r.size) * (a.ravel() == 0.0)
    order = rng.permutation(5 * r.size)
    entries = np.concatenate([half, half, zeros, pad, -pad])[order]
    where = (np.tile(r, 5)[order], np.tile(c, 5)[order])
    sparse = scipy.sparse.coo_array((entries, where), shape=a.shape)
    if form == "raw csr":   # unsorted and unsummed, as CSR arrays may be
        by_row = np.argsort(where[0], kind="stable")
        sparse = csr_array((entries[by_row], where[1][by_row],
                            np.searchsorted(where[0][by_row],
                                            np.arange(rows + 1))),
                           shape=a.shape)
    maps = [LinearMap(x, euclidean_space(cols, "X"),
                      euclidean_space(rows, "Y")).matrix
            for x in (a, sparse.asformat(form.split()[-1]))]
    for m in maps:
        assert isinstance(m, csr_array) and m.has_canonical_format
        assert (m.data != 0.0).all()
        assert not any(x.flags.writeable
                       for x in (m.data, m.indices, m.indptr))
        assert m.toarray().tolist() == (a + 0.0).tolist()
    assert _canonical_parts(maps[0]) == _canonical_parts(maps[1])


@pytest.mark.parametrize("read_only_view", [False, True])
def test_linear_map_copies_what_a_caller_can_still_write(read_only_view):
    # the caller's writable array, or a read-only view of it, is copied:
    # later writes to it leave the map as built
    w = np.arange(6.0).reshape(2, 3).copy()
    a = w.view() if read_only_view else w
    if read_only_view:
        a.setflags(write=False)
    f = _map_over(a)
    assert not np.shares_memory(f.matrix.data, w)
    assert not f.matrix.data.flags.writeable
    w[0, 0] = 99.0
    assert a[0, 0] == 99.0
    assert f.matrix.toarray().tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_extend_adjoint_forms_no_dense_array():
    # at N = 2048 a dense B_ext would hold 2049 x 4099 doubles (67 MB)
    sys_ = wave_system(2048)
    injection = np.zeros((2049, 2))
    injection[0, 0], injection[-1, 1] = -1.0, 1.0
    tracemalloc.start()
    try:
        b_ext = extend_adjoint(sys_.A_map, injection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert (b_ext.matrix != sys_.dual_pair.B_ext.matrix).nnz == 0


def test_linear_map_applies_to_vectors_and_column_blocks():
    f = LinearMap(np.arange(6.0).reshape(2, 3), euclidean_space(3, "X"),
                  euclidean_space(2, "Y"))
    assert f(np.ones(3)).tolist() == [3.0, 12.0]
    assert f(np.ones((3, 2))).shape == (2, 2)


def test_random_contraction_on_an_empty_boundary_space():
    p = random_contraction(np.random.default_rng(0), euclidean_space(0, "G"))
    assert p.shape == (0, 0)
