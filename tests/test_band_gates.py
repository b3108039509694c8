"""Gram gates on sparse Grams against the dense oracle
(``dense_gram_oracle``).

``make_space`` holds a Gram as CSR and runs every gate on its stored
entries and its band.  Against the dense validation it must raise the
same error class, store the same bytes and report the same eigenvalue
bounds, for every input below.  Products with a diagonal CSR matrix must
have the bytes of the dense GEMM, LAPACK solve (of several right-hand
sides) and ``cho_solve`` they replace; products with any other banded one
must agree with the GEMM to a rounding bound, and a narrow one must
allocate no dense square.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from passivebc import hilbert, node
from passivebc.errors import ShapeMismatch
from passivebc.hilbert import (SYM_RTOL, HilbertSpaceSpec, LinearMap,
                               _frozen_csr, _times_csr, direct_sum,
                               euclidean_space, make_space)
from passivebc.node import _mass_inverse

from conftest import half_width

import dense_gram_oracle as oracle


def _offsets(n):
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


@st.composite
def gram_inputs(draw):
    """Diagonal, banded or dense Grams, some indefinite, all-zero or of
    order 1, with -0.0 off the band, NaN or infinity inside or outside it
    and asymmetry on either side of ``SYM_RTOL``."""
    kind = draw(st.sampled_from(["diagonal", "banded", "dense", "zero"]))
    n = draw(st.integers(1, 24))
    half = {"diagonal": 0, "banded": draw(st.integers(1, 3)),
            "dense": n - 1, "zero": 0}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((n, n)) * (_offsets(n) <= half)
    g = np.zeros((n, n)) if kind == "zero" else \
        np.triu(c).T @ np.triu(c) + 0.1 * np.eye(n)
    g[_offsets(n) > half] = 0.0
    if draw(st.booleans()):   # indefinite: shift past the smallest eigenvalue
        eigs = np.linalg.eigvalsh(g)
        g -= (eigs[0] + draw(st.floats(-1.0, 1.0)) * abs(eigs[-1])) \
            * np.eye(n)
    if n > 1 and draw(st.booleans()):   # -0.0 on either side, off the band
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[i, j] = -0.0
        if draw(st.booleans()):
            g[j, i] = -0.0
    if draw(st.booleans()):   # asymmetric entries in the band
        rel = 10.0 ** draw(st.floats(-15.0, -9.0))
        g += rel * np.abs(g).max() * np.triu(rng.standard_normal((n, n)))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return g


def _outcome(build, g):
    try:
        return None, build(len(g), g, "W")
    except Exception as exc:   # the error class is the outcome compared
        return type(exc), None


@settings(max_examples=400, deadline=None)
@given(gram_inputs())
def test_make_space_matches_the_dense_oracle(g):
    if np.isfinite(g).all():
        # the two gates sum the squares in different orders: stay clear of
        # the symmetry threshold by a relative 1e-3
        scale = oracle.dense_norm(g)
        if scale > 0.0:
            ratio = oracle.dense_norm(g - g.T) / (SYM_RTOL * scale)
            assume(abs(ratio - 1.0) > 1e-3)
    expected, ref = _outcome(oracle.make_space, g)
    got, sp = _outcome(make_space, g)
    assert got is expected
    if sp is None:
        return
    assert sp.gram.tobytes() == ref.gram.tobytes()
    assert not sp.gram.flags.writeable
    tol = 1e-12 * abs(ref.eig_max)
    assert abs(sp.eig_min - ref.eig_min) <= tol
    assert abs(sp.eig_max - ref.eig_max) <= tol
    # nothing outside the recorded band has nonzero bits
    assert not (sp.gram.view(np.uint64)[_offsets(len(g))
                                        > half_width(sp)]).any()


@settings(max_examples=100, deadline=None)
@given(gram_inputs())
def test_band_algebra_matches_dense(g):
    # LAPACK's lower band storage of the symmetric part of any square g
    g = np.nan_to_num(g, nan=1.0, posinf=1.0, neginf=-1.0)
    sym = 0.5 * g + 0.5 * g.T
    lower = hilbert._lower_band(_frozen_csr(sym))
    rows, cols = np.nonzero(np.tril(sym))
    assert len(lower) == int((rows - cols).max(initial=0)) + 1
    n = len(g)
    for k in range(len(lower)):
        assert lower[k, :n - k].tobytes() == \
            (np.diagonal(sym, -k) + 0.0).tobytes()
        assert not lower[k, n - k:].any()


@st.composite
def diagonal_products(draw):
    """A diagonal d of 1 to 300 entries and a block x of 1 to 40 rows (or
    one vector) with d's length as columns, both of either sign over
    sixteen decades, with some entries +0.0 or -0.0."""
    n = draw(st.integers(1, 300))
    rows = draw(st.sampled_from([None, 1, 2, 7, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(shape, zeros):
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        a[rng.uniform(size=shape) < zeros] = 0.0
        a[rng.uniform(size=shape) < zeros] = -0.0
        return a
    d = signed(n, draw(st.sampled_from([0.0, 0.1, 0.5])))
    x = signed((n,) if rows is None else (rows, n),
               draw(st.sampled_from([0.0, 0.1, 0.5])))
    return d, x


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(diagonal_products())
def test_diagonal_band_products_have_the_gemm_bytes(dx):
    d, x = dx
    dense = np.diag(d)
    g = _frozen_csr(dense)
    assert_same_array(_times_csr(x, g), x @ dense)
    if x.ndim == 2:   # F-ordered, as the library's A^T is
        xt = np.asfortranarray(x)
        assert_same_array(_times_csr(xt, g), xt @ dense)
    flipped = x[..., ::-1]   # a strided view
    assert_same_array(_times_csr(flipped, g), flipped @ dense)


def product_bound(x, w, b):
    """``2 (n + 2b + 2) eps |x| |W|``: twice ``gamma_{n+2b+1}`` of the
    product's absolute sum (Higham, Accuracy and Stability, 2nd ed., sec.
    3.1), a bound on the gap between the sparse product's and the GEMM's
    roundings of each entry of ``x @ W``."""
    return 2 * (len(w) + 2 * b + 2) * np.finfo(float).eps * (np.abs(x)
                                                             @ np.abs(w))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 16), data=st.data(),
       rows=st.sampled_from([None, 1, 5]), seed=st.integers(0, 2**32 - 1))
def test_band_products_match_the_gemm(n, data, rows, seed):
    # x @ W^T, of a W of every half-width up to the full square, is summed
    # entry by entry of each row of W, so a row of it never reads the rows
    # multiplied with it
    b = data.draw(st.integers(0, n - 1), label="b")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n)) * (_offsets(n) <= b)
    g = _frozen_csr(w)
    x = rng.standard_normal((n,) if rows is None else (rows, n))
    w = w.T
    want = x @ w
    got = _times_csr(x, g)
    assert got.shape == want.shape and got.flags.c_contiguous
    for i in range(len(x) if x.ndim == 2 else 0):
        assert _times_csr(x[i:i + 1], g).tobytes() == got[i:i + 1].tobytes()
        assert _times_csr(x[i], g).tobytes() == got[i].tobytes()
    if b == 0:
        assert got.tobytes() == want.tobytes()
    assert (np.abs(got - want) <= product_bound(x, w, b)).all()


def _spd(rng, n, b):
    """A symmetric W of half-width b, diagonally dominant with a positive
    diagonal, hence SPD."""
    c = rng.standard_normal((n, n)) * (_offsets(n) <= b)
    w = c + c.T
    return w + (np.abs(w).sum(axis=1).max() + 1.0) * np.eye(n)


def _gamma(k):
    """Higham's ``gamma_k = k eps / (1 - k eps)``."""
    eps = np.finfo(float).eps
    return k * eps / (1 - k * eps)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 24), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_wide_band_eigenvalues_match_eigvalsh(n, data, seed):
    b = data.draw(st.sampled_from(sorted({1, max(1, n // 4), n - 1})),
                  label="b")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) * (_offsets(n) <= b)
    w = c + c.T
    eigs = np.linalg.eigvalsh(w)
    lo, hi = hilbert._extreme_eigenvalues(_frozen_csr(w))
    tol = 1e-12 * abs(eigs[-1])
    assert abs(lo - eigs[0]) <= tol and abs(hi - eigs[-1]) <= tol


def solve_gap_bound(w, x_a, x_b):
    """Bound on the gap between two solves of ``W x = r`` (per column,
    2-norm) for an SPD W that is diagonally dominant.

    The banded Cholesky solve is exact for some ``W + dW`` with ``||dW||_2
    <= n gamma_{3n+1} ||W||_2`` (Higham, Accuracy and Stability, 2nd ed.,
    Thm 10.4, with ``|| |R^T| |R| ||_2 <= n ||W||_2``), so its x lies
    within ``n gamma_{3n+1} kappa(W) ||x||`` of the exact one, to first
    order.  LAPACK's LU exchanges no rows on a diagonally dominant W and
    its growth factor is then at most 2 (Thm 9.9); the factor 2 below
    gives its solve that bound doubled, and the gap is at most the sum."""
    n = len(w)
    eigs = np.linalg.eigvalsh(w)
    sizes = np.linalg.norm(x_a, axis=0) + np.linalg.norm(x_b, axis=0)
    return 2 * n * _gamma(3 * n + 1) * (eigs[-1] / eigs[0]) * sizes


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 24), full=st.booleans(), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_wide_band_solve_matches_the_dense_solve(n, full, cols, seed):
    # tridiagonal and full SPD bands go to the banded Cholesky solve
    b = n - 1 if full else 1
    rng = np.random.default_rng(seed)
    w = _spd(rng, n, b)
    rhs = rng.standard_normal((n, cols))
    got = hilbert._gram_solve(make_space(n, w, "W"), csr_array(rhs))
    want = np.linalg.solve(w, rhs)
    assert got.shape == want.shape
    gap = np.linalg.norm(got - want, axis=0)
    assert (gap <= solve_gap_bound(w, got, want)).all()


def test_band_kernels_form_no_dense_matrix(monkeypatch):
    rng = np.random.default_rng(7)
    cases = []
    for n, b in ((1, 0), (3, 1), (4, 1), (6, 5), (12, 3), (9, 8)):
        space = make_space(n, _frozen_csr(_spd(rng, n, b)), "W")
        cases.append((space, rng.standard_normal((5, n))))

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram kernel formed a dense matrix")
    toarray = csr_array.toarray

    def refuse_square(a, *args, **kwargs):
        # the banded solve reads its 5-column rhs dense, never a Gram
        if a.shape[0] == a.shape[1]:
            refuse()
        return toarray(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(csr_array, "toarray", refuse_square)
    for space, x in cases:
        _times_csr(x, space.gram_csr)
        hilbert._gram_solve(space, csr_array(x.T))
        hilbert._extreme_eigenvalues(space.gram_csr)
        hilbert.inner(space, x, x)


def test_narrow_band_product_allocates_no_square():
    # at n = 2049 (the lift's X_h at N = 2048) a 256-row block times a
    # tridiagonal W stays below half of one n x n array of doubles
    n = 2049
    diagonals = np.random.default_rng(3).uniform(1.0, 2.0, (3, n))
    g = _frozen_csr(scipy.sparse.diags_array(
        [diagonals[0, 1:], diagonals[1], diagonals[2, 1:]],
        offsets=[-1, 0, 1]))
    x = np.ones((256, n))
    tracemalloc.start()
    try:
        _times_csr(x, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 24), b=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_kinetic_gram_of_non_diagonal_factors_matches_the_gemm(n, b, seed):
    # W_2 M^{-1} of a banded W_2 and a mass M = W_2^{-1} S (S SPD), which
    # is self-adjoint for W_2 and has a full M^{-1}
    rng = np.random.default_rng(seed)
    b = min(b, n - 1)
    f = rng.standard_normal((n, n)) * (_offsets(n) <= b)
    w2 = make_space(n, f @ f.T / n + np.eye(n), "W_2")
    s = rng.standard_normal((n, n))
    mass = LinearMap(np.linalg.solve(w2.gram, s @ s.T / n + np.eye(n)),
                     w2, w2)
    op = SimpleNamespace(core=direct_sum("Z", euclidean_space(1, "Q"), w2))
    damping = LinearMap(np.zeros((n, n)), w2, w2)
    minv, state = node._prepare_weights(op, mass, damping)
    dense_minv = minv.toarray()
    product = w2.gram @ dense_minv
    want = 0.5 * (product + product.T)
    width = half_width(w2) + n - 1   # M^{-1} is full
    bound = product_bound(w2.gram, dense_minv, width)
    got = state.blocks[1].gram
    assert (np.abs(got - want) <= 0.5 * (bound + bound.T)).all()


@settings(max_examples=100, deadline=None)
@given(diagonal_products())
def test_diagonal_solve_and_inverse_have_the_lapack_bytes(dx):
    d, x = dx
    rhs = np.atleast_2d(x).T            # one to 40 right-hand sides
    d = np.where(d == 0.0, 1.0, d)
    # a space of either sign, unvalidated: the solve reads only its Gram
    space = HilbertSpaceSpec(len(d), _frozen_csr(np.diag(d)), "W")
    got = hilbert._gram_solve(space, csr_array(rhs))
    assert scipy.sparse.issparse(got)
    got = got.toarray()
    # each row times the reciprocal pivot, one product per entry: LAPACK's
    # solve of several right-hand sides; of one, it divides instead
    assert oracle.same_canonical_bytes(got, rhs * (1.0 / d)[:, None])
    if rhs.shape[1] > 1:
        assert oracle.same_canonical_bytes(
            got, np.linalg.solve(np.diag(d), rhs))
    m = np.diag(np.abs(d))
    assert _mass_inverse(_frozen_csr(m)).toarray().tobytes() == \
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(m),
                               np.eye(len(m))).tobytes()


@settings(max_examples=100, deadline=None)
@given(gram_inputs())
def test_gram_csr_is_the_dense_conversion(g):
    expected, _ = _outcome(oracle.make_space, g)
    assume(expected is None)
    sp = make_space(len(g), g, "W")
    a, b = sp.gram_csr, csr_array(sp.gram)
    assert a.data.tobytes() == b.data.tobytes()
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)


class TestSatelliteGates:
    def test_norm_of_empty_input_is_zero(self):
        assert hilbert._norm(np.zeros(0)) == 0.0
        assert hilbert._norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("diag", [[2.0], [2.0, 0.5]])
    def test_diagonal_grams_of_order_one_and_two(self, diag):
        sp = make_space(len(diag), np.diag(diag), "W")
        assert half_width(sp) == 0
        assert (sp.eig_min, sp.eig_max) == (min(diag), max(diag))

    @pytest.mark.parametrize("dim, gram", [
        (3, np.eye(2)),                  # too small: was a reshape error
        (2, [1.0, 0.0, 0.0, 1.0]),       # flat: was read as a square
        (3, np.eye(3)[None]),
        (1, 2.0)])
    def test_gram_of_the_wrong_shape_is_refused(self, dim, gram):
        with pytest.raises(ShapeMismatch, match="gram of space 'W'"):
            make_space(dim, gram, "W")
