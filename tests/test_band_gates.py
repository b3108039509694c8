"""Gram gates read by band against the dense oracle (``dense_gram_oracle``).

``make_space`` reads a Gram once in full, for its half-bandwidth, and runs
every gate on the band.  Against the dense validation it must raise the
same error class, store the same bytes and report the same eigenvalue
bounds, for every input below.  Products with a diagonal matrix given by
its band must have the bytes of the dense GEMM, LAPACK solve and
``cho_solve`` they replace.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from passivebc import hilbert
from passivebc.errors import ShapeMismatch
from passivebc.hilbert import SYM_RTOL, make_space
from passivebc.node import _mass_inverse
from passivebc.triplet import _gram_csr

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
    assert not (sp.gram.view(np.uint64)[_offsets(len(g)) > sp.bandwidth]).any()


@settings(max_examples=200, deadline=None)
@given(gram_inputs())
def test_bandwidth_is_the_widest_nonzero_bit_pattern(g):
    rows, cols = np.nonzero(g.view(np.uint64))
    width = int(np.abs(rows - cols).max()) if rows.size else 0
    assert hilbert._bandwidth(g) == width


@settings(max_examples=100, deadline=None)
@given(gram_inputs(), st.integers(0, 2**32 - 1))
def test_band_algebra_matches_dense(g, seed):
    g = np.nan_to_num(g, nan=1.0, posinf=1.0, neginf=-1.0)
    band = hilbert._band(g, hilbert._bandwidth(g))
    assert hilbert._dense(band).tobytes() == g.tobytes()
    assert hilbert._dense(hilbert._band_transpose(band)).tobytes() == \
        np.ascontiguousarray(g.T).tobytes()
    n = len(g)
    rng = np.random.default_rng(seed)
    right = rng.standard_normal((n, n)) * (_offsets(n) <= rng.integers(n))
    product = hilbert._band_product(
        band, hilbert._band(right, hilbert._bandwidth(right)))
    dense = g @ right
    assert np.abs(hilbert._dense(product) - dense).max() <= \
        1e-14 * n * (1.0 + np.abs(g).max() * np.abs(right).max())


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
    assert_same_array(hilbert._band_apply(x, d[:, None]), x @ dense)
    xt = x.T   # F-ordered for a block, as the library's A^T is
    assert_same_array(hilbert._band_apply(xt, d[:, None], left=True),
                      dense @ xt)
    flipped = x[..., ::-1]   # a strided view
    assert_same_array(hilbert._band_apply(flipped, d[:, None]),
                      flipped @ dense)


@settings(max_examples=100, deadline=None)
@given(diagonal_products())
def test_diagonal_solve_and_inverse_have_the_lapack_bytes(dx):
    d, x = dx
    rhs = np.atleast_2d(x).T            # one to 40 right-hand sides
    d = np.where(d == 0.0, 1.0, d)
    want = np.linalg.solve(np.diag(d), rhs)
    got = hilbert._band_solve(d[:, None], rhs)
    assert np.array_equal(got, want)    # values, for either sign of d
    pos, plain = np.abs(d), rhs + 0.0   # the library's W_X and -0.0-free rhs
    assert got.shape == want.shape
    assert hilbert._band_solve(pos[:, None], plain).tobytes() == \
        np.linalg.solve(np.diag(pos), plain).tobytes()
    m = np.diag(pos)
    assert hilbert._dense(_mass_inverse(m, pos[:, None])).tobytes() == \
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(m),
                               np.eye(len(m))).tobytes()


@settings(max_examples=100, deadline=None)
@given(gram_inputs())
def test_gram_csr_is_the_dense_conversion(g):
    expected, _ = _outcome(oracle.make_space, g)
    assume(expected is None)
    sp = make_space(len(g), g, "W")
    a, b = _gram_csr(sp), csr_array(sp.gram)
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
        assert sp.bandwidth == 0
        assert (sp.eig_min, sp.eig_max) == (min(diag), max(diag))

    @pytest.mark.parametrize("dim, gram", [
        (3, np.eye(2)),                  # too small: was a reshape error
        (2, [1.0, 0.0, 0.0, 1.0]),       # flat: was read as a square
        (3, np.eye(3)[None]),
        (1, 2.0)])
    def test_gram_of_the_wrong_shape_is_refused(self, dim, gram):
        with pytest.raises(ShapeMismatch, match="gram of space 'W'"):
            make_space(dim, gram, "W")
