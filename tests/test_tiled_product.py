"""The lift forms its product ``B_ext[:, :dim_y] @ A`` tile by tile.

``triplet._tiled_product`` multiplies 64 x 64 output tiles, each a GEMM
of a dense row block of the left factor by a dense column block of the
right one over the whole inner dimension, and skips the tiles that are
structurally zero.  It holds no dense operand and no dense product, and
keeps the whole dense GEMM's bytes at the sizes the byte guard and the
benchmark build; at others a tile may round one entry apart, never by
more than the GEMM's own rounding bound.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array

from passivebc import triplet, wave1d
from passivebc.triplet import _tiled_product


def pair(N, rng, length=1.0):
    sys_ = wave1d.assemble(wave1d.random_coefficients(N, rng, length=length))
    return sys_.dual_pair


def products(dp):
    """(tiled, whole GEMM) of the lift's action block and of its two Pi
    traces' products with A."""
    a = dp.A.matrix
    dim_y = a.shape[0]
    for left in (dp.B_ext.matrix[:, :dim_y], dp.Pi2[:, :dim_y],
                 -dp.Pi1[:, :dim_y]):
        dense = left if isinstance(left, np.ndarray) else left.toarray()
        yield left, _tiled_product(left, a).toarray(), dense @ a.toarray()


@pytest.mark.parametrize("N, seed, length", [
    # the byte guard's systems (test_band_byte_guard)
    (1, 1, 1.0), (2, 2, 1.0), (7, 7, 1.0), (64, 64, 1.0), (192, 192, 1.0),
    (512, 512, 1.0), (192, 192, 1.3),
    (128, 1, 1.0), (192, 1, 1.0), (512, 1, 1.0),
    # cut at the edge, its 18 x 18 corner tile rounds an entry apart
    (81, 81, 1.0),
    # an F-ordered column block of A rounds 7 entries apart
    (16, 16, 1.0)])
def test_tiles_keep_the_whole_gemms_bytes(N, seed, length):
    for _, tiled, whole in products(pair(N, np.random.default_rng(seed),
                                         length)):
        assert (tiled + 0.0).tobytes() == (whole + 0.0).tobytes()


@settings(max_examples=30, deadline=None)
@given(N=st.integers(1, 320), seed=st.integers(0, 2 ** 32 - 1))
def test_tiles_are_within_the_gemms_rounding(N, seed):
    dp = pair(N, np.random.default_rng(seed))
    eps = np.finfo(float).eps
    for left, tiled, whole in products(dp):
        dense = left if isinstance(left, np.ndarray) else left.toarray()
        bound = 2 * eps * (np.abs(dense) @ np.abs(dp.A.matrix.toarray()))
        assert (np.abs(tiled - whole) <= bound).all()


def test_the_product_is_canonical_int32_and_read_only():
    dp = pair(300, np.random.default_rng(1))
    dim_y = dp.A.codomain.dim
    op = triplet.lift_second_order(dp)
    for x in (_tiled_product(dp.B_ext.matrix[:, :dim_y], dp.A.matrix), op.L):
        assert x.has_canonical_format
        assert x.indices.dtype == x.indptr.dtype == np.int32
        assert not (x.data == 0).any()
        assert not any(a.flags.writeable
                       for a in (x.data, x.indices, x.indptr))


def test_an_empty_product_is_an_empty_csr():
    # the Pi2 traces of a pair without G2 have no rows
    for rows in (0, 3):
        got = _tiled_product(np.zeros((rows, 5)), csr_array(np.eye(5)))
        assert got.shape == (rows, 5) and got.nnz == 0


def test_the_lift_forms_no_dense_operand():
    # the dense B_ext[:, :dim_y] and A were (N + 1) x (2N + 1) doubles
    # each (16.8 MB at N = 1024), and their product (N + 1)^2 (8.4 MB);
    # the tiles hold one 64-row block of each, 1/8 of one operand
    N = 1024
    dp = pair(N, np.random.default_rng(1))
    dp.A.normal_gram                    # formed once per map, shared
    triplet.lift_second_order(dp)       # first-call caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        triplet.lift_second_order(dp)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * (N + 1) * dp.A.codomain.dim / 4
