"""A direct sum keeps its summands: ``hilbert.direct_sum`` stores the
block-diagonal CSR Gram the dense validation of ``scipy.linalg.block_diag``
stores, takes its eigenvalue bounds from its summands and runs only the
relative positivity gate again, under its own label.  A boundary operator
is built on a two-block core, and the node reads its blocks from it.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from passivebc.errors import NonPositiveGram, ShapeMismatch
from passivebc.hilbert import (
    LinearMap,
    direct_sum,
    euclidean_space,
    make_space,
)
from passivebc.node import impedance_node
from passivebc.triplet import BoundaryOperator, lift_second_order

from conftest import wave_system


@st.composite
def spd_gram(draw):
    """A symmetric, diagonally dominant n x n Gram of half-bandwidth b."""
    n = draw(st.integers(0, 5))
    b = draw(st.integers(0, max(n - 1, 0)))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    g = np.zeros((n, n))
    for k in range(1, b + 1):
        d = np.array(draw(st.lists(entries, min_size=n - k, max_size=n - k)))
        g += np.diag(d, k) + np.diag(d, -k)
    scale = draw(st.floats(0.5, 2.0))
    g += np.diag(np.abs(g).sum(axis=1) + scale)
    return g


@settings(max_examples=60, deadline=None)
@given(grams=st.lists(spd_gram(), min_size=1, max_size=3))
def test_sum_has_the_bytes_of_the_dense_block_diagonal(grams):
    spaces = [make_space(len(g), g, f"W{i}") for i, g in enumerate(grams)]
    total = direct_sum("S", *spaces)
    dim = sum(len(g) for g in grams)
    dense = make_space(
        dim, scipy.linalg.block_diag(*grams).reshape(dim, dim), "S")
    assert total.dim == dim and total.label == "S"
    got, want = total.gram_csr, dense.gram_csr
    for x, y in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert x.tobytes() == y.tobytes()
        assert not x.flags.writeable
    assert total.gram.tobytes() == dense.gram.tobytes()
    assert len(total.blocks) == len(spaces)
    assert all(a is b for a, b in zip(total.blocks, spaces))
    used = [s for s in spaces if s.dim]
    if used:
        assert total.eig_min == min(s.eig_min for s in used)
        assert total.eig_max == max(s.eig_max for s in used)
        tol = 1e-12 * dense.eig_max
        assert abs(total.eig_min - dense.eig_min) <= tol
        assert abs(total.eig_max - dense.eig_max) <= tol


@settings(max_examples=30, deadline=None)
@given(low=st.floats(1e-100, 1e100),
       ratio=st.floats(1.01e12, 1e100))
def test_sum_is_refused_by_name_when_only_the_combined_ratio_fails(low, ratio):
    a = make_space(2, low * np.eye(2), "A")
    b = make_space(1, [[low * ratio]], "B")
    with pytest.raises(NonPositiveGram, match="'A\\(\\+\\)B'") as info:
        direct_sum("A(+)B", a, b)
    assert info.value.min_eig == a.eig_min
    assert info.value.max_eig == b.eig_max


def test_sum_of_empty_spaces_is_empty():
    total = direct_sum("G", euclidean_space(0, "G1"), euclidean_space(0, "G2"))
    assert total.dim == 0 and total.gram.shape == (0, 0)
    assert len(total.blocks) == 2


@pytest.mark.parametrize("blocks", [0, 1, 3])
def test_boundary_operator_needs_a_two_block_core(blocks):
    if blocks == 0:
        core = euclidean_space(2, "Z")
    else:
        core = direct_sum("Z", *(euclidean_space(2 // blocks or 1, f"Z{i}")
                                 for i in range(blocks)))
    with pytest.raises(ShapeMismatch, match="'Z' has %d direct-sum blocks"
                       % blocks):
        BoundaryOperator(core=core, L=np.zeros((core.dim, core.dim)),
                         Gamma0=np.zeros((0, core.dim)),
                         Gamma1=np.zeros((0, core.dim)),
                         bspace=euclidean_space(0, "G"))


def test_boundary_operator_holds_five_fields():
    names = [f.name for f in dataclasses.fields(BoundaryOperator)]
    assert names == ["core", "L", "Gamma0", "Gamma1", "bspace"]


@pytest.mark.parametrize("jet", [False, True])
def test_operators_and_nodes_keep_their_blocks(jet):
    sys_ = wave_system(6)
    dp = sys_.dual_pair
    op = sys_.op_strain if jet else sys_.op_A
    first, second = op.core.blocks
    assert second is dp.A.domain
    if jet:
        assert first is dp.A.codomain
    else:
        assert first.label == "X_h" and first.dim == dp.A.domain.dim
    assert op.core_blocks == (first.dim, second.dim)
    assert op.ext_dim == op.L.shape[1]
    ports = [g for g in (dp.G1, dp.G2) if g is not None]
    assert len(op.bspace.blocks) == len(ports)
    assert all(a is b for a, b in zip(op.bspace.blocks, ports))
    assert dp.B_ext.domain.blocks[0] is dp.A.codomain
    nd = impedance_node(op, np.eye(2), sys_.M_map, sys_.D_map)
    position, kinetic = nd.state_space.blocks
    assert position is first
    assert kinetic.label == "X_M" and kinetic.dim == second.dim


def test_lift_of_a_rank_deficient_factor_names_its_first_block():
    dp = wave_system(4).dual_pair
    a = dp.A.matrix.toarray()
    a[:, 0] = 0.0
    deficient = LinearMap(a, dp.A.domain, dp.A.codomain)
    with pytest.raises(NonPositiveGram, match="'X_h'"):
        lift_second_order(dataclasses.replace(dp, A=deficient))
