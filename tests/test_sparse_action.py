"""The boundary action L and the damping D held as CSR.

``BoundaryOperator.L`` and ``BoundaryNode.D`` (D on the momentum block)
are canonical read-only CSR arrays; the dense arrays are built only when
read.  Against the dense L that ``triplet._realize`` formed before
(``dense_gram_oracle.realized_action``), and the dense recipes then
applied to it, the CSR action must give every byte of L, ``L_eff``, the
Green residual and the dissipated power, and every nonzero bit of both
step matrices and the step factor, for the lift, the jet target and the
synthetic two-block pairs (one with a one-row Pi2, one with a one-row
B_ext); and a node at N=512 must hold well under one dense ext x ext
array.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, eye_array

from passivebc.hilbert import LinearMap, _row_forms
from passivebc.node import impedance_node, scattering_node
from passivebc.sim import StepSolver
from passivebc.triplet import (
    _frobenius,
    green_residual,
    lift_second_order,
    strain_momentum,
)

from conftest import random_wave_system, wave_system
from test_core_first import same_bytes
from test_triplet import synthetic_two_block_pair

import dense_gram_oracle as oracle

DT = 1e-3


def dense_green_residual(op, L):
    """``green_residual`` as formed on the CSR of a dense L."""
    wl = op.core.gram_csr @ csr_array(L)
    iota = eye_array(op.core.dim, op.ext_dim, format="csr")
    g0, g1 = csr_array(op.Gamma0), csr_array(op.Gamma1)
    defect = iota.T @ wl + wl.T @ iota - g1.T @ g0 - g0.T @ g1
    return _frobenius(defect) / (1.0 + _frobenius(wl))


def dense_dissipated_power(D, minv, z, n1, core):
    """``<v, D^T W_D v>`` with ``v = M^{-1} z2``, by SciPy's products
    ``x @ F`` with the CSR arrays of the dense D^T W_D and M^{-T}, copied
    C-ordered."""
    damping = csr_array(D.matrix.toarray().T) @ D.domain.gram_csr
    v = np.ascontiguousarray(z[..., n1:core] @ csr_array(minv.toarray().T))
    return _row_forms(np.ascontiguousarray(v @ damping), v)


def banded_damping(x, rng):
    """A dissipative tridiagonal damping map on the space ``x``, whose
    diagonal Gram has entries within a factor 4: so diagonally dominant
    that sym(W_D D) is too."""
    n = x.dim
    off = rng.uniform(-0.1, 0.1, (2, max(n - 1, 0)))
    d = np.diag(rng.uniform(1.5, 2.5, n))
    d += np.diag(off[0], 1) + np.diag(off[1], -1)
    return LinearMap(d, x, x)


def operator_cases(n, seed):
    """(pair, realization, its dense L) for the lift and the jet
    target of a random wave system, of a two-block pair, whose Pi2 has one
    row, and of a pair with one X coordinate, whose B_ext has one row."""
    rng = np.random.default_rng(seed)
    pairs = (random_wave_system(n, rng).dual_pair,
             synthetic_two_block_pair(rng, nx=min(n + 2, 5)),
             synthetic_two_block_pair(rng, nx=1, ny=2, nb=1, m1=1, m2=0))
    for dp in pairs:
        a = dp.A.matrix.toarray()
        yield dp, lift_second_order(dp), oracle.realized_action(
            dp, a, np.eye(dp.A.domain.dim))
        yield dp, strain_momentum(dp), oracle.realized_action(
            dp, np.eye(dp.A.codomain.dim), a)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_csr_action_has_the_dense_recipes_bytes(n, seed):
    for dp, op, dense in operator_cases(n, seed):
        assert op.L.toarray().tobytes() == dense.tobytes()
        assert op.L.has_canonical_format and op.L.data.all()
        assert green_residual(op) == dense_green_residual(op, dense)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       banded=st.booleans(), dt=st.sampled_from([DT, -DT]))
def test_node_and_step_keep_the_dense_bytes(n, seed, banded, dt):
    rng = np.random.default_rng(seed)
    for dp, op, dense in operator_cases(n, seed):
        x, m = op.core.blocks[1], op.n_boundary
        p = 0.6 * np.linalg.qr(rng.standard_normal((m, m)))[0]
        mass = LinearMap(np.diag(rng.uniform(0.5, 2.0, x.dim)), x, x)
        damping = (banded_damping(x, rng) if banded else
                   LinearMap(np.diag(rng.uniform(0.0, 1.0, x.dim)), x, x))
        assert op.L.toarray().tobytes() == dense.tobytes()
        for build in (impedance_node, scattering_node):
            nd = build(op, p, mass, damping)
            l_eff = oracle.effective_action(op, nd.D, nd.M_inv)
            assert nd.L_eff.tobytes() == l_eff.tobytes()
            behind, ahead = oracle.step_matrices(l_eff, nd.G_map, dt)
            solver = StepSolver(nd, dt)
            lu, piv = scipy.linalg.lu_factor(ahead)
            for got, want in ((solver._behind, behind), (solver._lu[0], lu),
                              (solver._lu[1], piv)):
                assert oracle.same_canonical_bytes(got, want)
            n1, core = op.core_blocks[0], op.core.dim
            z = rng.standard_normal((5, op.ext_dim))
            assert same_bytes(nd.dissipated_power(z), dense_dissipated_power(
                damping, nd.M_inv, z, n1, core))


@pytest.mark.parametrize("realize", [lift_second_order, strain_momentum])
def test_action_and_damping_band_are_read_only(realize, rng):
    sys = random_wave_system(8, rng)
    op = realize(sys.dual_pair)
    for x in (op.L.data, op.L.indices, op.L.indptr):
        assert not x.flags.writeable
    d = banded_damping(sys.X, rng)
    nd = impedance_node(op, np.eye(2), sys.M_map, d)
    for x in (nd.D.data, nd.D.indices, nd.D.indptr):
        assert not x.flags.writeable
    assert nd.D.nnz == 3 * sys.X.dim - 2
    assert nd.D.toarray().tobytes() == d.matrix.toarray().tobytes()


def test_a_dense_action_is_stored_as_its_csr(rng):
    op = wave_system(4).op_A
    dense = op.L.toarray()
    dense[0, 0] = -0.0
    again = dataclasses.replace(op, L=dense)
    assert again.L is not op.L and again.L.nnz == op.L.nnz
    assert not again.L.data.flags.writeable
    assert again.L.toarray().tobytes() == op.L.toarray().tobytes()


def held_bytes(value, seen):
    """Bytes of the arrays reachable through the dataclass fields, tuples
    and CSR arrays of ``value``, each array counted once."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, csr_array):
        return sum(held_bytes(x, seen)
                   for x in (value.data, value.indices, value.indptr))
    if isinstance(value, tuple):
        return sum(held_bytes(x, seen) for x in value)
    if dataclasses.is_dataclass(value):
        return sum(held_bytes(getattr(value, f.name), seen)
                   for f in dataclasses.fields(value))
    return 0


def test_a_node_at_512_cells_holds_under_a_megabyte(rng):
    sys = random_wave_system(512, rng)
    nd = impedance_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
    ext = nd.op.ext_dim
    assert 8 * ext * ext > 8_000_000           # one dense L would be 8.4 MB
    assert held_bytes(nd, set()) < 1_000_000
