"""The boundary action L, the damping D and the effective action
``L_eff`` held as CSR.

``BoundaryOperator.L``, ``BoundaryNode.D`` (D on the momentum block) and
``BoundaryNode.L_eff`` are canonical read-only CSR arrays; the dense arrays
are built only when read.  Against the dense L that ``triplet._realize``
formed before (``dense_gram_oracle.realized_action``), and the dense
recipes then applied to it, the CSR action must give every byte of L,
``L_eff``, the Green residual and the dissipated power, and every nonzero
bit of both step matrices and the step factor, for the lift, the jet
target and the synthetic two-block pairs (one with a one-row Pi2, one with
a one-row B_ext).  A full SPD mass is the exception: its M^{-1} sums
several products into each momentum entry of ``L_eff``, which the CSR
product rounds apart from the GEMM's fused multiply-adds, so ``L_eff`` is
held to a rounding bound there, and the step to the recipe of the
library's ``L_eff``.  The readers of the CSR actions (``A_main``,
``internal_wellposedness``, ``skew_on_minimal``, ``passivity_residual``)
must match their dense recipes; and a node at N=512 must hold well under
one dense ext x ext array.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, eye_array

from passivebc.errors import (
    DegenerateCoreProjection,
    IllPosedRestriction,
    SingularCoreProjection,
)
from passivebc.extension import (
    _kernel_action,
    _restrict_to_kernel,
    generator_from_contraction,
)
from passivebc.hilbert import HilbertSpaceSpec, LinearMap, _row_forms
from passivebc.node import (
    impedance_node,
    internal_wellposedness,
    passivity_residual,
    scattering_node,
)
from passivebc.sim import StepSolver
from passivebc.triplet import (
    _frobenius,
    green_residual,
    lift_second_order,
    minimal_domain,
    skew_on_minimal,
    strain_momentum,
)
from passivebc.verify import random_contraction

from conftest import random_wave_system, wave_system
from test_band_gates import product_bound
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


def node_maps(op, rng, banded, full_mass=False):
    """A contraction P, a mass and a dissipative damping on ``op``: the
    mass diagonal, or with ``full_mass`` ``M = W_2^{-1} S`` for a random
    SPD S, self-adjoint for W_2 but neither diagonal nor symmetric."""
    x, m = op.core.blocks[1], op.n_boundary
    p = 0.6 * np.linalg.qr(rng.standard_normal((m, m)))[0]
    if full_mass:
        f = rng.standard_normal((x.dim, x.dim))
        s = f @ f.T / x.dim + np.eye(x.dim)
        mass = LinearMap(np.linalg.solve(x.gram, s), x, x)
    else:
        mass = LinearMap(np.diag(rng.uniform(0.5, 2.0, x.dim)), x, x)
    damping = (banded_damping(x, rng) if banded else
               LinearMap(np.diag(rng.uniform(0.0, 1.0, x.dim)), x, x))
    return p, mass, damping


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       banded=st.booleans(), full_mass=st.booleans(),
       dt=st.sampled_from([DT, -DT]))
def test_node_and_step_keep_the_dense_bytes(n, seed, banded, full_mass, dt):
    rng = np.random.default_rng(seed)
    for dp, op, dense in operator_cases(n, seed):
        p, mass, damping = node_maps(op, rng, banded, full_mass)
        assert op.L.toarray().tobytes() == dense.tobytes()
        for build in (impedance_node, scattering_node):
            nd = build(op, p, mass, damping)
            l_eff = oracle.effective_action(op, nd.D, nd.M_inv)
            got = nd.L_eff.toarray()
            if full_mass:
                # each entry is summed from the same products, by the CSR
                # product without the GEMM's fused multiply-adds
                weight = oracle.mass_weight(op, nd.M_inv)
                bound = product_bound(oracle.damped_action(op, nd.D), weight,
                                      len(weight) - 1)
                assert (np.abs(got - l_eff) <= bound).all()
                l_eff = got
            else:
                assert got.tobytes() == l_eff.tobytes()
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


def assert_kernel_action(got, dense, x):
    """``got`` against the dense recipe ``_kernel_action(dense, x)`` of a
    generator on ``span [I; X]``: byte for byte when no row of the boundary
    columns holds two nonzeros (none of the wave model's does), so that
    each entry of ``L[:, core:] X`` is one product; else to twice
    ``gamma_{nb+1}`` of its absolute sum (Higham, Accuracy and Stability,
    2nd ed., sec. 3.1), which the CSR product and the GEMM's fused
    multiply-adds round apart."""
    core = x.shape[1]
    want = _kernel_action(dense, x)
    assert got.shape == want.shape
    if (np.count_nonzero(dense[:, core:], axis=1) <= 1).all():
        assert got.tobytes() == want.tobytes()
    else:
        basis = np.vstack([np.eye(core), x])
        bound = 2 * (len(x) + 2) * np.finfo(float).eps * (np.abs(dense)
                                                          @ np.abs(basis))
        assert (np.abs(got - want) <= bound).all()


def dense_skew(op, dense):
    """``skew_on_minimal`` on the dense action and the dense core Gram."""
    v = minimal_domain(op)
    iv = v[:op.core.dim]
    compressed = iv.T @ op.core.gram @ dense @ v
    return float(np.linalg.norm(0.5 * (compressed + compressed.T)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       norm=st.floats(0.05, 2.0), banded=st.booleans())
def test_csr_readers_match_the_dense_recipes(n, seed, norm, banded):
    # A_main and the node's generator from L and L_eff as CSR, against
    # the dense recipe; skew_on_minimal within C9's 1e-12 and the
    # passivity defect within C3's 1e-10 (1 + |z|^2)
    rng = np.random.default_rng(seed)
    for dp, op, dense in operator_cases(n, seed):
        try:
            g = generator_from_contraction(
                op, random_contraction(rng, op.bspace, norm))
        except (IllPosedRestriction, SingularCoreProjection):
            pass
        else:
            assert_kernel_action(g.A_main, dense, g.X)
        try:
            skew = skew_on_minimal(op)
        except DegenerateCoreProjection:
            pass
        else:
            assert abs(skew - dense_skew(op, dense)) <= 1e-12
        p, mass, damping = node_maps(op, rng, banded)
        for build in (impedance_node, scattering_node):
            nd = build(op, p, mass, damping)
            l_eff = oracle.effective_action(op, nd.D, nd.M_inv)
            try:
                _, gen = internal_wellposedness(nd)
            except (IllPosedRestriction, SingularCoreProjection):
                gen = None
            if gen is not None:
                x, _ = _restrict_to_kernel(nd.G_map, op.core.dim)
                assert_kernel_action(gen, l_eff, x)
            z = rng.standard_normal(op.ext_dim)
            u, y = nd.G_map @ z, nd.K_map @ z
            want = 2.0 * (z[:op.core.dim] @ nd.state_space.gram @ (l_eff @ z)
                          - nd.supplied_power(u, y))
            assert abs(passivity_residual(nd, z, u, y) - want) \
                <= 1e-10 * (1.0 + z @ z)


READERS = {
    "A_main": lambda op, nd: generator_from_contraction(
        op, 0.5 * np.eye(2)).A_main,
    "internal_wellposedness": lambda op, nd: internal_wellposedness(nd),
    "passivity_residual": lambda op, nd: passivity_residual(
        nd, np.ones(op.ext_dim), nd.G_map.sum(axis=1),
        nd.K_map.sum(axis=1)),
    "skew_on_minimal": lambda op, nd: skew_on_minimal(op),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_form_no_dense_action_or_core_gram(reader, monkeypatch):
    # the CSR L, L_eff and core Grams are read as they are held: no
    # toarray of a sparse array with core rows, no dense Gram of the core
    # or state space (the boundary space's m x m Gram is dense by design)
    sys = random_wave_system(12, np.random.default_rng(5))
    op = sys.op_A
    nd = impedance_node(op, 0.5 * np.eye(2), sys.M_map, sys.D_map)
    core = op.core.dim
    toarray, gram = csr_array.toarray, HilbertSpaceSpec.gram.fget

    def checked_toarray(a, *args, **kwargs):
        assert a.shape[0] < core, f"dense {a.shape} array of a CSR"
        return toarray(a, *args, **kwargs)

    def checked_gram(space):
        assert space.dim < core, f"dense Gram of {space.label!r}"
        return gram(space)
    monkeypatch.setattr(csr_array, "toarray", checked_toarray)
    monkeypatch.setattr(HilbertSpaceSpec, "gram", property(checked_gram))
    READERS[reader](op, nd)


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
