"""Core-first extended coordinates, held to the dense formulas they replace.

Extended coordinates put the core first (see ``passivebc.triplet``), so the
library slices where the formulas write the projections iota, iota_Y and
y_select, and a node multiplies by one CSR array (``node._mass_weight``)
where the formulas write the mass weight ``diag(I, M^{-1}, I)``.  On random
wave systems, for the second-order lift and the jet target, the sliced forms
must equal the dense ones (``dense_gram_oracle``) bit for bit, up to the
sign of a zero (to 1e-14 relative for a
non-diagonal mass, whose products BLAS may sum in another order, and to a
rounding bound for the energy of a non-diagonal Gram block, which the
library sums by diagonals), and the jet's normal-equation solves must
agree with a least-squares oracle.
"""

import ast
import math

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivebc.hilbert import LinearMap, contraction_norm
from passivebc.jet import pull_state, ran_A_defect
from passivebc.node import (
    _mass_weight,
    impedance_node,
    scattering_node,
)
from passivebc.sim import StepSolver

from conftest import (ROOT, dense_mass_weight, half_width, iota,
                      random_wave_system, row_forms)
from test_triplet import assert_realizes, jet_recipe, lift_recipe

import dense_gram_oracle as oracle

SYSTEMS = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
               jet=st.booleans())


def system_and_node(n, seed, jet, full_mass=False):
    """A random wave system, its lift or jet target, and a node on it.

    With ``full_mass`` the node's mass is ``M = W_2^{-1} S`` for a random
    SPD S: self-adjoint for W_2, but neither diagonal nor symmetric.
    """
    rng = np.random.default_rng(seed)
    sys = random_wave_system(n, rng)
    op = sys.op_strain if jet else sys.op_A
    raw = rng.standard_normal((2, 2))
    p = raw * (rng.uniform(0.1, 1.0) / contraction_norm(raw, op.bspace))
    builder = impedance_node if rng.uniform() < 0.5 else scattering_node
    mass = sys.M_map
    if full_mass:
        x = mass.domain
        f = rng.standard_normal((x.dim, x.dim))
        s = f @ f.T / x.dim + np.eye(x.dim)
        mass = LinearMap(np.linalg.solve(x.gram, s), x, x)
    return sys, op, builder(op, p, mass, sys.D_map), rng


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_half_forms(got, want, x, space):
    """``got`` against ``want = 0.5 * row_forms(x, W)`` for the Gram W of
    ``space``: byte for byte for a diagonal W, whose products round alike;
    per row to ``2 (n + 2b + 2) eps * 0.5 |x|^T |W| |x|`` for any wider
    band of half-width b, which the band kernel sums diagonal by diagonal
    and the GEMM in its own order (each form is off by at most
    ``gamma_{n+2b+1}`` of that sum, Higham, Accuracy and Stability, 2nd
    ed., sec. 3.1)."""
    if half_width(space) == 0:
        assert same_bytes(got, want)
        return
    eps = np.finfo(float).eps
    w = space.gram
    bound = (2 * (len(w) + 2 * half_width(space) + 2) * eps
             * 0.5 * row_forms(np.abs(x), np.abs(w)))
    assert got.shape == want.shape and (np.abs(got - want) <= bound).all()


def dense_node_formulas(nd, z):
    """L_eff, G_map, K_map and the dissipated power of the rows of ``z``,
    from the dense mass weight ``W = diag(I, M^{-1}, I)``."""
    op, w = nd.op, dense_mass_weight(nd)
    n1, core = op.core_blocks[0], op.core.dim
    damping_rows = np.zeros((core, op.ext_dim))
    damping_rows[n1:, n1:core] = nd.D.toarray()
    g, k = port_maps(nd, op.bspace.gram @ op.Gamma0 @ w, op.Gamma1 @ w)
    power = row_forms(z @ w[n1:core].T,
                      nd.D.toarray().T @ op.core.blocks[1].gram)
    return (op.L.toarray() - damping_rows) @ w, g, k, power


def port_maps(nd, a, b):
    """G_map and K_map of the node's flavor and P from the weighted
    traces ``a = W_G Gamma0 W`` and ``b = Gamma1 W``."""
    p, eye = nd.P.matrix, np.eye(nd.op.n_boundary)
    if nd.flavor == "scattering":
        return (a + b) / math.sqrt(2.0), -p @ (a - b) / math.sqrt(2.0)
    return (0.5 * ((eye - p) @ a + (eye + p) @ b),
            0.5 * ((eye + p) @ a + (eye - p) @ b))


def sliced_mass_weighted(x, op, minv):
    """``x diag(I, M^{-1}, I)`` as the node formed it before it held the
    weight as CSR, written into x: its momentum columns scaled in place by
    a diagonal M^{-1}, else replaced by their CSR product with M^{-1}."""
    columns = x[:, op.core_blocks[0]:op.core.dim]
    diag = minv.diagonal()
    if np.count_nonzero(diag) == minv.nnz:
        np.multiply(columns, diag, out=columns)
    else:
        columns[...] = columns @ minv
    return x


def sliced_node_formulas(nd, z):
    return (nd.L_eff.toarray(), nd.G_map, nd.K_map, nd.dissipated_power(z))


@settings(max_examples=25, deadline=None)
@given(**SYSTEMS)
@example(n=9, seed=0, jet=False)
def test_realized_blocks_equal_y_select_products(n, seed, jet):
    sys, op, _, _ = system_and_node(n, seed, jet)
    recipe = jet_recipe if jet else lift_recipe
    assert_realizes(op, recipe(sys.dual_pair))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 300), **SYSTEMS)
def test_energy_split_equals_projected_forms(n, seed, jet, rows):
    _, op, nd, rng = system_and_node(n, seed, jet)
    n1, gram = op.core_blocks[0], nd.state_space.gram
    z = rng.standard_normal((rows, op.ext_dim))
    zc = z @ iota(op).T
    want = (0.5 * row_forms(zc[:, :n1], gram[:n1, :n1]),
            0.5 * row_forms(zc[:, n1:], gram[n1:, n1:]))
    for got, w, x, block in zip(nd.energy_split(z), want,
                                (zc[:, :n1], zc[:, n1:]),
                                nd.state_space.blocks):
        assert_half_forms(got, w, x, block)


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-4, 1e-1), **SYSTEMS)
def test_node_and_step_matrices_equal_dense_iota_formulas(n, seed, jet, dt):
    _, op, nd, _ = system_and_node(n, seed, jet)
    l_eff = oracle.effective_action(op, nd.D, nd.M_inv)
    assert same_bytes(nd.L_eff.toarray(), l_eff)
    solver = StepSolver(nd, dt)
    behind, ahead = oracle.step_matrices(l_eff, nd.G_map, dt)
    lu, piv = scipy.linalg.lu_factor(ahead)
    for got, want in ((solver._behind, behind), (solver._lu[0], lu),
                      (solver._lu[1], piv)):
        assert oracle.same_canonical_bytes(got, want)


def step_back_oracle(nd, dt, z, u_mid):
    """The removed ``StepSolver.step_back``: the backward system
    ``[iota + dt/2 L_eff; -G] z' = [iota - dt/2 L_eff; G] z - [0; 2 u]``
    with its own LU factor."""
    ncore = nd.op.core.dim
    l_eff = oracle.effective_action(nd.op, nd.D, nd.M_inv)
    behind, ahead = oracle.step_matrices(l_eff, nd.G_map, dt)
    rhs = ahead @ z
    rhs[ncore:] -= 2.0 * u_mid
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(behind), rhs,
                                 check_finite=False)


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-4, 1e-1), **SYSTEMS)
def test_negative_step_is_the_inverse_step(n, seed, jet, dt):
    # the step at -dt is the backward system with its input rows negated
    # on both sides; partial pivoting solves both to the same bytes
    _, op, nd, rng = system_and_node(n, seed, jet)
    z = rng.standard_normal(op.ext_dim)
    u = rng.standard_normal(nd.G_map.shape[0])
    back = StepSolver(nd, -dt).step(z, u)
    assert same_bytes(back, step_back_oracle(nd, dt, z, u))
    again = StepSolver(nd, dt).step(back, u)
    assert np.linalg.norm(again - z) <= 1e-10 * (1.0 + np.linalg.norm(z))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 40), zeros=st.floats(0.0, 1.0), **SYSTEMS)
def test_mass_weight_equals_dense_product(n, seed, jet, rows, zeros):
    # signed zeros in every column, which the comparison reads as +0.0
    _, op, nd, rng = system_and_node(n, seed, jet)
    x = rng.standard_normal((rows, op.ext_dim))
    x[rng.uniform(size=x.shape) < zeros] = -0.0
    weight = _mass_weight(op, nd.M_inv)
    assert weight.format == "csr" and weight.has_canonical_format
    assert weight.nnz == op.ext_dim - op.core_blocks[1] + nd.M_inv.nnz
    assert oracle.same_canonical_bytes(
        x @ weight, oracle.mass_weighted(x, op, nd.M_inv))


@settings(max_examples=25, deadline=None)
@given(full_mass=st.booleans(), **SYSTEMS)
@example(n=64, seed=0, jet=False, full_mass=True)
@example(n=64, seed=0, jet=True, full_mass=True)
def test_csr_mass_weight_keeps_the_sliced_bytes(n, seed, jet, full_mass):
    # a product with the CSR weight sums M^{-1}'s stored entries in the
    # order the sliced CSR product did, and scales by a diagonal one
    _, op, nd, _ = system_and_node(n, seed, jet, full_mass)
    assert (nd.M_inv.nnz > op.core_blocks[1]) == full_mass
    a = sliced_mass_weighted(op.bspace.gram @ op.Gamma0, op, nd.M_inv)
    b = sliced_mass_weighted(op.Gamma1.copy(), op, nd.M_inv)
    action = sliced_mass_weighted(oracle.damped_action(op, nd.D), op,
                                  nd.M_inv)
    for got, want in zip(
            (nd.G_map, nd.K_map, nd.L_eff.toarray(), nd._ledger_factors[0]),
            port_maps(nd, a, b) + (action, a - b)):
        assert oracle.same_canonical_bytes(got, want)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 50), **SYSTEMS)
def test_node_maps_equal_dense_mass_weight(n, seed, jet, rows):
    _, op, nd, rng = system_and_node(n, seed, jet)
    z = rng.standard_normal((rows, op.ext_dim))
    for got, want in zip(sliced_node_formulas(nd, z),
                         dense_node_formulas(nd, z)):
        assert same_bytes(got, want)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 50), **SYSTEMS)
def test_node_maps_match_dense_weight_for_full_mass(n, seed, jet, rows):
    _, op, nd, rng = system_and_node(n, seed, jet, full_mass=True)
    z = rng.standard_normal((rows, op.ext_dim))
    for got, want in zip(sliced_node_formulas(nd, z),
                         dense_node_formulas(nd, z)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(n=SYSTEMS["n"], seed=SYSTEMS["seed"])
def test_normal_solves_match_least_squares(n, seed):
    rng = np.random.default_rng(seed)
    jt = random_wave_system(n, rng).jet
    a, w = jt.A_iso.matrix, jt.A_iso.codomain.gram
    r = scipy.linalg.cholesky(w)             # ||y||_W = ||r y||
    ra = r @ a
    q = scipy.linalg.orth(ra)                # orthonormal basis of ran(r A)
    x = rng.standard_normal(a.shape[1])
    ker = scipy.linalg.null_space(a.T @ w)   # ker A*
    for y in (rng.standard_normal(a.shape[0]), a @ x,
              a @ x + ker @ rng.standard_normal(ker.shape[1])):
        ry = r @ y
        scale = 1.0 + np.linalg.norm(ry)
        z1 = scipy.linalg.lstsq(ra, ry)[0]
        z2 = rng.standard_normal(a.shape[1])
        pulled = pull_state(jt, np.concatenate([y, z2]))
        assert np.abs(pulled[:a.shape[1]] - z1).max() <= 1e-10 * (
            1.0 + np.abs(z1).max())
        assert np.array_equal(pulled[a.shape[1]:], z2)
        distance = np.linalg.norm(ry - q @ (q.T @ ry))
        assert abs(ran_A_defect(jt, y) - distance) <= 1e-12 * scale


def test_projections_are_sliced_not_read():
    """No module reads the removed dense ``.iota`` (``conftest.iota``
    builds [I | 0] for the test oracles) or iota_Y, the jet's
    former projectors or the node's former dense mass weight, and no
    module defines or uses the removed second step map (``step_back`` with
    its ``_ahead`` matrix and ``_lu_back`` factor)."""
    projections = ("iota", "iota_Y", "P_ker", "P_ran", "weight_ext",
                   "velocity_rows")
    second_step = ("step_back", "_ahead", "_lu_back")
    offenders = []
    for path in sorted((ROOT / "src" / "passivebc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                name, banned = node.name, second_step
            elif isinstance(node, ast.Attribute):
                read = isinstance(node.ctx, ast.Load)
                name = node.attr
                banned = second_step + (projections if read else ())
            else:
                continue
            if name in banned:
                offenders.append(f"{path.name}:{node.lineno} .{name}")
    assert not offenders, offenders
