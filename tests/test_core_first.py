"""Core-first extended coordinates, held to the dense formulas they replace.

Extended coordinates put the core first (see ``passivebc.triplet``), so the
library slices where the formulas write the projections iota, iota_Y and
y_select.  On random wave systems, for the second-order lift and the jet
target, the sliced forms must equal the dense ones byte for byte, and the
jet's normal-equation solves must agree with a least-squares oracle.
"""

import ast

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from passivebc.hilbert import contraction_norm
from passivebc.jet import pull_state, ran_A_defect
from passivebc.node import _row_forms, impedance_node, scattering_node
from passivebc.sim import StepSolver

from conftest import ROOT, random_wave_system
from test_triplet import assert_realizes, jet_recipe, lift_recipe

SYSTEMS = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
               jet=st.booleans())


def system_and_node(n, seed, jet):
    """A random wave system, its lift or jet target, and a node on it."""
    rng = np.random.default_rng(seed)
    sys = random_wave_system(n, rng)
    op = sys.jet.target if jet else sys.op_A
    raw = rng.standard_normal((2, 2))
    p = raw * (rng.uniform(0.1, 1.0) / contraction_norm(raw, op.bspace))
    builder = impedance_node if rng.uniform() < 0.5 else scattering_node
    return sys, op, builder(op, p, sys.M_map, sys.D_map), rng


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(**SYSTEMS)
def test_realized_blocks_equal_y_select_products(n, seed, jet):
    sys, op, _, _ = system_and_node(n, seed, jet)
    recipe = jet_recipe if jet else lift_recipe
    assert_realizes(op, recipe(sys.dual_pair))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 300), **SYSTEMS)
def test_energy_split_equals_projected_forms(n, seed, jet, rows):
    _, op, nd, rng = system_and_node(n, seed, jet)
    f = nd.ledger_factors
    z = rng.standard_normal((rows, op.ext_dim))
    zc = z @ op.iota.T
    want = (0.5 * _row_forms(zc[:, :f.n1], f.w_p),
            0.5 * _row_forms(zc[:, f.n1:], f.w_k))
    got = f.energy_split(z)
    assert all(same_bytes(g, w) for g, w in zip(got, want))


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-4, 1e-1), **SYSTEMS)
def test_node_and_step_matrices_equal_dense_iota_formulas(n, seed, jet, dt):
    sys, op, nd, _ = system_and_node(n, seed, jet)
    iota = op.iota
    n1 = op.core_blocks[0]
    damping_rows = np.zeros((op.core.dim, op.ext_dim))
    damping_rows[n1:, :] = sys.D_map.matrix @ iota[n1:, :]
    assert same_bytes(nd.L_eff, (op.L - damping_rows) @ nd.weight_ext)
    solver = StepSolver(nd, dt)
    assert same_bytes(solver._ahead, np.vstack(
        [iota - 0.5 * dt * nd.L_eff, nd.G_map]))
    assert same_bytes(solver._behind, np.vstack(
        [iota + 0.5 * dt * nd.L_eff, -nd.G_map]))


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
    """No module reads ``.iota`` (the property builds the dense [I | 0]
    for callers outside the package), the removed iota_Y or the jet's
    former projectors."""
    offenders = []
    for path in sorted((ROOT / "src" / "passivebc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            if node.attr in ("iota", "iota_Y", "P_ker", "P_ran"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not offenders, offenders
