"""The node's row-wise energy ledger, held to the formulas it replaces.

``BoundaryNode.energy_split``, ``dissipated_power``, ``scattering_slack``
and ``supplied_power`` evaluate one state (or port sample) per row of a
block, and a single state as the block of that one row.  The
oracle below is the former per-node factor class: the same formulas in the
same operand order on factors built apart from the node, so every method
must equal it byte for byte on random wave systems, for the lift and the
jet target, with and without damping, under a random boundary Gram; the
energy of a non-diagonal Gram block (the lift's ``A^T W_Y A``), which
the node sums by diagonals, to a rounding bound, at every N.  The
products with the dense factors (``a - b``, P, the dual Gram) are summed
row by row (``einsum``), as the node sums them, where the former class
used GEMMs, whose rows take bits from their place in the block.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import passivebc.node as node_mod
from passivebc import wave1d
from passivebc.errors import NonFiniteValue, ShapeMismatch
from passivebc.hilbert import LinearMap, contraction_norm
from passivebc.node import (
    BoundaryNode,
    impedance_node,
    passivity_residual,
    scattering_node,
)
from passivebc.sim import _block_steps

from conftest import dense_mass_weight, row_forms, wave_system
from test_core_first import assert_half_forms, same_bytes


def ledger_oracle(nd):
    """The four ledger forms of the removed ``LedgerFactors``."""
    op = nd.op
    n1, core = op.core_blocks[0], op.core.dim
    w = nd.state_space.gram
    w_p, w_k = w[:n1, :n1], w[n1:, n1:]
    damping = nd.D.toarray().T @ op.core.blocks[1].gram
    mass = dense_mass_weight(nd)
    a, b = op.bspace.gram @ op.Gamma0 @ mass, op.Gamma1 @ mass
    trace_gap = a - b
    p = nd.P.matrix
    dual = np.linalg.inv(op.bspace.gram)

    def energy_split(z):
        return (0.5 * row_forms(z[:, :n1], w_p),
                0.5 * row_forms(z[:, n1:core], w_k))

    def dissipated_power(z):
        return row_forms(z[:, n1:core] @ nd.M_inv.toarray().T, damping)

    def times(x, f):
        """``x @ f^T``, each row summed alone."""
        return np.einsum("ij,kj->ik", x, f)

    def forms(x, w):
        return np.einsum("ij,ij->i", times(x, w.T), x)

    def scattering_slack(z):
        v = times(z, trace_gap)
        return 0.5 * (forms(v, dual) - forms(times(v, p), dual))

    def supplied_power(u, y):
        if nd.flavor == "impedance":
            return np.einsum("ij,ij->i", times(u, dual.T), y)
        return 0.5 * (forms(u, dual) - forms(y, dual))
    return energy_split, dissipated_power, scattering_slack, supplied_power


def random_node(n, seed, flavor, jet, damped):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((2, 2))
    sys = wave1d.assemble(wave1d.random_coefficients(n, rng),
                          boundary_gram=f @ f.T + 0.5 * np.eye(2))
    op = sys.op_strain if jet else sys.op_A
    raw = rng.standard_normal((2, 2))
    p = raw * (rng.uniform(0.0, 1.0) / contraction_norm(raw, op.bspace))
    damping = sys.D_map if damped else LinearMap(
        np.zeros((n + 1, n + 1)), sys.X, sys.X)
    builder = impedance_node if flavor == "impedance" else scattering_node
    return builder(op, p, sys.M_map, damping), rng


# a block's rows as (blocks, extra): blocks * k + extra for k the steps of
# a run's block at the node's ext_dim
CASES = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
             flavor=st.sampled_from(["impedance", "scattering"]),
             jet=st.booleans(), damped=st.booleans(),
             rows=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1)]))


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_row_methods_equal_former_factor_formulas(n, seed, flavor, jet,
                                                  damped, rows):
    nd, rng = random_node(n, seed, flavor, jet, damped)
    blocks, extra = rows
    rows = blocks * _block_steps(nd.op.ext_dim) + extra
    energy_split, dissipated_power, scattering_slack, supplied_power = \
        ledger_oracle(nd)
    z = rng.standard_normal((rows, nd.op.ext_dim))
    u, y = rng.standard_normal((2, rows, nd.G_map.shape[0]))
    n1, core = nd.op.core_blocks[0], nd.op.core.dim
    for got, want, x, block in zip(nd.energy_split(z), energy_split(z),
                                   (z[:, :n1], z[:, n1:core]),
                                   nd.state_space.blocks):
        assert_half_forms(got, want, x, block)
    assert same_bytes(nd.dissipated_power(z), dissipated_power(z))
    assert same_bytes(nd.scattering_slack(z), scattering_slack(z))
    assert same_bytes(nd.supplied_power(u, y), supplied_power(u, y))
    if not damped:
        assert not nd.dissipated_power(z).any()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       flavor=st.sampled_from(["impedance", "scattering"]),
       jet=st.booleans(),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12))
@example(n=4, seed=0, flavor="impedance", jet=False, sizes=[1, 1, 30, 1])
@example(n=64, seed=1, flavor="scattering", jet=False, sizes=[1, 255, 1])
def test_row_forms_read_each_row_alone(n, seed, flavor, jet, sizes):
    # every ledger form of the rows has the bytes it has in any other
    # partition of the rows into blocks
    nd, rng = random_node(n, seed, flavor, jet, damped=True)
    z = rng.standard_normal((sum(sizes), nd.op.ext_dim))
    u, y = rng.standard_normal((2, len(z), nd.G_map.shape[0]))

    def forms(rows):
        return (*nd.energy_split(z[rows]), nd.dissipated_power(z[rows]),
                nd.scattering_slack(z[rows]),
                nd.supplied_power(u[rows], y[rows]))
    whole = forms(slice(None))
    cuts = np.cumsum([0] + sizes)
    parts = [forms(slice(i, j)) for i, j in zip(cuts[:-1], cuts[1:])]
    for k, want in enumerate(whole):
        assert same_bytes(np.concatenate([p[k] for p in parts]), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_energy_rows_equal_their_one_row_blocks_at_small_n(n):
    # for N <= 3 the lift's tridiagonal X_h is as wide as 4b >= n: it is
    # summed by its diagonals all the same, so no row's energy depends on
    # the rows evaluated with it (30 seeds, 300 states)
    for seed in range(30):
        nd, rng = random_node(n, seed, "scattering", jet=False, damped=True)
        z = rng.standard_normal((10, nd.op.ext_dim))
        whole = nd.energy_split(z)
        rows = [nd.energy_split(z[i:i + 1]) for i in range(len(z))]
        for k, want in enumerate(whole):
            assert same_bytes(np.concatenate([r[k] for r in rows]), want)


@settings(max_examples=30, deadline=None)
@given(**{k: v for k, v in CASES.items() if k != "rows"})
def test_one_state_gives_its_one_row_value(n, seed, flavor, jet, damped):
    nd, rng = random_node(n, seed, flavor, jet, damped)
    z = rng.standard_normal(nd.op.ext_dim)
    u, y = rng.standard_normal((2, nd.G_map.shape[0]))
    pairs = [(nd.energy_split(z), nd.energy_split(z[None])),
             ((nd.dissipated_power(z),), (nd.dissipated_power(z[None]),)),
             ((nd.scattering_slack(z),), (nd.scattering_slack(z[None]),)),
             ((nd.supplied_power(u, y),),
              (nd.supplied_power(u[None], y[None]),))]
    for state, block in pairs:
        for got, want in zip(state, block):
            assert np.ndim(got) == 0
            assert same_bytes(np.reshape(got, 1), want)


class TestShapeMismatch:
    @pytest.fixture(scope="class")
    def nd(self):
        sys = wave_system(4, b=0.2)
        return scattering_node(sys.op_A, 0.5 * np.eye(2), sys.M_map,
                               sys.D_map)

    @pytest.mark.parametrize("method", ["energy_split", "dissipated_power",
                                        "scattering_slack"])
    @pytest.mark.parametrize("shape", ["scalar", "short state",
                                       "wrong width", "three axes"])
    def test_states_must_be_rows_of_node_width(self, nd, method, shape):
        ext = nd.op.ext_dim
        z = {"scalar": np.float64(0.0),
             "short state": np.zeros(ext - 1),
             "wrong width": np.zeros((3, ext - 1)),
             "three axes": np.zeros((1, 3, ext))}[shape]
        with pytest.raises(ShapeMismatch, match="states"):
            getattr(nd, method)(z)

    @pytest.mark.parametrize("u, y", [
        (np.zeros(2), np.zeros((1, 2))),
        (np.zeros((4, 3)), np.zeros((4, 2))),
        (np.zeros((4, 2)), np.zeros((4, 1))),
        (np.zeros((4, 2)), np.zeros((1, 2))),
    ])
    def test_port_samples_must_be_matching_rows(self, nd, u, y):
        with pytest.raises(ShapeMismatch):
            nd.supplied_power(u, y)


def test_one_realization_of_the_ledger():
    assert not hasattr(node_mod, "LedgerFactors")
    assert not hasattr(node_mod, "scattering_slack")
    assert not hasattr(BoundaryNode, "ledger_factors")
    assert {"LedgerFactors", "scattering_slack"}.isdisjoint(node_mod.__all__)


def test_ledger_factors_are_formed_once_per_node(monkeypatch):
    # dissipated_power reads M^{-T} and D^T W_D on every block: it
    # multiplies by their transposes, M^{-1} as the node holds it and the
    # CSR of a fresh transpose of D^T W_D, formed on first use
    sys = wave_system(6, b=0.2)
    nd = scattering_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
    frozen = []
    real = node_mod._frozen_csr
    monkeypatch.setattr(node_mod, "_frozen_csr",
                        lambda a: frozen.append(a) or real(a))
    z = np.random.default_rng(5).standard_normal((3, 5, nd.op.ext_dim))
    powers = [nd.dissipated_power(block) for block in z]
    assert len(frozen) == 1     # (D^T W_D)^T, once
    damping_t = nd._ledger_factors[1]
    want = sys.D_map.matrix.toarray().T @ sys.op_A.core.blocks[1].gram
    assert damping_t.toarray().tobytes() == \
        np.ascontiguousarray(want.T).tobytes()
    assert all(p.shape == (5,) and (p > 0.0).all() for p in powers)


class TestPassivityResidualNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["state", "input", "output"])
    def test_refused_at_entry(self, bad, arg):
        sys = wave_system(4, b=0.2)
        nd = impedance_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
        z = np.linspace(-1.0, 1.0, nd.op.ext_dim)
        args = {"state": z, "input": nd.G_map @ z, "output": nd.K_map @ z}
        args[arg] = args[arg].copy()
        args[arg][0] = bad
        with pytest.raises(NonFiniteValue, match=arg):
            passivity_residual(nd, args["state"], args["input"],
                               args["output"])
