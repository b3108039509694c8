"""The node's row-wise energy ledger, held to the formulas it replaces.

``BoundaryNode.energy_split``, ``dissipated_power``, ``scattering_slack``
and ``supplied_power`` evaluate one state (or port sample) per row.  The
oracle below is the former per-node factor class: the same formulas in the
same operand order on factors built apart from the node, so every method
must equal it byte for byte on random wave systems, for the lift and the
jet target, with and without damping, under a random boundary Gram.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
from passivebc.sim import LEDGER_CHUNK

from conftest import dense_mass_weight, row_forms, wave_system
from test_core_first import same_bytes


def ledger_oracle(nd):
    """The four ledger forms of the removed ``LedgerFactors``."""
    op = nd.op
    n1, core = op.core_blocks[0], op.core.dim
    w = nd.state_space.gram
    w_p, w_k = w[:n1, :n1], w[n1:, n1:]
    damping = nd.D.matrix.T @ nd.D.domain.gram
    mass = dense_mass_weight(nd)
    a, b = op.bspace.gram @ op.Gamma0 @ mass, op.Gamma1 @ mass
    trace_gap = a - b
    p = nd.P.matrix
    dual = np.linalg.inv(op.bspace.gram)

    def energy_split(z):
        return (0.5 * row_forms(z[:, :n1], w_p),
                0.5 * row_forms(z[:, n1:core], w_k))

    def dissipated_power(z):
        return row_forms(z[:, n1:core] @ nd.M_inv.T, damping)

    def scattering_slack(z):
        v = z @ trace_gap.T
        return 0.5 * (row_forms(v, dual) - row_forms(v @ p.T, dual))

    def supplied_power(u, y):
        if nd.flavor == "impedance":
            return np.einsum("ij,ij->i", u @ dual, y)
        return 0.5 * (row_forms(u, dual) - row_forms(y, dual))
    return energy_split, dissipated_power, scattering_slack, supplied_power


def random_node(n, seed, flavor, jet, damped):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((2, 2))
    sys = wave1d.assemble(wave1d.random_coefficients(n, rng),
                          boundary_gram=f @ f.T + 0.5 * np.eye(2))
    op = sys.jet.target if jet else sys.op_A
    raw = rng.standard_normal((2, 2))
    p = raw * (rng.uniform(0.0, 1.0) / contraction_norm(raw, op.bspace))
    damping = sys.D_map if damped else LinearMap(
        np.zeros((n + 1, n + 1)), sys.X, sys.X)
    builder = impedance_node if flavor == "impedance" else scattering_node
    return builder(op, p, sys.M_map, damping), rng


CASES = dict(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
             flavor=st.sampled_from(["impedance", "scattering"]),
             jet=st.booleans(), damped=st.booleans(),
             rows=st.sampled_from([1, LEDGER_CHUNK - 1, LEDGER_CHUNK,
                                   LEDGER_CHUNK + 1]))


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_row_methods_equal_former_factor_formulas(n, seed, flavor, jet,
                                                  damped, rows):
    nd, rng = random_node(n, seed, flavor, jet, damped)
    energy_split, dissipated_power, scattering_slack, supplied_power = \
        ledger_oracle(nd)
    z = rng.standard_normal((rows, nd.op.ext_dim))
    u, y = rng.standard_normal((2, rows, nd.G_map.shape[0]))
    got_p, got_k = nd.energy_split(z)
    want_p, want_k = energy_split(z)
    assert same_bytes(got_p, want_p) and same_bytes(got_k, want_k)
    assert same_bytes(nd.dissipated_power(z), dissipated_power(z))
    assert same_bytes(nd.scattering_slack(z), scattering_slack(z))
    assert same_bytes(nd.supplied_power(u, y), supplied_power(u, y))
    if not damped:
        assert not nd.dissipated_power(z).any()


class TestShapeMismatch:
    @pytest.fixture(scope="class")
    def nd(self):
        sys = wave_system(4, b=0.2)
        return scattering_node(sys.op_A, 0.5 * np.eye(2), sys.M_map,
                               sys.D_map)

    @pytest.mark.parametrize("method", ["energy_split", "dissipated_power",
                                        "scattering_slack"])
    @pytest.mark.parametrize("shape", ["one state", "wrong width",
                                       "three axes"])
    def test_states_must_be_rows_of_node_width(self, nd, method, shape):
        ext = nd.op.ext_dim
        z = {"one state": np.zeros(ext),
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
