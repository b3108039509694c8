"""Holding Grams, maps, masses and damping as sparse arrays and
multiplying by them sparsely leave every nonzero entry of every operator
the step reads bit for bit as the dense set-up gives it.

Each system is built twice: by the library, and with the dense oracle
(``dense_gram_oracle``) patched in: its ``make_space`` and
``direct_sum`` into every module that binds the library's, its dense
``extend_adjoint``, lift and ``prepare_weights`` in place of the
library's, its dense ``mass_weight`` in place of the node's CSR one, so
the port maps are GEMMs with it, and the CSR of its dense
``effective_action`` as the node's ``L_eff``.  The oracle validates
every Gram densely, and every set-up product with a Gram or M^{-1} is a
dense GEMM or LAPACK solve there.  Both builds
must store the same bytes in the extended Y Gram and ``B_ext``, the core
Gram's second block, the node's ``L_eff``, ``G_map``, ``K_map``, ``M_inv``
and kinetic Gram and the step factor, and the step matrices and factor,
for dt and for the inverse step's -dt, must also equal the dense recipe
(``dense_gram_oracle.step_matrices`` of the oracle's ``effective_action``,
not of the library's ``L_eff``) and a plain ``lu_factor`` of its
``ahead``.  Bytes are compared after ``+ 0.0``, so a zero of either sign
reads as +0.0, the set-up's byte contract (``passivebc.hilbert``).  The
core Gram's first block,
the lift's X_h = sym(A^T W_Y A), is a sparse product that no step reads
(the ledger's H does): it is held to the dense GEMM's entries to 1e-15
relative, since each of its entries sums terms of one sign, and the
lift's Green residual, which reads it, to 1e-15.
"""

import hashlib

import numpy as np
import pytest
import scipy.linalg

from passivebc import hilbert, node, triplet, wave1d
from passivebc.hilbert import LinearMap, _frozen_csr
from passivebc.sim import StepSolver

import dense_gram_oracle as oracle

DT = 1e-3


def digest(a: np.ndarray) -> str:
    """Hash of the bytes of ``a + 0.0``, without holding the bytes."""
    return hashlib.blake2b(np.ascontiguousarray(a) + 0.0).hexdigest()


def operator_bytes(N, length, check_stacking):
    """Digests of every operator the step reads, per (operator, flavor,
    damping), with the Green residuals of the dual pair and the lift."""
    coeffs = wave1d.random_coefficients(N, np.random.default_rng(N),
                                        length=length)
    sys = wave1d.assemble(coeffs)
    b_ext = sys.dual_pair.B_ext
    out = {"dual_pair.residual": sys.dual_pair.residual,
           "B_ext": digest(b_ext.matrix.toarray()),
           "ext": digest(b_ext.domain.gram)}
    undamped = LinearMap(np.zeros((N + 1, N + 1)), sys.X, sys.X)
    p = 0.6 * np.array([[0.6, -0.8], [0.8, 0.6]])
    for name, op in (("lift", sys.op_A), ("jet", sys.op_strain)):
        first, second = op.core.blocks
        out[name, "first"] = first.gram
        out[name, "core"] = digest(second.gram)
        out[name, "green"] = triplet.green_residual(op)
        for build in (node.scattering_node, node.impedance_node):
            for damping, d in (("damped", sys.D_map), ("undamped", undamped)):
                nd = build(op, p, sys.M_map, d)
                solver = StepSolver(nd, DT)
                key = (name, build.__name__, damping)
                out[key + ("L_eff",)] = digest(nd.L_eff.toarray())
                for field in ("G_map", "K_map"):
                    out[key + (field,)] = digest(getattr(nd, field))
                out[key + ("M_inv",)] = digest(nd.M_inv.toarray())
                assert nd.state_space.blocks[0] is first
                out[key + ("state",)] = digest(nd.state_space.blocks[1].gram)
                out[key + ("lu",)] = digest(solver._lu[0])
                out[key + ("piv",)] = digest(solver._lu[1])
                if not check_stacking:
                    continue
                # -dt too: the inverse step turns +0.0 entries into -0.0
                l_eff = oracle.effective_action(op, nd.D, nd.M_inv)
                for dt, sol in ((DT, solver), (-DT, StepSolver(nd, -DT))):
                    behind, ahead = oracle.step_matrices(l_eff, nd.G_map, dt)
                    lu, piv = scipy.linalg.lu_factor(ahead)
                    for got, want in ((sol._behind, behind),
                                      (sol._lu[0], lu), (sol._lu[1], piv)):
                        assert oracle.same_canonical_bytes(got, want)
    return out


def assert_dense_bytes(N, length, monkeypatch):
    banded = operator_bytes(N, length, check_stacking=True)
    with monkeypatch.context() as patch:
        for module in (hilbert, triplet, wave1d, node):
            patch.setattr(module, "make_space", oracle.make_space)
        for module in (triplet, node):
            patch.setattr(module, "direct_sum", oracle.direct_sum)
        patch.setattr(wave1d, "extend_adjoint", oracle.extend_adjoint)
        patch.setattr(wave1d, "lift_second_order", oracle.lift_second_order)
        patch.setattr(node, "_prepare_weights", oracle.prepare_weights)
        patch.setattr(node, "_mass_weight", oracle.mass_weight)
        patch.setattr(node.BoundaryNode, "L_eff", property(
            lambda nd: _frozen_csr(oracle.effective_action(nd.op, nd.D,
                                                           nd.M_inv))))
        dense = operator_bytes(N, length, check_stacking=False)
    assert banded.keys() == dense.keys()
    for key, value in dense.items():
        if key == ("lift", "first"):
            assert (np.abs(banded[key] - value)
                    <= 1e-15 * np.abs(value)).all()
        elif key == ("lift", "green"):
            # W_Z L reads X_h, whose entries moved by 1e-15 relative
            assert abs(banded[key] - value) <= 1e-15
        elif key == ("jet", "first"):
            assert banded[key].tobytes() == value.tobytes()
        else:
            assert banded[key] == value, key


@pytest.mark.parametrize("N", [1, 2, 7, 64, 192, 512])
def test_operators_keep_their_bytes(N, monkeypatch):
    assert_dense_bytes(N, 1.0, monkeypatch)


def test_operators_keep_their_bytes_off_unit_length(monkeypatch):
    # cell widths h = 1.3 / 192 are not powers of two: W_X and W_Y round
    assert_dense_bytes(192, 1.3, monkeypatch)
