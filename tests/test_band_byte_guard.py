"""Reading Grams by their band and scaling rows by diagonal Grams and
masses leave every operator the step reads bit for bit as the dense
set-up gives it.

Each system is built twice: by the library, and with the dense oracle
(``dense_gram_oracle``) patched in: its ``make_space`` and
``space_from_band`` into every module that binds the library's, and its
dense ``extend_adjoint``, lift, ``prepare_weights`` and ``mass_weighted``
in place of the library's.  The oracle's spaces claim a band that spans
the whole square, so the band-reading gates read all of it there and
every product with a Gram is a dense GEMM or LAPACK solve.  Both builds
must store the same bytes in the extended Y Gram and ``B_ext``, the core
Gram, the node's ``L_eff``, ``G_map``, ``K_map``, ``M_inv`` and state Gram
and the step factor, and the step factor, for dt and for the inverse
step's -dt, must also equal the one formed by ``vstack`` and a plain
``lu_factor`` of the stacked matrix.
"""

import hashlib

import numpy as np
import pytest
import scipy.linalg

from passivebc import hilbert, node, triplet, wave1d
from passivebc.hilbert import LinearMap
from passivebc.sim import StepSolver

import dense_gram_oracle as oracle

DT = 1e-3


def stacked_factor(nd, dt):
    """``behind`` and the LU factor of ``ahead`` built by stacking."""
    ncore = nd.op.core.dim
    with np.errstate(over="ignore", invalid="ignore"):
        behind = np.vstack([(0.5 * dt) * nd.L_eff + 0.0, -nd.G_map])
    ahead = np.vstack([0.0 - behind[:ncore], nd.G_map])
    diag = np.arange(ncore)
    for matrix in (ahead, behind):
        matrix[diag, diag] += 1.0
    return behind, scipy.linalg.lu_factor(ahead)


def digest(a: np.ndarray) -> str:
    """Hash of ``a.tobytes()``, without holding the bytes."""
    return hashlib.blake2b(np.ascontiguousarray(a)).hexdigest()


def operator_bytes(N, length, check_stacking):
    """Digests of every operator the step reads, per (operator, flavor,
    damping), with the Green residuals of the dual pair and the lift."""
    coeffs = wave1d.random_coefficients(N, np.random.default_rng(N),
                                        length=length)
    sys = wave1d.assemble(coeffs)
    b_ext = sys.dual_pair.B_ext
    out = {"dual_pair.residual": sys.dual_pair.residual,
           "B_ext": digest(b_ext.matrix), "ext": digest(b_ext.domain.gram)}
    undamped = LinearMap(np.zeros((N + 1, N + 1)), sys.X, sys.X)
    p = 0.6 * np.array([[0.6, -0.8], [0.8, 0.6]])
    for name, op in (("lift", sys.op_A), ("jet", sys.jet.target)):
        out[name, "core"] = digest(op.core.gram)
        out[name, "green"] = triplet.green_residual(op)
        for build in (node.scattering_node, node.impedance_node):
            for damping, d in (("damped", sys.D_map), ("undamped", undamped)):
                nd = build(op, p, sys.M_map, d)
                solver = StepSolver(nd, DT)
                key = (name, build.__name__, damping)
                for field in ("L_eff", "G_map", "K_map", "M_inv"):
                    out[key + (field,)] = digest(getattr(nd, field))
                out[key + ("state",)] = digest(nd.state_space.gram)
                out[key + ("lu",)] = digest(solver._lu[0])
                out[key + ("piv",)] = digest(solver._lu[1])
                if not check_stacking:
                    continue
                # -dt too: the inverse step turns +0.0 entries into -0.0
                for dt, sol in ((DT, solver), (-DT, StepSolver(nd, -DT))):
                    behind, (lu, piv) = stacked_factor(nd, dt)
                    assert sol._behind.tobytes() == behind.tobytes()
                    assert sol._lu[0].tobytes() == lu.tobytes()
                    assert sol._lu[1].tobytes() == piv.tobytes()
    return out


def assert_dense_bytes(N, length, monkeypatch):
    banded = operator_bytes(N, length, check_stacking=True)
    with monkeypatch.context() as patch:
        for module in (hilbert, wave1d):
            patch.setattr(module, "make_space", oracle.make_space)
        for module in (hilbert, triplet, wave1d, node):
            patch.setattr(module, "_space_from_band", oracle.space_from_band)
        patch.setattr(wave1d, "extend_adjoint", oracle.extend_adjoint)
        patch.setattr(wave1d, "lift_second_order", oracle.lift_second_order)
        patch.setattr(node, "_prepare_weights", oracle.prepare_weights)
        patch.setattr(node, "_mass_weighted", oracle.mass_weighted)
        dense = operator_bytes(N, length, check_stacking=False)
    assert banded.keys() == dense.keys()
    for key, value in dense.items():
        assert banded[key] == value, key


@pytest.mark.parametrize("N", [1, 2, 7, 64, 192, 512])
def test_operators_keep_their_bytes(N, monkeypatch):
    assert_dense_bytes(N, 1.0, monkeypatch)


def test_operators_keep_their_bytes_off_unit_length(monkeypatch):
    # cell widths h = 1.3 / 192 are not powers of two: W_X and W_Y round
    assert_dense_bytes(192, 1.3, monkeypatch)
