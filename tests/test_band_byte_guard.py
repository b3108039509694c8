"""Validating Grams by their band leaves every operator the step reads bit
for bit as the dense validation gives it.

Each system is built twice: by the library, and with the dense oracle
(``dense_gram_oracle.make_space``) patched into every module that binds
``make_space``.  The oracle's spaces claim a band that spans the whole
square, so the band-reading gates read all of it there.  Both builds must
store the same bytes in the core Gram, the node's ``L_eff``, ``G_map``,
``K_map``, ``M_inv`` and state Gram and the step factor, and the step
factor, for dt and for the inverse step's -dt, must also equal the one
formed by ``vstack`` and a plain ``lu_factor`` of the stacked matrix.
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


def operator_bytes(N, check_stacking):
    """Digests of every operator the step reads, per (operator, flavor,
    damping), with the Green residuals of the dual pair and the lift."""
    coeffs = wave1d.random_coefficients(N, np.random.default_rng(N))
    sys = wave1d.assemble(coeffs)
    out = {"dual_pair.residual": sys.dual_pair.residual}
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


@pytest.mark.parametrize("N", [1, 2, 7, 64, 512])
def test_operators_keep_their_bytes(N, monkeypatch):
    banded = operator_bytes(N, check_stacking=True)
    with monkeypatch.context() as patch:
        for module in (hilbert, triplet, wave1d, node):
            patch.setattr(module, "make_space", oracle.make_space)
        dense = operator_bytes(N, check_stacking=False)
    assert banded.keys() == dense.keys()
    for key, value in dense.items():
        assert banded[key] == value, key
