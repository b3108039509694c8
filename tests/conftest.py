import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from passivebc import wave1d
from passivebc.hilbert import HilbertSpaceSpec, _norm, _sqrt_and_inv_sqrt
from passivebc.sim import LEDGER_CHUNK

ROOT = Path(__file__).resolve().parents[1]

# Property tests draw the same examples on every run, so a test run is
# reproducible; `--hypothesis-profile=default` draws fresh ones.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def wave_system(N, **kwargs):
    return wave1d.assemble(wave1d.constant_coefficients(N, **kwargs))


def random_wave_system(N, rng, **kwargs):
    return wave1d.assemble(wave1d.random_coefficients(N, rng, **kwargs))


def double_gamma1(monkeypatch):
    """Make ``verify`` check systems whose ``op_A`` has twice its trace
    ``Gamma1``, a Green-identity fault that the ``green`` suite must name."""
    from passivebc import verify
    build = verify.build_system

    def build_faulty(sc):
        sound = build(sc)
        op = sound.op_A
        return dataclasses.replace(sound, op_A=dataclasses.replace(
            op, Gamma1=2.0 * op.Gamma1))
    monkeypatch.setattr(verify, "build_system", build_faulty)


def iota(op):
    """The dense core projection ``[I | 0]`` the library applies by
    slicing."""
    return np.eye(op.core.dim, op.ext_dim)


def dense_mass_weight(node):
    """The dense ``diag(I, M^{-1}, I_tau)`` a node applies by slicing."""
    n1 = node.op.core_blocks[0]
    nb = node.op.ext_dim - node.op.core.dim
    return scipy.linalg.block_diag(np.eye(n1), node.M_inv, np.eye(nb))


def row_forms(x, w):
    """Quadratic form ``x_i^T W x_i`` of every row of ``x`` for a dense W:
    the GEMM the node's ledger forms must match."""
    return np.einsum("ij,ij->i", x @ w, x)


def is_dual_unitary(P, boundary_space: HilbertSpaceSpec,
                    tol: float = 1e-10) -> bool:
    """Whether P is unitary on the dual boundary space."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if boundary_space.dim == 0:
        return True
    w_half, w_inv_half = _sqrt_and_inv_sqrt(boundary_space.gram)
    u = w_inv_half @ P @ w_half
    return bool(np.linalg.norm(u.T @ u - np.eye(boundary_space.dim)) <= tol)


def energy_preserving(node) -> bool:
    """No damping (sym(W D) = 0) and a dual-unitary P."""
    wd = node.D.domain.gram @ node.D.matrix
    no_damping = _norm(wd + wd.T) <= 1e-10 * (1.0 + _norm(wd))
    return no_damping and is_dual_unitary(node.P.matrix, node.op.bspace)


def unstreamed_ledger(nd, times, states, inputs):
    """Outputs and ledger as evaluated over stored states before runs were
    streamed: H on the rows ``[i, i + LEDGER_CHUNK)``, the midpoint forms
    on the steps ``[i, i + LEDGER_CHUNK)``, supplied power in one call."""
    n = len(times) - 1
    hp, hk = np.empty(n + 1), np.empty(n + 1)
    for i in range(0, n + 1, LEDGER_CHUNK):
        rows = slice(i, i + LEDGER_CHUNK)
        hp[rows], hk[rows] = nd.energy_split(states[rows])
    outputs = np.empty((n, nd.G_map.shape[0]))
    dissipated, slack = np.empty(n), np.empty(n)
    for i in range(0, n, LEDGER_CHUNK):
        j = min(i + LEDGER_CHUNK, n)
        z_mid = 0.5 * (states[i:j] + states[i + 1:j + 1])
        outputs[i:j] = z_mid @ nd.K_map.T
        dissipated[i:j] = nd.dissipated_power(z_mid)
        slack[i:j] = nd.scattering_slack(z_mid)
    h = hp + hk
    supplied = nd.supplied_power(inputs, outputs)
    dt = float(times[1] - times[0])
    return dict(outputs=outputs, H=h, H_p=hp, H_k=hk, supplied=supplied,
                dissipated=dissipated, slack=dt * slack,
                residual=h[1:] - h[:-1] - dt * (supplied - dissipated))
