from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from passivebc import wave1d
from passivebc.hilbert import HilbertSpaceSpec, _norm, _sqrt_and_inv_sqrt

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


def dense_mass_weight(node):
    """The dense ``diag(I, M^{-1}, I_tau)`` a node applies by slicing."""
    n1 = node.op.core_blocks[0]
    nb = node.op.ext_dim - node.op.core.dim
    return scipy.linalg.block_diag(np.eye(n1), node.M_inv, np.eye(nb))


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
