from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from passivebc import wave1d

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
