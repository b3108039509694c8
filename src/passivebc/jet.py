"""Equivalence transform between position-momentum and strain-momentum forms.

The two realizations of a dual pair with injective factor ``A: X -> Y``
are ``triplet.lift_second_order`` on the core ``(z1, z2)`` and
``triplet.strain_momentum`` on the core ``(w1, w2) in Y (+) X`` with action

    w1' = A w2-block,    w2' = B_ext [w1; tau],

traces

    Xi0 = (Lambda1 w2, Pi2 [w1; tau]),   Xi1 = (-Pi1 [w1; tau], Lambda2 w2).

This module transports states between them by ``w = (A z1, z2)``, a
state or a block of one state per row at a time.  On
states with w1 in ran A the strain-momentum form is exactly the
position-momentum one in new coordinates (``Xi_i (A z1, z2, tau) =
Gamma_i (z1, z2, tau)`` as matrices); off ran A the operator extends
naturally because ker A* is annihilated by B_ext.  Distance from ran A is
an invariant of the transformed flow; it is measured, and states are
pulled back, by one O(b n) solve with the normal matrix ``A^T W_Y A``
(``LinearMap.normal_gram``, a sparse product which the lift reads too),
factored by its band.  A is the map's CSR array: the push, the range
solve's right-hand side and the defect multiply by it sparsely, so no
product here is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficient
from .hilbert import (
    RANK_RTOL,
    LinearMap,
    _extreme_eigenvalues,
    _lower_band,
    _rows,
    _times_csr,
    norm,
)

__all__ = [
    "JetTransform",
    "build_jet",
    "push_state",
    "pull_state",
    "ran_A_defect",
]


@dataclass(frozen=True)
class JetTransform:
    """Transport data between the two first-order realizations."""

    A_iso: LinearMap
    normal_factor: np.ndarray         # lower band Cholesky factor, (b + 1) x n

    def normal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(A^T W_Y A)^{-1} rhs`` from the stored band factor."""
        return scipy.linalg.cho_solve_banded((self.normal_factor, True), rhs)


def build_jet(A: LinearMap) -> JetTransform:
    """Factor ``A.normal_gram`` by band, ``A^T W_Y A = C C^T`` with
    ``factor[k, i] = C[i + k, i]`` (LAPACK's lower band storage, ``pbtrf``).

    Raises ``RankDeficient`` when its smallest eigenvalue is at most
    ``RANK_RTOL`` times the largest, i.e. when A is not injective.
    """
    normal = A.normal_gram
    lo, hi = _extreme_eigenvalues(normal)
    if lo <= RANK_RTOL * max(abs(hi), 1e-300):
        raise RankDeficient(
            f"map {A.domain.label!r} -> {A.codomain.label!r} is not "
            f"injective (normal-matrix eigenvalue {lo:.3e})")
    factor = scipy.linalg.cholesky_banded(_lower_band(normal), lower=True)
    factor.setflags(write=False)
    return JetTransform(A_iso=A, normal_factor=factor)


def push_state(A: LinearMap, z: np.ndarray) -> np.ndarray:
    """Map a position-momentum core state (z1, z2), or each row of a block
    of them, to the strain-momentum core state (A z1, z2) of the factor
    map A."""
    nx = A.domain.dim
    z = _rows("position-momentum state", z, 2 * nx, finite=True)
    return np.concatenate([_times_csr(z[..., :nx], A.matrix), z[..., nx:]],
                          axis=-1)


def pull_state(jt: JetTransform, w: np.ndarray) -> np.ndarray:
    """Recover (z1, z2) from a strain-momentum core state with w1 in ran A,
    or from each row of a block of them; no pseudo-inverse is formed."""
    dim_y = jt.A_iso.codomain.dim
    w = _rows("strain-momentum state", w, dim_y + jt.A_iso.domain.dim,
              finite=True)
    return np.concatenate([_range_coordinates(jt, w[..., :dim_y]),
                           w[..., dim_y:]], axis=-1)


def _range_coordinates(jt: JetTransform, w1: np.ndarray) -> np.ndarray:
    """z minimizing ``||A z - w1||`` in the codomain norm by the weighted
    normal equations, for w1 and z a vector or a block of rows each."""
    a, w_y = jt.A_iso.matrix, jt.A_iso.codomain.gram_csr
    return jt.normal_solve((_times_csr(w1, w_y) @ a).T).T


def ran_A_defect(jt: JetTransform, w1: np.ndarray) -> np.ndarray | float:
    """Distance of a strain part w1, or of each row of a block of them,
    from ran A in the codomain norm."""
    w1 = _rows("strain part", w1, jt.A_iso.codomain.dim, finite=True)
    v = w1 - _times_csr(_range_coordinates(jt, w1), jt.A_iso.matrix)
    return norm(jt.A_iso.codomain, v)
