"""Equivalence transform between position-momentum and strain-momentum forms.

The two realizations of a dual pair with injective factor ``A: X -> Y``
are ``triplet.lift_second_order`` on the core ``(z1, z2)`` and
``triplet.strain_momentum`` on the core ``(w1, w2) in Y (+) X`` with action

    w1' = A w2-block,    w2' = B_ext [w1; tau],

traces

    Xi0 = (Lambda1 w2, Pi2 [w1; tau]),   Xi1 = (-Pi1 [w1; tau], Lambda2 w2).

This module transports states between them by ``w = (A z1, z2)``.  On
states with w1 in ran A the strain-momentum form is exactly the
position-momentum one in new coordinates (``Xi_i (A z1, z2, tau) =
Gamma_i (z1, z2, tau)`` as matrices); off ran A the operator extends
naturally because ker A* is annihilated by B_ext.  Distance from ran A is
an invariant of the transformed flow; it is measured, and states are
pulled back, by one solve with the factored normal matrix ``A^T W_Y A``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficient
from .hilbert import (
    RANK_RTOL,
    LinearMap,
    _band,
    _band_apply,
    _bandwidth,
    _expect_shape,
    _extreme_eigenvalues,
    _require_finite,
)
from .triplet import _normal_gram

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
    normal_factor: np.ndarray         # upper Cholesky factor of A^T W_Y A

    def normal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(A^T W_Y A)^{-1} rhs`` from the stored factor."""
        return scipy.linalg.cho_solve((self.normal_factor, False), rhs)


def build_jet(A: LinearMap) -> JetTransform:
    """Factor the normal matrix ``A^T W_Y A`` of the factor map ``A``.

    Raises ``RankDeficient`` when its smallest eigenvalue is at most
    ``RANK_RTOL`` times the largest, i.e. when A is not injective.
    """
    normal = _normal_gram(A)
    lo, hi = _extreme_eigenvalues(_band(normal, _bandwidth(normal)))
    if lo <= RANK_RTOL * max(abs(hi), 1e-300):
        raise RankDeficient(
            f"map {A.domain.label!r} -> {A.codomain.label!r} is not "
            f"injective (normal-matrix eigenvalue {lo:.3e})")
    factor = scipy.linalg.cholesky(normal)
    factor.setflags(write=False)
    return JetTransform(A_iso=A, normal_factor=factor)


def state_injection(jt: JetTransform, nb: int) -> np.ndarray:
    """Matrix diag(A, I, I_tau) carrying extended position-momentum states
    with ``nb`` boundary coordinates to strain-momentum ones."""
    nx = jt.A_iso.domain.dim
    return scipy.linalg.block_diag(jt.A_iso.matrix, np.eye(nx), np.eye(nb))


def _vector(name: str, x, size: int) -> np.ndarray:
    """``x`` as a float vector; ``ShapeMismatch`` unless it has shape
    ``(size,)``, ``NonFiniteValue`` if it holds NaN or infinity."""
    x = np.asarray(x, dtype=float)
    _expect_shape(name, x, (size,))
    _require_finite(**{name: x})
    return x


def push_state(jt: JetTransform, z: np.ndarray) -> np.ndarray:
    """Map a position-momentum core state (z1, z2) to the strain-momentum
    core state (A z1, z2)."""
    nx = jt.A_iso.domain.dim
    z = _vector("position-momentum state", z, 2 * nx)
    return np.concatenate([jt.A_iso.matrix @ z[:nx], z[nx:]])


def pull_state(jt: JetTransform, w: np.ndarray) -> np.ndarray:
    """Recover (z1, z2) from a strain-momentum core state with w1 in ran A.

    z1 solves the weighted normal equations of the injective factor, so no
    pseudo-inverse is formed.
    """
    dim_y = jt.A_iso.codomain.dim
    w = _vector("strain-momentum state", w, dim_y + jt.A_iso.domain.dim)
    return np.concatenate([_range_coordinates(jt, w[:dim_y]), w[dim_y:]])


def _range_coordinates(jt: JetTransform, w1: np.ndarray) -> np.ndarray:
    """z minimizing ``||A z - w1||`` in the codomain norm (normal equations)."""
    a, w_y = jt.A_iso.matrix, jt.A_iso.codomain.band
    return jt.normal_solve(a.T @ _band_apply(w1, w_y, left=True))


def ran_A_defect(jt: JetTransform, w1: np.ndarray) -> float:
    """Distance of a strain block from ran A in the codomain norm."""
    w1 = _vector("strain block", w1, jt.A_iso.codomain.dim)
    v = w1 - jt.A_iso.matrix @ _range_coordinates(jt, w1)
    return float(np.sqrt(max(_band_apply(v, jt.A_iso.codomain.band) @ v,
                             0.0)))
