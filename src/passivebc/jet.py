"""Equivalence transform between position-momentum and strain-momentum forms.

Given the second-order boundary operator on core ``(z1, z2)`` and the
injective factor ``A: X -> Y`` it was built from, the transform carries the
system onto the core ``(w1, w2) in Y (+) X`` with action

    w1' = A w2-block,    w2' = B_ext [w1; tau],

traces

    Xi0 = (Lambda1 w2, Pi2 [w1; tau]),   Xi1 = (-Pi1 [w1; tau], Lambda2 w2),

and state mapping ``w = (A z1, z2)``.  On states with w1 in ran A this is
exactly the source system in new coordinates (``Xi_i (A z1, z2, tau) =
Gamma_i (z1, z2, tau)`` as matrices); off ran A the operator extends
naturally because ker A* is annihilated by B_ext.  Distance from ran A is
an invariant of the transformed flow; it is measured, and states are
pulled back, by one solve with the factored normal matrix ``A^T W_Y A``.
The target is realized by the same builder as the second-order lift
(``triplet._realize``), with ``(to_y, velocity) = (I, A)`` where the lift
has ``(A, I)``: the strain block enters B_ext as it is and the factor map
moves into ``w1' = A w2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import RankDeficient
from .hilbert import (
    RANK_RTOL,
    LinearMap,
    _band_entries,
    _dense,
    _extreme_eigenvalues,
    _frozen,
)
from .triplet import BoundaryOperator, _realize

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
    source: BoundaryOperator
    target: BoundaryOperator

    def normal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(A^T W_Y A)^{-1} rhs`` from the stored factor."""
        return scipy.linalg.cho_solve((self.normal_factor, False), rhs)

    @cached_property
    def _codomain_gram(self) -> np.ndarray:
        """Dense W_Y for the per-state solves, built on first use."""
        return self.A_iso.codomain.gram


def build_jet(op_A: BoundaryOperator) -> JetTransform:
    """Construct the strain-momentum realization of a lifted operator.

    ``op_A`` must be the second-order lift of the dual pair it carries,
    whose (injective) factor map becomes ``A_iso``; its core Gram holds
    ``A^T W_Y A`` in the position block.  The target operator lives on
    extended coordinates ``(w1, w2, tau)`` of dimension
    ``dim Y + dim X + nb``.  Raises ``RankDeficient`` when the smallest
    eigenvalue of ``A^T W_Y A`` is at most ``RANK_RTOL`` times the largest.
    """
    dp = op_A.pair
    if dp is None or op_A.core_blocks[0] != dp.A.domain.dim:
        raise ValueError("source operator is not the lift of a dual pair")
    nx = dp.A.domain.dim
    inside = _band_entries(nx, op_A.core.bandwidth)[0]
    normal = np.where(inside, op_A.core.band[:nx], 0.0)   # A^T W_Y A
    lo, hi = _extreme_eigenvalues(normal)
    if lo <= RANK_RTOL * max(abs(hi), 1e-300):
        raise RankDeficient(
            f"map {dp.A.domain.label!r} -> {dp.A.codomain.label!r} is not "
            f"injective (normal-matrix eigenvalue {lo:.3e})")
    target = _realize(dp, dp.A.codomain.gram, dp.A.codomain.label,
                      np.eye(dp.A.codomain.dim), dp.A.matrix, "jet target")
    factor = scipy.linalg.cholesky(_dense(normal))
    return JetTransform(A_iso=dp.A, normal_factor=_frozen(factor),
                        source=op_A, target=target)


def state_injection(jt: JetTransform) -> np.ndarray:
    """Matrix diag(A, I, I_tau) carrying source extended states to target ones."""
    nx = jt.A_iso.domain.dim
    nb = jt.source.ext_dim - jt.source.core.dim
    return scipy.linalg.block_diag(jt.A_iso.matrix, np.eye(nx), np.eye(nb))


def push_state(jt: JetTransform, z: np.ndarray) -> np.ndarray:
    """Map a source core state (z1, z2) to the target core state (A z1, z2)."""
    nx = jt.A_iso.domain.dim
    z = np.asarray(z, dtype=float)
    return np.concatenate([jt.A_iso.matrix @ z[:nx], z[nx:]])


def pull_state(jt: JetTransform, w: np.ndarray) -> np.ndarray:
    """Recover (z1, z2) from a target core state with w1 in ran A.

    z1 solves the weighted normal equations of the injective factor, so no
    pseudo-inverse is formed.
    """
    dim_y = jt.A_iso.codomain.dim
    w = np.asarray(w, dtype=float)
    return np.concatenate([_range_coordinates(jt, w[:dim_y]), w[dim_y:]])


def _range_coordinates(jt: JetTransform, w1: np.ndarray) -> np.ndarray:
    """z minimizing ``||A z - w1||`` in the codomain norm (normal equations)."""
    a = jt.A_iso.matrix
    return jt.normal_solve(a.T @ (jt._codomain_gram @ w1))


def ran_A_defect(jt: JetTransform, w1: np.ndarray) -> float:
    """Distance of a strain block from ran A in the codomain norm."""
    w1 = np.asarray(w1, dtype=float)
    v = w1 - jt.A_iso.matrix @ _range_coordinates(jt, w1)
    return float(np.sqrt(max(v @ jt._codomain_gram @ v, 0.0)))
