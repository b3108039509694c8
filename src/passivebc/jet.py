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
measured with the codomain-orthogonal projectors of the factor map and is
an invariant of the transformed flow.  The target is realized by the same
builder as the second-order lift (``triplet._realize``), with
``(to_y, velocity) = (I, A)`` where the lift has ``(A, I)``: the strain
block enters B_ext as it is and the factor map moves into ``w1' = A w2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hilbert import LinearMap, _frozen, helmholtz_projectors
from .node import BoundaryNode, impedance_node, scattering_node
from .triplet import BoundaryOperator, _realize

__all__ = [
    "JetTransform",
    "build_jet",
    "push_state",
    "pull_state",
    "transform_node",
    "ran_A_defect",
]


@dataclass(frozen=True)
class JetTransform:
    """Transport data between the two first-order realizations."""

    A_iso: LinearMap
    P_ran: np.ndarray
    P_ker: np.ndarray
    source: BoundaryOperator
    target: BoundaryOperator


def build_jet(op_A: BoundaryOperator) -> JetTransform:
    """Construct the strain-momentum realization of a lifted operator.

    ``op_A`` must carry the dual pair it was lifted from, whose (injective)
    factor map becomes ``A_iso``.  The target operator lives on extended
    coordinates ``(w1, w2, tau)`` of dimension ``dim Y + dim X + nb``.
    """
    dp = op_A.pair
    if dp is None:
        raise ValueError("source operator does not carry its dual pair")
    p_ran, p_ker = helmholtz_projectors(dp.A)  # raises RankDeficient
    target = _realize(dp, dp.A.codomain.gram, dp.A.codomain.label,
                      np.eye(dp.A.codomain.dim), dp.A.matrix, "jet target")
    return JetTransform(A_iso=dp.A, P_ran=_frozen(p_ran),
                        P_ker=_frozen(p_ker), source=op_A, target=target)


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
    a = jt.A_iso.matrix
    gram = a.T @ jt.A_iso.codomain.gram @ a
    rhs = a.T @ jt.A_iso.codomain.gram @ w[:dim_y]
    z1 = np.linalg.solve(gram, rhs)
    return np.concatenate([z1, w[dim_y:]])


def transform_node(jt: JetTransform, node_A: BoundaryNode) -> BoundaryNode:
    """Rebuild a node on the transformed operator with the same P, M, D."""
    if node_A.op is not jt.source:
        raise ValueError("node was not built on the source operator of "
                         "this transform")
    builder = scattering_node if node_A.flavor == "scattering" \
        else impedance_node
    return builder(jt.target, node_A.P, node_A.M, node_A.D)


def ran_A_defect(jt: JetTransform, w1: np.ndarray) -> float:
    """Distance of a strain block from ran A in the codomain norm."""
    w1 = np.asarray(w1, dtype=float)
    v = jt.P_ker @ w1
    return float(np.sqrt(max(v @ jt.A_iso.codomain.gram @ v, 0.0)))
