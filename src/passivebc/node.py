"""Boundary nodes: input/state/output colligations over a boundary operator.

Two flavors are built from the traces of a :class:`BoundaryOperator`, both
composed with the mass weight ``diag(I, M^{-1}, I)`` on extended coordinates,
M^{-1} acting on the momentum columns only (applied there by slicing):

scattering (contraction P on the dual boundary space):

    G = (W_G Gamma0 + Gamma1) / sqrt(2),
    K = -P (W_G Gamma0 - Gamma1) / sqrt(2),

impedance:

    G = ((I - P) W_G Gamma0 + (I + P) Gamma1) / 2,
    K = ((I + P) W_G Gamma0 + (I - P) Gamma1) / 2.

The interior action is ``L_eff = (L - diag(0, D) iota) diag(I, M^{-1}, I)``
and the state energy is measured by ``W = blockdiag(W_1, W_2 M^{-1})``,
i.e. kinetic energy uses the inverse-mass inner product.  The external
Cayley transform at real beta > 0 recombines the port maps,

    G' = (beta G + K) / sqrt(2 beta),   K' = (beta G - K) / sqrt(2 beta),

and toggles the flavor; at beta = 1 it is an involution and carries the
scattering maps exactly onto the impedance maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DampingNotDissipative,
    IllPosedRestriction,
    InconsistentBoundaryData,
    MassNotSPD,
    NonFiniteValue,
    NonPositiveBeta,
    NotAContraction,
    SingularCoreProjection,
)
from .extension import _restrict_to_kernel
from .hilbert import (
    ContractionParam,
    HilbertSpaceSpec,
    LinearMap,
    _extreme_eigenvalues,
    _frozen,
    _norm,
    check_dissipative,
    is_dual_unitary,
    make_space,
)
from .triplet import BoundaryOperator

__all__ = [
    "BoundaryNode",
    "EnergyLedger",
    "LedgerFactors",
    "scattering_node",
    "impedance_node",
    "external_cayley",
    "internal_wellposedness",
    "passivity_residual",
]

CONSISTENCY_RTOL = 1e-10
SCATTERING = "scattering"
IMPEDANCE = "impedance"


@dataclass(frozen=True)
class BoundaryNode:
    """Immutable colligation (G_map, L_eff, K_map) over extended coordinates."""

    op: BoundaryOperator
    flavor: str
    P: ContractionParam
    M: LinearMap
    D: LinearMap
    G_map: np.ndarray
    K_map: np.ndarray
    L_eff: np.ndarray
    state_space: HilbertSpaceSpec      # core with mass-weighted Gram
    M_inv: np.ndarray                  # M^{-1} on the momentum block

    @cached_property
    def energy_preserving(self) -> bool:
        """No damping (sym(W D) = 0) and a dual-unitary P; computed on
        first read."""
        wd = self.D.domain.gram @ self.D.matrix
        no_damping = _norm(wd + wd.T) <= 1e-10 * (1.0 + _norm(wd))
        return no_damping and is_dual_unitary(self.P.matrix, self.op.bspace)

    def dual_gram(self) -> np.ndarray:
        """Gram of the dual boundary space (inputs/outputs live there).

        Inverted once per node; the read-only array is shared by all calls.
        """
        return self._dual_gram

    @cached_property
    def _dual_gram(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.op.bspace.gram))

    @property
    def internally_wellposed(self) -> bool:
        """Whether ker G_map carries a dissipative square generator.

        Computed with ``main_generator`` on first read of either.
        """
        return self._wellposedness[0]

    @property
    def main_generator(self) -> np.ndarray | None:
        """Generator on ker G_map, or None when there is no square one."""
        return self._wellposedness[1]

    @cached_property
    def _wellposedness(self) -> tuple[bool, np.ndarray | None]:
        try:
            wellposed, gen = internal_wellposedness(self)
        except (IllPosedRestriction, SingularCoreProjection):
            return False, None
        return wellposed, None if gen is None else _frozen(gen)

    @cached_property
    def ledger_factors(self) -> "LedgerFactors":
        """Per-node factors of the energy ledger, built on first use."""
        n1 = self.op.core_blocks[0]
        a, b = _weighted_traces(self.op, self.M_inv)
        w = self.state_space.gram
        return LedgerFactors(
            flavor=self.flavor, n1=n1, core_dim=self.op.core.dim,
            w_p=w[:n1, :n1], w_k=w[n1:, n1:],
            M_inv=self.M_inv,
            damping=_frozen(self.D.matrix.T @ self.D.domain.gram),
            trace_gap=_frozen(a - b), P=self.P.matrix,
            dual_gram=self.dual_gram())

    def energy_split(self, z_ext: np.ndarray) -> tuple[float, float]:
        """(potential, kinetic) energy of the core part of a state."""
        hp, hk = self.ledger_factors.energy_split(_row(z_ext))
        return float(hp[0]), float(hk[0])

    def dissipated_power(self, z_ext: np.ndarray) -> float:
        """Damping quadratic form <D M^{-1} z2, M^{-1} z2> at a state."""
        return float(self.ledger_factors.dissipated_power(_row(z_ext))[0])


def _row(z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=float).reshape(1, -1)


def _row_forms(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quadratic form ``x_i^T W x_i`` of every row of ``x``."""
    return np.einsum("ij,ij->i", x @ w, x)


@dataclass(frozen=True)
class LedgerFactors:
    """Factors of every ledger formula of one node, built once.

    Each method evaluates its formula on all rows of a 2-D array at once
    (extended states, or port samples), returning one value per row:

    * ``H_p = <z1, W_11 z1>/2`` and ``H_k = <z2, W_22 z2>/2`` on the core
      part ``z[:core_dim]`` under the mass-weighted state Gram;
    * dissipated power ``<v, D^T W_D v>`` with ``v = M^{-1} z2``;
    * contraction slack ``(||(a-b)z||^2 - ||P(a-b)z||^2)/2`` in the dual
      norm, with ``a = W_G Gamma0 diag(I, M^{-1}, I)`` and
      ``b = Gamma1 diag(I, M^{-1}, I)``;
    * supplied power ``<u, y>`` (impedance) or ``(||u||^2 - ||y||^2)/2``
      (scattering) in the dual boundary pairing.
    """

    flavor: str
    n1: int
    core_dim: int
    w_p: np.ndarray             # W_11 of the state space
    w_k: np.ndarray             # W_22 of the state space
    M_inv: np.ndarray           # M^{-1}, giving v = M^{-1} z2
    damping: np.ndarray         # D^T W_D
    trace_gap: np.ndarray       # a - b
    P: np.ndarray
    dual_gram: np.ndarray

    def energy_split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (0.5 * _row_forms(z[:, :self.n1], self.w_p),
                0.5 * _row_forms(z[:, self.n1:self.core_dim], self.w_k))

    def dissipated_power(self, z: np.ndarray) -> np.ndarray:
        return _row_forms(z[:, self.n1:self.core_dim] @ self.M_inv.T,
                          self.damping)

    def scattering_slack(self, z: np.ndarray) -> np.ndarray:
        v = z @ self.trace_gap.T
        return 0.5 * (_row_forms(v, self.dual_gram)
                      - _row_forms(v @ self.P.T, self.dual_gram))

    def supplied_power(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        wd = self.dual_gram
        if self.flavor == IMPEDANCE:
            return np.einsum("ij,ij->i", u @ wd, y)
        return 0.5 * (_row_forms(u, wd) - _row_forms(y, wd))


@dataclass(frozen=True)
class EnergyLedger:
    """Per-step energy bookkeeping along a trajectory.

    ``H = H_p + H_k`` is sampled on the time grid; supplied and dissipated
    power, the balance residual and the scattering slack are per step
    (evaluated at the midpoint state).  The residual is
    ``dH - dt*(supply - dissipation)`` and equals ``-slack/2`` up to
    roundoff; for unitary P and zero damping both vanish.
    """

    H: np.ndarray
    H_p: np.ndarray
    H_k: np.ndarray
    supplied: np.ndarray
    dissipated: np.ndarray
    residual: np.ndarray
    slack: np.ndarray


def _split_core_gram(op: BoundaryOperator) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = op.core_blocks
    w = op.core.gram
    if np.any(w[:n1, n1:]) or np.any(w[n1:, :n1]):
        raise ValueError("core Gram is not block diagonal over core_blocks")
    return w[:n1, :n1], w[n1:, n1:]


def _prepare_weights(op: BoundaryOperator, M: LinearMap, D: LinearMap):
    """Validate M, D; return M^{-1} and the mass-weighted state space."""
    n2 = op.core_blocks[1]
    if M.domain.dim != n2 or M.codomain.dim != n2:
        raise ValueError("mass map must be square on the momentum block")
    if D.domain.dim != n2 or D.codomain.dim != n2:
        raise ValueError("damping map must be square on the momentum block")

    w1, w2 = _split_core_gram(op)
    wm = w2 @ M.matrix
    if _norm(wm - wm.T) > 1e-10 * (1.0 + _norm(wm)):
        raise MassNotSPD("mass map is not self-adjoint on its space")
    if _extreme_eigenvalues(0.5 * (wm + wm.T))[0] <= 0.0:
        raise MassNotSPD("mass quadratic form is not positive definite")
    ok, lam = check_dissipative(D)
    if not ok:
        raise DampingNotDissipative(
            f"damping symmetric part has eigenvalue {lam:.3e} below "
            f"-1e-10")

    msym = 0.5 * M.matrix + 0.5 * M.matrix.T   # no overflow near the max
    if _norm(M.matrix - msym) <= 1e-12 * (1.0 + _norm(msym)):
        minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(msym),
                                      np.eye(n2))
    else:
        minv = np.linalg.solve(M.matrix, np.eye(n2))

    w_state = scipy.linalg.block_diag(w1, 0.5 * ((w2 @ minv) + (w2 @ minv).T))
    state_space = make_space(op.core.dim, w_state,
                             op.core.label + "_M")
    return minv, state_space


def _mass_weighted(x: np.ndarray, op: BoundaryOperator, minv: np.ndarray):
    """``x diag(I, M^{-1}, I)``, whose product turns -0.0 into +0.0 (+ 0.0)."""
    out, momentum = x + 0.0, slice(op.core_blocks[0], op.core.dim)
    out[:, momentum] = x[:, momentum] @ minv
    return out


def _effective_action(op: BoundaryOperator, D: LinearMap, minv: np.ndarray):
    action, n1 = op.L.copy(), op.core_blocks[0]
    action[n1:, n1:op.core.dim] -= D.matrix
    return _mass_weighted(action, op, minv)


def _weighted_traces(op: BoundaryOperator, minv: np.ndarray):
    return (_mass_weighted(op.bspace.gram @ op.Gamma0, op, minv),
            _mass_weighted(op.Gamma1, op, minv))


def _as_param(P, op: BoundaryOperator) -> ContractionParam:
    if isinstance(P, ContractionParam):
        return P
    return ContractionParam.from_matrix(P, op.bspace)


def _build_node(op: BoundaryOperator, P, M: LinearMap, D: LinearMap,
                flavor: str) -> BoundaryNode:
    param = _as_param(P, op)
    if not param.is_contraction:
        raise NotAContraction(param.dual_norm)
    minv, state_space = _prepare_weights(op, M, D)
    a, b = _weighted_traces(op, minv)
    pmat = param.matrix
    m = op.n_boundary
    eye = np.eye(m)
    if flavor == SCATTERING:
        g = (a + b) / math.sqrt(2.0)
        k = -pmat @ (a - b) / math.sqrt(2.0)
    elif flavor == IMPEDANCE:
        g = 0.5 * ((eye - pmat) @ a + (eye + pmat) @ b)
        k = 0.5 * ((eye + pmat) @ a + (eye - pmat) @ b)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    l_eff = _effective_action(op, D, minv)
    return BoundaryNode(op=op, flavor=flavor, P=param, M=M, D=D,
                        G_map=_frozen(g), K_map=_frozen(k),
                        L_eff=_frozen(l_eff), state_space=state_space,
                        M_inv=_frozen(minv))


def scattering_node(op: BoundaryOperator, P, M: LinearMap,
                    D: LinearMap) -> BoundaryNode:
    """Scattering node; passivity requires a contraction P."""
    return _build_node(op, P, M, D, SCATTERING)


def impedance_node(op: BoundaryOperator, P, M: LinearMap,
                   D: LinearMap) -> BoundaryNode:
    """Impedance node; equals the beta=1 Cayley transform of the scattering one."""
    return _build_node(op, P, M, D, IMPEDANCE)


def external_cayley(node: BoundaryNode, beta: float) -> BoundaryNode:
    """Recombine the port maps, exchanging scattering and impedance forms.

    Raises ``NonFiniteValue`` when beta is subnormal (it then holds fewer
    significant bits than a double) or when the scale or the new maps leave
    the floating-point range.
    """
    if not beta > 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta}")
    if beta < np.finfo(float).tiny:
        raise NonFiniteValue(f"Cayley parameter beta={beta:g} is subnormal")
    scale = 1.0 / math.sqrt(2.0 * beta)
    if not 0.0 < scale < math.inf:
        raise NonFiniteValue(f"Cayley scale 1/sqrt(2 beta) is {scale:g} at "
                             f"beta={beta:g}")
    g = scale * (beta * node.G_map + node.K_map)
    k = scale * (beta * node.G_map - node.K_map)
    if not (np.isfinite(g).all() and np.isfinite(k).all()):
        raise NonFiniteValue(f"Cayley-transformed port maps at beta={beta:g} "
                             "leave the floating-point range")
    flavor = IMPEDANCE if node.flavor == SCATTERING else SCATTERING
    return replace(node, flavor=flavor, G_map=_frozen(g), K_map=_frozen(k))


def internal_wellposedness(node: BoundaryNode) -> tuple[bool, np.ndarray | None]:
    """Check surjectivity of G_map and dissipativity of its kernel restriction.

    Returns ``(False, None)`` when G_map is not surjective; raises
    ``IllPosedRestriction``/``SingularCoreProjection`` when the kernel
    restriction is not a square generator.
    """
    m = node.G_map.shape[0]
    if m > 0 and np.linalg.matrix_rank(node.G_map) < m:
        return False, None
    gen, _, _ = _restrict_to_kernel(node.G_map, node.L_eff, node.op.core.dim)
    wa = node.state_space.gram @ gen
    lam = np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1]
    return bool(lam <= 1e-10), gen


def scattering_slack(node: BoundaryNode, z_ext: np.ndarray) -> float:
    """Nonnegative gap ``(||(a-b)z||^2 - ||P(a-b)z||^2)/2`` in the dual norm."""
    return float(node.ledger_factors.scattering_slack(_row(z_ext))[0])


def passivity_residual(node: BoundaryNode, z_ext: np.ndarray,
                       u: np.ndarray, y: np.ndarray) -> float:
    """Pointwise passivity defect at a consistent extended state.

    scattering:  ``2<iota z, L_eff z>_W + ||y||^2 - ||u||^2``
    impedance:   ``2<iota z, L_eff z>_W - 2<u, y>``

    (norms and pairing in the dual boundary space); nonpositive up to
    roundoff for every contraction P, zero for unitary P with no damping.
    Raises ``InconsistentBoundaryData`` unless ``G_map z = u``.
    """
    z_ext = np.asarray(z_ext, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    gap = np.linalg.norm(node.G_map @ z_ext - u)
    if gap > CONSISTENCY_RTOL * (1.0 + np.linalg.norm(u)):
        raise InconsistentBoundaryData(
            f"G z differs from u by {gap:.3e}")
    zc = z_ext[:node.op.core.dim]
    power = 2.0 * float(zc @ node.state_space.gram @ (node.L_eff @ z_ext))
    supplied = node.ledger_factors.supplied_power(_row(u), _row(y))
    return power - 2.0 * float(supplied[0])
