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
    ShapeMismatch,
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
    def _trace_gap_and_damping(self) -> tuple[np.ndarray, np.ndarray]:
        """``a - b`` and ``D^T W_D``: the two ledger factors the node does
        not hold otherwise, built on first use."""
        a, b = _weighted_traces(self.op, self.M_inv)
        return (_frozen(a - b),
                _frozen(self.D.matrix.T @ self.D.domain.gram))

    # The ledger forms below take one extended state (or port sample) per
    # row of a 2-D block and return one value per row.

    def energy_split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``H_p = <z1, W_11 z1>/2`` and ``H_k = <z2, W_22 z2>/2`` on the
        core part of each state, under the mass-weighted state Gram."""
        z = _expect_rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        w = self.state_space.gram
        return (0.5 * _row_forms(z[:, :n1], w[:n1, :n1]),
                0.5 * _row_forms(z[:, n1:core], w[n1:, n1:]))

    def dissipated_power(self, z: np.ndarray) -> np.ndarray:
        """Damping form ``<v, D^T W_D v>`` with ``v = M^{-1} z2``."""
        z = _expect_rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        return _row_forms(z[:, n1:core] @ self.M_inv.T,
                          self._trace_gap_and_damping[1])

    def scattering_slack(self, z: np.ndarray) -> np.ndarray:
        """Contraction slack ``(||(a-b)z||^2 - ||P(a-b)z||^2)/2`` in the
        dual norm, nonnegative for a contraction P; ``a = W_G Gamma0
        diag(I, M^{-1}, I)`` and ``b = Gamma1 diag(I, M^{-1}, I)``."""
        z = _expect_rows("states", z, self.op.ext_dim)
        wd = self.dual_gram()
        v = z @ self._trace_gap_and_damping[0].T
        return 0.5 * (_row_forms(v, wd) - _row_forms(v @ self.P.matrix.T, wd))

    def supplied_power(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``<u, y>`` (impedance) or ``(||u||^2 - ||y||^2)/2`` (scattering)
        in the dual boundary pairing."""
        u = _expect_rows("inputs", u, self.G_map.shape[0])
        y = _expect_rows("outputs", y, self.G_map.shape[0])
        if len(u) != len(y):
            raise ShapeMismatch(f"{len(u)} input rows against {len(y)} "
                                "output rows")
        wd = self.dual_gram()
        if self.flavor == IMPEDANCE:
            return np.einsum("ij,ij->i", u @ wd, y)
        return 0.5 * (_row_forms(u, wd) - _row_forms(y, wd))


def _expect_rows(name: str, x, width: int) -> np.ndarray:
    """``x`` as a float array; ``ShapeMismatch`` unless it is 2-D with
    ``width`` columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeMismatch(f"{name} has shape {x.shape}; the node expects "
                            f"one row of {width} per sample")
    return x


def _require_finite(**arrays: np.ndarray) -> None:
    for name, x in arrays.items():
        if not np.isfinite(x).all():
            raise NonFiniteValue(f"{name} holds NaN or infinity")


def _row_forms(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quadratic form ``x_i^T W x_i`` of every row of ``x``."""
    return np.einsum("ij,ij->i", x @ w, x)


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


def passivity_residual(node: BoundaryNode, z_ext: np.ndarray,
                       u: np.ndarray, y: np.ndarray) -> float:
    """Pointwise passivity defect at a consistent extended state.

    scattering:  ``2<iota z, L_eff z>_W + ||y||^2 - ||u||^2``
    impedance:   ``2<iota z, L_eff z>_W - 2<u, y>``

    (norms and pairing in the dual boundary space); nonpositive up to
    roundoff for every contraction P, zero for unitary P with no damping.
    Raises ``NonFiniteValue`` when an argument holds NaN or infinity and
    ``InconsistentBoundaryData`` unless ``G_map z = u``.
    """
    z_ext = np.asarray(z_ext, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _require_finite(state=z_ext, input=u, output=y)
    gap = np.linalg.norm(node.G_map @ z_ext - u)
    if gap > CONSISTENCY_RTOL * (1.0 + np.linalg.norm(u)):
        raise InconsistentBoundaryData(
            f"G z differs from u by {gap:.3e}")
    zc = z_ext[:node.op.core.dim]
    power = 2.0 * float(zc @ node.state_space.gram @ (node.L_eff @ z_ext))
    supplied = node.supplied_power(u[None], y[None])
    return power - 2.0 * float(supplied[0])
