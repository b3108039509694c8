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
    CoreGramNotBlockDiagonal,
    DampingNotDissipative,
    InconsistentBoundaryData,
    MassNotSPD,
    NonFiniteValue,
    NonPositiveBeta,
    NotAContraction,
    ShapeMismatch,
    UnknownChoice,
)
from .extension import _restrict_to_kernel
from .hilbert import (
    ContractionParam,
    HilbertSpaceSpec,
    LinearMap,
    _as_param,
    _band,
    _band_apply,
    _band_entries,
    _band_product,
    _band_transpose,
    _bandwidth,
    _block_band,
    _dense,
    _extreme_eigenvalues,
    _frozen,
    _norm,
    _space_from_band,
    _trimmed,
    check_dissipative,
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

    def dual_gram(self) -> np.ndarray:
        """Gram of the dual boundary space (inputs/outputs live there).

        Inverted once per node; the read-only array is shared by all calls.
        """
        return self._dual_gram

    @cached_property
    def _dual_gram(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.op.bspace.gram))

    @cached_property
    def _minv_band(self) -> np.ndarray:
        """Band of ``M_inv``, read once from the dense field."""
        return _frozen(_band(self.M_inv, _bandwidth(self.M_inv)))

    @cached_property
    def _trace_gap_and_damping(self) -> tuple[np.ndarray, np.ndarray]:
        """``a - b`` and the band of ``D^T W_D``: the two ledger factors the
        node does not hold otherwise, built on first use."""
        a, b = _weighted_traces(self.op, self._minv_band)
        damping = _band_apply(self.D.matrix.T, self.D.domain.band)
        return _frozen(a - b), _frozen(_band(damping, _bandwidth(damping)))

    @cached_property
    def _state_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Bands of W_11 and W_22, the diagonal blocks of the state Gram,
        built on first use."""
        return _diagonal_blocks(self.state_space, self.op.core_blocks[0])

    # The ledger forms below take one extended state (or port sample) per
    # row of a 2-D block and return one value per row.

    def energy_split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``H_p = <z1, W_11 z1>/2`` and ``H_k = <z2, W_22 z2>/2`` on the
        core part of each state, under the mass-weighted state Gram."""
        z = _expect_rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        return tuple(0.5 * _row_forms(_band_apply(x, w), x) for x, w in
                     zip((z[:, :n1], z[:, n1:core]), self._state_blocks))

    def dissipated_power(self, z: np.ndarray) -> np.ndarray:
        """Damping form ``<v, D^T W_D v>`` with ``v = M^{-1} z2``."""
        z = _expect_rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        v = _band_apply(z[:, n1:core], _band_transpose(self._minv_band))
        return _row_forms(_band_apply(v, self._trace_gap_and_damping[1]), v)

    def scattering_slack(self, z: np.ndarray) -> np.ndarray:
        """Contraction slack ``(||(a-b)z||^2 - ||P(a-b)z||^2)/2`` in the
        dual norm, nonnegative for a contraction P; ``a = W_G Gamma0
        diag(I, M^{-1}, I)`` and ``b = Gamma1 diag(I, M^{-1}, I)``."""
        z = _expect_rows("states", z, self.op.ext_dim)
        wd = self.dual_gram()
        v = z @ self._trace_gap_and_damping[0].T
        vp = v @ self.P.matrix.T
        return 0.5 * (_row_forms(v @ wd, v) - _row_forms(vp @ wd, vp))

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
            return _row_forms(u @ wd, y)
        return 0.5 * (_row_forms(u @ wd, u) - _row_forms(y @ wd, y))


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


def _row_forms(xw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairing ``x_i^T W y_i`` of every row, given ``xw = x W``: the
    quadratic form of the rows of x for ``y = x``."""
    return np.einsum("ij,ij->i", xw, y)


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


def _diagonal_blocks(space: HilbertSpaceSpec,
                     n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the blocks ``[:n1, :n1]`` and ``[n1:, n1:]`` of a space's
    Gram, read-only, each of its own half-width (a diagonal block gets a
    band of one column)."""
    blocks = tuple(
        _trimmed(np.where(_band_entries(len(x), space.bandwidth)[0], x, 0.0))
        for x in (space.band[:n1], space.band[n1:]))
    for w in blocks:
        w.setflags(write=False)
    return blocks


def _split_core_gram(op: BoundaryOperator) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the two diagonal blocks of the core Gram;
    ``CoreGramNotBlockDiagonal`` unless its band, the only place its
    nonzeros can be, leaves the off-diagonal blocks zero."""
    n1 = op.core_blocks[0]
    inside, rows, cols = _band_entries(op.core.dim, op.core.bandwidth)
    if op.core.band[inside][(rows < n1) != (cols < n1)].any():
        raise CoreGramNotBlockDiagonal(
            f"core Gram of {op.core.label!r} couples the blocks "
            f"{op.core_blocks} of its coordinates")
    return _diagonal_blocks(op.core, n1)


def _prepare_weights(op: BoundaryOperator, M: LinearMap, D: LinearMap):
    """Validate M, D; return the band of M^{-1} and the mass-weighted state
    space.

    NaN or infinity in M or D is a ``NonFiniteValue``, raised before the
    band gates.  The gate-only product W_2 M is formed from the bands of
    its factors.  M^{-1} (``_mass_inverse``) and ``W_2 M^{-1}``, which the
    step and the ledger read, keep the bits of the dense ``cho_solve`` and
    GEMM: ``W_2 M^{-1}`` is a band product when a factor is diagonal,
    since each entry then holds one product, and a dense GEMM otherwise.
    """
    n2 = op.core_blocks[1]
    for name, f in (("mass", M), ("damping", D)):
        if f.domain.dim != n2 or f.codomain.dim != n2:
            raise ShapeMismatch(
                f"{name} map is {f.codomain.dim} x {f.domain.dim}; it must "
                f"be square on the momentum block ({n2})")
    _require_finite(mass_map_M=M.matrix, damping_map_D=D.matrix)

    w1, w2 = _split_core_gram(op)
    m_band = _band(M.matrix, _bandwidth(M.matrix))
    wm = _band_product(w2, m_band)
    wm_t = _band_transpose(wm)
    if _norm(wm - wm_t) > 1e-10 * (1.0 + _norm(wm)):
        raise MassNotSPD("mass map is not self-adjoint on its space")
    if _extreme_eigenvalues(0.5 * (wm + wm_t))[0] <= 0.0:
        raise MassNotSPD("mass quadratic form is not positive definite")
    ok, lam = check_dissipative(D)
    if not ok:
        raise DampingNotDissipative(
            f"damping symmetric part has eigenvalue {lam:.3e} below "
            f"-1e-10")

    minv = _mass_inverse(M.matrix, m_band)
    if min(w2.shape[1], minv.shape[1]) == 1:
        w2_minv = _band_product(w2, minv)
    else:
        w2_minv = _dense(w2) @ _dense(minv)
        w2_minv = _band(w2_minv, _bandwidth(w2_minv))
    state_band = _block_band(w1, 0.5 * (w2_minv + _band_transpose(w2_minv)))
    return minv, _space_from_band(state_band, op.core.label + "_M")


def _mass_inverse(m: np.ndarray, m_band: np.ndarray) -> np.ndarray:
    """Band of M^{-1} for the mass matrix ``m`` of band ``m_band``: by
    ``cho_solve`` against the identity when M is symmetric to 1e-12
    relative, by ``solve`` otherwise.

    A diagonal M with a positive ``M_sym = 0.5 M + 0.5 M^T`` gets
    ``cho_solve``'s bits without a factorization: its Cholesky factor is
    ``s = sqrt(M_sym)`` and both triangular solves multiply by the
    reciprocal pivot, so M^{-1} is ``(1/s)(1/s)``.  A diagonal with a zero
    or negative entry goes to ``cho_factor``, which refuses it.
    """
    if m_band.shape[1] == 1:
        diag = 0.5 * m_band + 0.5 * m_band   # M_sym's diagonal, bit for bit
        if (diag > 0.0).all():
            r = 1.0 / np.sqrt(diag)
            return r * r
    msym = 0.5 * m + 0.5 * m.T
    eye = np.eye(len(m))
    if _norm(m - msym) <= 1e-12 * (1.0 + _norm(msym)):
        minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(msym), eye)
    else:
        minv = np.linalg.solve(m, eye)
    return _band(minv, _bandwidth(minv))


def _mass_weighted(x: np.ndarray, op: BoundaryOperator, minv: np.ndarray):
    """``x diag(I, M^{-1}, I)`` for the band ``minv`` of M^{-1}, whose
    product turns -0.0 into +0.0 (+ 0.0)."""
    out, momentum = x + 0.0, slice(op.core_blocks[0], op.core.dim)
    out[:, momentum] = _band_apply(x[:, momentum], minv)
    return out


def _effective_action(op: BoundaryOperator, D: LinearMap, minv: np.ndarray):
    action, n1 = op.L.copy(), op.core_blocks[0]
    action[n1:, n1:op.core.dim] -= D.matrix
    return _mass_weighted(action, op, minv)


def _weighted_traces(op: BoundaryOperator, minv: np.ndarray):
    return (_mass_weighted(op.bspace.gram @ op.Gamma0, op, minv),
            _mass_weighted(op.Gamma1, op, minv))


def _build_node(op: BoundaryOperator, P, M: LinearMap, D: LinearMap,
                flavor: str) -> BoundaryNode:
    if flavor not in (SCATTERING, IMPEDANCE):
        raise UnknownChoice(f"unknown flavor {flavor!r}")
    param = _as_param(P, op.bspace)
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
    else:
        g = 0.5 * ((eye - pmat) @ a + (eye + pmat) @ b)
        k = 0.5 * ((eye + pmat) @ a + (eye - pmat) @ b)
    l_eff = _effective_action(op, D, minv)
    return BoundaryNode(op=op, flavor=flavor, P=param, M=M, D=D,
                        G_map=_frozen(g), K_map=_frozen(k),
                        L_eff=_frozen(l_eff), state_space=state_space,
                        M_inv=_frozen(_dense(minv)))


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
    Raises ``ShapeMismatch`` unless z_ext has the node's extended
    dimension and u, y its channel count, ``NonFiniteValue`` when an
    argument holds NaN or infinity and ``InconsistentBoundaryData`` unless
    ``G_map z = u``.
    """
    z_ext = np.asarray(z_ext, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = node.G_map.shape[0]
    for name, x, shape in (("state", z_ext, (node.op.ext_dim,)),
                           ("input", u, (m,)), ("output", y, (m,))):
        if x.shape != shape:
            raise ShapeMismatch(f"{name} has shape {x.shape}; the node "
                                f"expects {shape}")
    _require_finite(state=z_ext, input=u, output=y)
    gap = np.linalg.norm(node.G_map @ z_ext - u)
    if gap > CONSISTENCY_RTOL * (1.0 + np.linalg.norm(u)):
        raise InconsistentBoundaryData(
            f"G z differs from u by {gap:.3e}")
    zc = z_ext[:node.op.core.dim]
    power = 2.0 * float(zc @ node.state_space.gram @ (node.L_eff @ z_ext))
    supplied = node.supplied_power(u[None], y[None])
    return power - 2.0 * float(supplied[0])
