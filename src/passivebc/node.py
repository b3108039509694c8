"""Boundary nodes: input/state/output colligations over a boundary operator.

Two flavors are built from the traces of a :class:`BoundaryOperator`, both
composed with the mass weight ``diag(I, M^{-1}, I)`` on extended coordinates,
M^{-1} acting on the momentum columns only.  The weight is one CSR array
(``_mass_weight``) that the port maps, ``L_eff`` and the ledger multiply by:

scattering (contraction P on the dual boundary space):

    G = (W_G Gamma0 + Gamma1) / sqrt(2),
    K = -P (W_G Gamma0 - Gamma1) / sqrt(2),

impedance:

    G = ((I - P) W_G Gamma0 + (I + P) Gamma1) / 2,
    K = ((I + P) W_G Gamma0 + (I - P) Gamma1) / 2.

The interior action is ``L_eff = (L - diag(0, D) iota) diag(I, M^{-1}, I)``,
a canonical read-only CSR array (``BoundaryNode.L_eff``) that the node
forms once, on first read, by sparse products; every reader uses it, and
the two step matrices of :class:`~passivebc.sim.StepSolver` are its only
dense copies.  The node keeps D and M^{-1} on the momentum block as
canonical read-only CSR arrays (``BoundaryNode.D``, ``BoundaryNode.M_inv``);
``scattering_node`` and ``impedance_node`` take the maps and gate them.
Every product with them, with the momentum Gram W_2 and with the ledger's
``D^T W_D`` is a sparse product, which has the GEMM's bits when a factor
is diagonal; the ledger multiplies through ``hilbert._times_csr``, by the
transposes of its factors, which the node keeps, and by its dense factors
through ``hilbert._times_rows``: each row's value has the same bits in
any block of rows.
The state energy is measured by ``W = blockdiag(W_1, W_2 M^{-1})``, i.e.
kinetic energy uses the inverse-mass inner product.  W_1 and W_2 are the
core's two blocks; the state space is the direct sum ``W_1 (+) sym(W_2
M^{-1})``, whose blocks the ledger reads.  The external Cayley transform
at real beta > 0 takes an impedance node's port maps to scattering ones,

    G' = (beta G + K) / sqrt(2 beta),   K' = (beta G - K) / sqrt(2 beta),

and a scattering node's back by the inverse, ``G' = (G + K) / sqrt(2
beta)``, ``K' = beta (G - K) / sqrt(2 beta)``: each keeps the supply, and
the transform is an involution at every beta.  At beta = 1 the two maps
agree and carry the scattering maps exactly onto the impedance maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse import csr_array, eye_array

from .errors import (
    DampingNotDissipative,
    InconsistentBoundaryData,
    MassNotSPD,
    NonFiniteValue,
    NonPositiveBeta,
    NotAContraction,
    UnknownChoice,
)
from .extension import _kernel_action, _restrict_to_kernel
from .hilbert import (
    ContractionParam,
    HilbertSpaceSpec,
    LinearMap,
    _as_param,
    _expect_shape,
    _extreme_eigenvalues,
    _frozen,
    _frozen_csr,
    _norm,
    _require_finite,
    _row_forms,
    _rows,
    _times_csr,
    _times_rows,
    check_dissipative,
    direct_sum,
    inner,
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
    """Immutable colligation (G_map, L_eff, K_map) over extended coordinates;
    ``L_eff`` is formed from ``op``, ``D`` and ``M_inv`` on first read."""

    op: BoundaryOperator
    flavor: str
    P: ContractionParam
    D: csr_array                       # D on the momentum block
    G_map: np.ndarray
    K_map: np.ndarray
    state_space: HilbertSpaceSpec      # core with mass-weighted Gram
    M_inv: csr_array                   # M^{-1} on the momentum block

    @cached_property
    def L_eff(self) -> csr_array:
        """``(L - diag(0, D) iota) diag(I, M^{-1}, I)`` as a canonical
        read-only CSR array, formed on first read by sparse products of the
        CSR arrays of L, D and ``_mass_weight``: each entry is one product
        when M is diagonal, with the bits of the dense scatter and scaling."""
        op, n1 = self.op, self.op.core_blocks[0]
        d = self.D.tocoo()
        damping = csr_array((d.data, (n1 + d.row, n1 + d.col)),
                            shape=(op.core.dim, op.ext_dim))
        return _frozen_csr((op.L - damping) @ _mass_weight(op, self.M_inv))

    def dual_gram(self) -> np.ndarray:
        """Gram of the dual boundary space (inputs/outputs live there),
        inverted once per node and shared, read-only, by all calls."""
        return self._dual_gram

    @cached_property
    def _dual_gram(self) -> np.ndarray:
        return _frozen(np.linalg.inv(self.op.bspace.gram))

    @cached_property
    def _ledger_factors(self) -> tuple[np.ndarray, csr_array]:
        """``a - b`` and the transpose of ``D^T W_D`` as CSR: the ledger
        factors the node does not hold otherwise, built on first use.

        W_D is the momentum block's Gram; with it or D diagonal, each entry
        of ``D^T W_D`` is one product, with the bits of the dense GEMM.
        ``_times_csr`` multiplies by the transpose of the factor it is
        given, so the node keeps ``(D^T W_D)^T``, and M^{-1} for M^{-T}.
        """
        op, weight = self.op, _mass_weight(self.op, self.M_inv)
        a = op.bspace.gram @ op.Gamma0 @ weight
        damping = self.D.T @ op.core.blocks[1].gram_csr
        return _frozen(a - op.Gamma1 @ weight), _frozen_csr(damping.T)

    # The ledger forms below take one extended state (or port sample), or
    # a block of one per row, and return one value per row (a scalar for
    # one state).

    def energy_split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``H_p = <z1, W_11 z1>/2`` and ``H_k = <z2, W_22 z2>/2`` on the
        core part of each state, under the mass-weighted state Gram."""
        z = _rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        return tuple(0.5 * inner(w, x, x) for x, w in
                     zip((z[..., :n1], z[..., n1:core]),
                         self.state_space.blocks))

    def dissipated_power(self, z: np.ndarray) -> np.ndarray:
        """Damping form ``<v, D^T W_D v>`` with ``v = M^{-1} z2``."""
        z = _rows("states", z, self.op.ext_dim)
        n1, core = self.op.core_blocks[0], self.op.core.dim
        v = _times_csr(z[..., n1:core], self.M_inv)
        return _row_forms(_times_csr(v, self._ledger_factors[1]), v)

    def scattering_slack(self, z: np.ndarray) -> np.ndarray:
        """Contraction slack ``(||(a-b)z||^2 - ||P(a-b)z||^2)/2`` in the
        dual norm, nonnegative for a contraction P; ``a = W_G Gamma0
        diag(I, M^{-1}, I)`` and ``b = Gamma1 diag(I, M^{-1}, I)``."""
        z = _rows("states", z, self.op.ext_dim)
        wd = self.dual_gram()
        v = _times_rows(z, self._ledger_factors[0].T)
        vp = _times_rows(v, self.P.matrix.T)
        return 0.5 * (_row_forms(_times_rows(v, wd), v)
                      - _row_forms(_times_rows(vp, wd), vp))

    def supplied_power(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``<u, y>`` (impedance) or ``(||u||^2 - ||y||^2)/2`` (scattering)
        in the dual boundary pairing."""
        u = _rows("inputs", u, self.G_map.shape[0])
        y = np.asarray(y, dtype=float)
        _expect_shape("outputs", y, u.shape)
        wd = self.dual_gram()
        if self.flavor == IMPEDANCE:
            return _row_forms(_times_rows(u, wd), y)
        return 0.5 * (_row_forms(_times_rows(u, wd), u)
                      - _row_forms(_times_rows(y, wd), y))


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


def _prepare_weights(op: BoundaryOperator, M: LinearMap, D: LinearMap):
    """Validate M, D; return M^{-1} as CSR and the mass-weighted state
    space, the direct sum of the core's first block and sym(W_2 M^{-1}).

    NaN or infinity in M or D is a ``NonFiniteValue``, raised before the
    sparse gates.  W_2 M (for the gates) and ``W_2 M^{-1}`` are sparse
    products, with the GEMM's bits when a factor is diagonal; M^{-1}
    (``_mass_inverse``) has the bits of the dense ``cho_solve``.
    """
    position, momentum = op.core.blocks
    for name, f in (("mass map", M), ("damping map", D)):
        _expect_shape(name, f.matrix, (momentum.dim, momentum.dim))
    _require_finite(mass_map_M=M.matrix.data, damping_map_D=D.matrix.data)

    w2 = momentum.gram_csr
    wm = w2 @ M.matrix
    if _norm((wm - wm.T).data) > 1e-10 * (1.0 + _norm(wm.data)):
        raise MassNotSPD("mass map is not self-adjoint on its space")
    if _extreme_eigenvalues(0.5 * (wm + wm.T))[0] <= 0.0:
        raise MassNotSPD("mass quadratic form is not positive definite")
    ok, lam = check_dissipative(D)
    if not ok:
        raise DampingNotDissipative(
            f"damping symmetric part has eigenvalue {lam:.3e} below "
            f"-1e-10")

    minv = _mass_inverse(M.matrix)
    w2_minv = w2 @ minv
    kinetic = make_space(momentum.dim, 0.5 * (w2_minv + w2_minv.T),
                         momentum.label + "_M")
    return minv, direct_sum(op.core.label + "_M", position, kinetic)


def _mass_inverse(m_csr: csr_array) -> csr_array:
    """M^{-1} as CSR for the CSR mass matrix ``m_csr``: by ``cho_solve``
    against the identity when M is symmetric to 1e-12 relative, by
    ``solve`` otherwise, both on the dense M.

    A diagonal M with a positive ``M_sym = 0.5 M + 0.5 M^T`` gets
    ``cho_solve``'s bits without a factorization: its Cholesky factor is
    ``s = sqrt(M_sym)`` and both triangular solves multiply by the
    reciprocal pivot, so M^{-1} is ``(1/s)(1/s)``.  A diagonal with a zero
    or negative entry goes to ``cho_factor``, which refuses it.
    """
    diag = m_csr.diagonal()
    if np.count_nonzero(diag) == m_csr.nnz:
        diag = 0.5 * diag + 0.5 * diag   # M_sym's diagonal, bit for bit
        if (diag > 0.0).all():
            r = 1.0 / np.sqrt(diag)
            return _frozen_csr(scipy.sparse.diags_array(r * r))
    m = m_csr.toarray()
    msym = 0.5 * m + 0.5 * m.T
    eye = np.eye(len(m))
    if _norm(m - msym) <= 1e-12 * (1.0 + _norm(msym)):
        minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(msym), eye)
    else:
        minv = np.linalg.solve(m, eye)
    return _frozen_csr(minv)


def _mass_weight(op: BoundaryOperator, minv: csr_array) -> csr_array:
    """``diag(I, M^{-1}, I)`` on the extended coordinates of ``op`` as CSR
    for the CSR ``minv``: an array times it has one product per entry for
    a diagonal M^{-1}, else a sum over M^{-1}'s stored entries."""
    n1, nb = op.core_blocks[0], op.ext_dim - op.core.dim
    return scipy.sparse.block_diag((eye_array(n1), minv, eye_array(nb)),
                                   format="csr")


def _build_node(op: BoundaryOperator, P, M: LinearMap, D: LinearMap,
                flavor: str) -> BoundaryNode:
    if flavor not in (SCATTERING, IMPEDANCE):
        raise UnknownChoice(f"unknown flavor {flavor!r}")
    param = _as_param(P, op.bspace)
    if not param.is_contraction:
        raise NotAContraction(param.dual_norm)
    minv, state_space = _prepare_weights(op, M, D)
    weight = _mass_weight(op, minv)
    a, b = op.bspace.gram @ op.Gamma0 @ weight, op.Gamma1 @ weight
    pmat = param.matrix
    m = op.n_boundary
    eye = np.eye(m)
    if flavor == SCATTERING:
        g = (a + b) / math.sqrt(2.0)
        k = -pmat @ (a - b) / math.sqrt(2.0)
    else:
        g = 0.5 * ((eye - pmat) @ a + (eye + pmat) @ b)
        k = 0.5 * ((eye + pmat) @ a + (eye - pmat) @ b)
    for x in (g, k):   # built here: frozen, not copied
        x.setflags(write=False)
    return BoundaryNode(op=op, flavor=flavor, P=param, D=D.matrix,
                        G_map=g, K_map=k, state_space=state_space,
                        M_inv=minv)


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

    A scattering node's maps go by the inverse of an impedance node's map
    (see the module docstring), so the ledger closes for either flavor and
    the transform is an involution at every beta > 0.  Raises
    ``NonFiniteValue`` when beta is subnormal (it then holds fewer
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
    if node.flavor == SCATTERING:   # the inverse of the map below
        g = scale * (node.G_map + node.K_map)
        k = scale * beta * (node.G_map - node.K_map)
    else:
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
    restriction is not a square generator.  ``sym(W gen)`` is formed in
    place in ``W gen``, a row and its column at a time.
    """
    m = node.G_map.shape[0]
    if m > 0 and np.linalg.matrix_rank(node.G_map) < m:
        return False, None
    x, _ = _restrict_to_kernel(node.G_map, node.op.core.dim)
    gen = _kernel_action(node.L_eff, x)
    wa = node.state_space.gram_csr @ gen
    for i in range(len(wa)):
        wa[i, :i + 1] = wa[:i + 1, i] = 0.5 * (wa[i, :i + 1] + wa[:i + 1, i])
    lam = np.linalg.eigvalsh(wa)[-1]
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
    argument holds NaN or infinity or the defect leaves the float range,
    and ``InconsistentBoundaryData`` unless ``G_map z = u``; the gate takes
    its norms by ``hilbert._norm``, which does not overflow.
    """
    z_ext = np.asarray(z_ext, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    m = node.G_map.shape[0]
    for name, x, shape in (("state", z_ext, (node.op.ext_dim,)),
                           ("input", u, (m,)), ("output", y, (m,))):
        _expect_shape(name, x, shape)
    _require_finite(state=z_ext, input=u, output=y)
    gap = _norm(node.G_map @ z_ext - u)
    if not gap <= CONSISTENCY_RTOL * (1.0 + _norm(u)):
        raise InconsistentBoundaryData(
            f"G z differs from u by {gap:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        power = inner(node.state_space, z_ext[:node.op.core.dim],
                      node.L_eff @ z_ext)
        defect = 2.0 * float(power - node.supplied_power(u, y))
    if not math.isfinite(defect):
        raise NonFiniteValue(f"passivity defect is {defect}: the energy "
                             "terms leave the floating-point range")
    return defect
