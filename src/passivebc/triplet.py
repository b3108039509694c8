"""Dual pairs with boundary maps and their lift to second-order triplets.

A dual pair here is a factor map ``A: X -> Y`` together with an extension
``B_ext`` of the negative adjoint acting on an extended space
``Y~ = Y (+) R^nb`` whose extra coordinates are boundary unknowns.  Trace
maps (Lambda_i on the X side, Pi_i on the Y~ side) tie the two together
through the Green identity

    -<B_ext y~, x>_X - <iota_Y y~, A x>_Y = <Pi1 y~, Lambda1 x> - <Pi2 y~, Lambda2 x>

which is checked exactly (as a matrix residual) at assembly.

Extended coordinates put the core first, ``y~ = (y, tau)`` and ``z~ =
(z, tau)``, so ``iota_Y = iota = [I | 0]``: modules slice where the formulas
write a projection and store none (``_realize`` notes its one-row case).

The lift produces a maximal second-order operator on extended coordinates
``(z1, z2, tau)`` over the core space ``Z = X_h (+) X`` with
``W_Z = blockdiag(A^T W_Y A, W_X)``, action ``L(z1, z2, tau) =
(z2, B_ext[A z1; tau])`` and traces

    Gamma0 = (Lambda1 z2, Pi2 [A z1; tau]),
    Gamma1 = (-Pi1 [A z1; tau], Lambda2 z2),

for which the operator Green identity

    iota^T W_Z L + L^T W_Z iota = Gamma1^T Gamma0 + Gamma0^T Gamma1

holds exactly whenever the dual-pair identity does.  The lift and the
strain-momentum target of :mod:`passivebc.jet` share one realization: the
lift feeds ``(to_y, velocity) = (A, I)``, i.e. ``[A z1; tau]`` to B_ext and
``z1' = z2``, the jet target ``(I, A)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array, eye_array

from .errors import (
    DegenerateCoreProjection,
    GreenIdentityViolated,
    ShapeMismatch,
    TraceNotSurjective,
)
from .hilbert import (
    HilbertSpaceSpec,
    LinearMap,
    _band,
    _band_apply,
    _band_entries,
    _band_solve,
    _bandwidth,
    _block_band,
    _frozen,
    _space_from_band,
)

__all__ = [
    "DualPairTriplet",
    "BoundaryOperator",
    "extend_adjoint",
    "assemble_dual_pair",
    "lift_second_order",
    "green_residual",
    "minimal_domain",
    "skew_on_minimal",
]

GREEN_TOL = 1e-12
NULLSPACE_RCOND = 1e-10


@dataclass(frozen=True)
class DualPairTriplet:
    """Validated dual pair with trace maps and one or two boundary blocks."""

    A: LinearMap                      # X -> Y
    B_ext: LinearMap                  # Y~ = (y, tau) -> X
    Lambda1: np.ndarray               # X -> G1
    Pi1: np.ndarray                   # Y~ -> G1 dual coordinates
    G1: HilbertSpaceSpec
    Lambda2: np.ndarray | None = None  # X -> G2 dual coordinates
    Pi2: np.ndarray | None = None      # Y~ -> G2
    G2: HilbertSpaceSpec | None = None
    residual: float = field(compare=False, default=0.0)

    @property
    def ext_Y_dim(self) -> int:
        return self.B_ext.domain.dim

    @property
    def n_boundary_coords(self) -> int:
        return self.ext_Y_dim - self.A.codomain.dim


@dataclass(frozen=True)
class BoundaryOperator:
    """Maximal operator with traces on extended coordinates.

    ``core`` carries the energy Gram W_Z of the leading extended
    coordinates, ``L`` is the action and ``Gamma0``/``Gamma1`` map into
    the boundary space ``bspace`` and its covariant dual.
    ``core_blocks`` records the (z1, z2) split of the core coordinates,
    which downstream mass weighting needs.
    """

    core: HilbertSpaceSpec
    ext_dim: int
    L: np.ndarray
    Gamma0: np.ndarray
    Gamma1: np.ndarray
    bspace: HilbertSpaceSpec
    core_blocks: tuple[int, int]
    pair: DualPairTriplet | None = field(compare=False, default=None)

    @property
    def n_boundary(self) -> int:
        return self.bspace.dim


def extend_adjoint(A: LinearMap, injection: np.ndarray,
                   label: str = "Y~") -> LinearMap:
    """Extension of -A* to ``Y (+) R^nb`` by a boundary injection.

    ``B_ext = W_X^{-1} [-A^T W_Y | E]`` where the columns of E are the
    covariant boundary functionals; the Green identity then holds by
    construction.  ``-A^T W_Y`` and the solve against W_X are
    ``_band_apply``'s and ``_band_solve``'s, which keep the bits of the
    dense GEMM and LAPACK solve and scale rows for diagonal Grams.  The
    extended space's Gram is ``blockdiag(W_Y, I)``, built as a band.
    """
    injection = np.atleast_2d(np.asarray(injection, dtype=float))
    if injection.ndim != 2 or injection.shape[0] != A.domain.dim:
        raise ShapeMismatch(f"injection has shape {injection.shape}; it "
                            f"needs one row per coordinate of "
                            f"{A.domain.label!r} ({A.domain.dim})")
    nb = injection.shape[1]
    w_y = A.codomain.band
    b = _band_solve(A.domain.band,
                    np.hstack([_band_apply(-A.matrix.T, w_y), injection]))
    ext_space = _space_from_band(_block_band(w_y, np.ones((nb, 1))), label)
    return LinearMap(b, domain=ext_space, codomain=A.domain)


def assemble_dual_pair(A: LinearMap, B_ext: LinearMap,
                       Lambda1: np.ndarray, Pi1: np.ndarray,
                       G1: HilbertSpaceSpec,
                       Lambda2: np.ndarray | None = None,
                       Pi2: np.ndarray | None = None,
                       G2: HilbertSpaceSpec | None = None) -> DualPairTriplet:
    """Validate traces against the dual-pair Green identity.

    The residual is the Frobenius norm of the bilinear defect of
    ``-<B_ext y~, x> - <iota_Y y~, A x> = <Pi1 y~, Lambda1 x> - <Pi2 y~, Lambda2 x>``
    normalized by ``1 + ||iota_Y^T W_Y A||_F``; assembly fails above 1e-12.
    """
    ext_dim = B_ext.domain.dim
    Lambda1 = np.atleast_2d(np.asarray(Lambda1, dtype=float))
    Pi1 = np.atleast_2d(np.asarray(Pi1, dtype=float))
    if G2 is None:
        Lambda2 = np.zeros((0, A.domain.dim))
        Pi2 = np.zeros((0, ext_dim))
    else:
        Lambda2 = np.atleast_2d(np.asarray(Lambda2, dtype=float))
        Pi2 = np.atleast_2d(np.asarray(Pi2, dtype=float))

    # Bilinear defect in y~^T (.) x coordinates, on CSR factors: iota_Y is
    # a coordinate projection and the trace products have rank m.
    iota_y_t = eye_array(ext_dim, A.codomain.dim, format="csr")
    pairing = iota_y_t @ _gram_csr(A.codomain) @ csr_array(A.matrix)
    defect = (-csr_array(B_ext.matrix).T @ _gram_csr(A.domain) - pairing
              - csr_array(Pi1).T @ csr_array(Lambda1)
              + csr_array(Pi2).T @ csr_array(Lambda2))
    residual = _frobenius(defect) / (1.0 + _frobenius(pairing))
    if residual > GREEN_TOL:
        raise GreenIdentityViolated(residual, float(abs(defect).max()),
                                    "dual pair")

    m = G1.dim + (G2.dim if G2 is not None else 0)
    if m > 0:
        lam = np.vstack([Lambda1, Lambda2])
        pi = np.vstack([Pi1, Pi2])
        if np.linalg.matrix_rank(lam) < m:
            raise TraceNotSurjective("stacked Lambda traces are rank "
                                     "deficient")
        if np.linalg.matrix_rank(pi) < m:
            raise TraceNotSurjective("stacked Pi traces are rank deficient")

    return DualPairTriplet(A, B_ext, _frozen(Lambda1), _frozen(Pi1), G1,
                           _frozen(Lambda2), _frozen(Pi2), G2,
                           residual=residual)


def _realize(dp: DualPairTriplet, w1: np.ndarray, label1: str,
             to_y: np.ndarray, velocity: np.ndarray,
             where: str) -> BoundaryOperator:
    """Boundary operator on extended coordinates ``(v, z2, tau)`` of a pair.

    The core Gram is ``blockdiag(w1, W_X)`` over ``(v, z2)``, built from
    the band ``w1`` of its first block; the Y~ element fed to B_ext and
    the Pi traces is ``[to_y v; tau]`` and the first block row of the
    action is ``v' = velocity z2``.  Raises ``TraceNotSurjective``
    and ``GreenIdentityViolated`` (naming ``where``) at their gates.
    """
    n1, nx = to_y.shape[1], dp.A.domain.dim
    dim_y = dp.A.codomain.dim
    nb = dp.n_boundary_coords
    core_dim = n1 + nx
    ext_dim = core_dim + nb
    m1 = dp.G1.dim
    m = m1 + (dp.G2.dim if dp.G2 is not None else 0)

    core = _space_from_band(_block_band(w1, dp.A.domain.band),
                            f"{label1}(+){dp.A.domain.label}")

    L = np.zeros((core_dim, ext_dim))
    gamma0 = np.zeros((m, ext_dim))
    gamma1 = np.zeros((m, ext_dim))
    L[:n1, n1:core_dim] = velocity
    gamma0[:m1, n1:core_dim] = dp.Lambda1
    gamma1[m1:, n1:core_dim] = dp.Lambda2
    # A map M on Y~ = (y, tau) acts on (v, z2, tau) as M S for the selection
    # S = [[to_y, 0, 0], [0, 0, I]]: [M_y to_y | 0 | M_tau], where + 0.0 turns
    # -0.0 into +0.0 as M S does.  NumPy hands a one-row M S to BLAS gemv,
    # whose sums depend on the shape of S, so a one-row M takes the dense S.
    # These dense products stay: L_eff and the port maps carry their bits.
    for rows, on_y_ext in ((L[n1:], dp.B_ext.matrix), (gamma0[m1:], dp.Pi2),
                           (gamma1[:m1], -dp.Pi1)):
        if on_y_ext.shape[0] == 1:
            rows[:] = on_y_ext @ scipy.linalg.block_diag(
                to_y, np.zeros((0, nx)), np.eye(nb))
        else:
            rows[:, :n1] = on_y_ext[:, :dim_y] @ to_y
            rows[:, core_dim:] = on_y_ext[:, dim_y:] + 0.0

    if m > 0 and np.linalg.matrix_rank(np.vstack([gamma0, gamma1])) < 2 * m:
        raise TraceNotSurjective(f"{where}: traces [Gamma0; Gamma1] are "
                                 "rank deficient")

    bspace = _space_from_band(_block_band(
        *(g.band for g in (dp.G1, dp.G2) if g is not None)), "G")

    op = BoundaryOperator(core=core, ext_dim=ext_dim, L=_frozen(L),
                          Gamma0=_frozen(gamma0), Gamma1=_frozen(gamma1),
                          bspace=bspace, core_blocks=(n1, nx), pair=dp)
    res = green_residual(op)
    if res > GREEN_TOL:
        raise GreenIdentityViolated(res, res, where)
    return op


def lift_second_order(dp: DualPairTriplet) -> BoundaryOperator:
    """Lift a dual pair to the maximal second-order boundary operator.

    Extended coordinates are ``(z1, z2, tau)`` with tau the boundary block
    of the extended Y side; the Y~ element fed to B_ext and the Pi traces
    is ``[A z1; tau]``.
    """
    a = dp.A.matrix
    # the GEMM (A^T W_Y) A stays: it feeds H and the jet's Cholesky factor
    w_h = _band_apply(a.T, dp.A.codomain.band) @ a
    w_h = 0.5 * (w_h + w_h.T)
    return _realize(dp, _band(w_h, _bandwidth(w_h)), f"{dp.A.domain.label}_h",
                    a, np.eye(dp.A.domain.dim), "second-order lift")


def _gram_csr(space: HilbertSpaceSpec) -> csr_array:
    """CSR of a space's Gram read from its band: the entries, in the order,
    of ``csr_array(space.gram)``, so products with it keep their bits."""
    inside, rows, cols = _band_entries(space.dim, space.bandwidth)
    gram = csr_array((space.band[inside], (rows, cols)),
                     shape=(space.dim, space.dim))
    gram.eliminate_zeros()
    return gram


def _frobenius(a: csr_array) -> float:
    """Frobenius norm of a CSR array from its stored entries."""
    a.sum_duplicates()
    return float(np.linalg.norm(a.data))


def green_residual(op: BoundaryOperator) -> float:
    """Defect of the operator Green identity, relative to 1 + ||W_Z L||_F.

    Evaluated on CSR factors (iota is a coordinate projection and
    Gamma0^T Gamma1 has rank m; W_Z is read from its band), so the cost
    grows with the nonzeros.
    """
    wl = _gram_csr(op.core) @ csr_array(op.L)
    iota = eye_array(op.core.dim, op.ext_dim, format="csr")
    g0, g1 = csr_array(op.Gamma0), csr_array(op.Gamma1)
    defect = iota.T @ wl + wl.T @ iota - g1.T @ g0 - g0.T @ g1
    return _frobenius(defect) / (1.0 + _frobenius(wl))


def minimal_domain(op: BoundaryOperator) -> np.ndarray:
    """Orthonormal basis of ker Gamma0 ∩ ker Gamma1 in extended coordinates.

    For surjective traces the dimension is ``ext_dim - 2 m``.
    """
    stacked = np.vstack([op.Gamma0, op.Gamma1])
    if stacked.shape[0] == 0 or not stacked.any():
        return np.eye(op.ext_dim)
    return scipy.linalg.null_space(stacked, rcond=NULLSPACE_RCOND)


def skew_on_minimal(op: BoundaryOperator,
                    L: np.ndarray | None = None) -> float:
    """Symmetric defect ``||sym(V^T iota^T W_Z L V)||_F`` on the minimal domain.

    V is the minimal-domain basis; with no damping folded into L the value
    is at roundoff level because the Green identity kills the boundary
    terms on the kernel.  An alternative action (e.g. with damping folded
    in) may be supplied.
    """
    v = minimal_domain(op)
    if v.shape[1] == 0:
        return 0.0
    iv = v[:op.core.dim]
    if np.linalg.matrix_rank(iv, tol=NULLSPACE_RCOND * max(
            1.0, float(np.abs(iv).max()))) < v.shape[1]:
        raise DegenerateCoreProjection(
            "core projection is not injective on the minimal domain")
    action = op.L if L is None else np.asarray(L, dtype=float)
    compressed = iv.T @ op.core.gram @ action @ v
    return float(np.linalg.norm(0.5 * (compressed + compressed.T)))
