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
write a projection and store none.

The lift produces a maximal second-order operator on extended coordinates
``(z1, z2, tau)`` over the core space ``Z = X_h (+) X`` with
``W_Z = blockdiag(A^T W_Y A, W_X)`` (``LinearMap.normal_gram``), action
``L(z1, z2, tau) = (z2, B_ext[A z1; tau])`` and traces

    Gamma0 = (Lambda1 z2, Pi2 [A z1; tau]),
    Gamma1 = (-Pi1 [A z1; tau], Lambda2 z2),

for which the operator Green identity

    iota^T W_Z L + L^T W_Z iota = Gamma1^T Gamma0 + Gamma0^T Gamma1

holds exactly whenever the dual-pair identity does (``green_residual``,
kept as ``BoundaryOperator.residual``).  The strain-momentum form
(``strain_momentum``, the target of :mod:`passivebc.jet`) realizes it on
``Y (+) X`` with ``W = blockdiag(W_Y, W_X)``.  Both go through ``_realize``:
the lift feeds ``(to_y, velocity) = (A, I)``, i.e. ``[A z1; tau]`` to B_ext
and ``z1' = z2``, the strain-momentum form ``(I, A)``.

The maps and the action are stored sparse: A and B_ext, like every
``LinearMap``, and ``BoundaryOperator.L`` are canonical read-only CSR
arrays (``hilbert._frozen_csr``, as every space's Gram is).
``extend_adjoint`` forms B_ext by sparse products and ``_realize``
assembles L from its blocks, so no dense core x ext array is formed; the
lift's product ``B_ext[:, :dim_y] @ A``, whose bits L and every run
carry, is a dense GEMM formed over 64 x 64 output tiles
(``_tiled_product``), so no dense copy of B_ext or A and no dense
product is held either.  The two
Green gates multiply CSR factors: the maps and Grams as they are held and
the traces converted.  The traces ``Gamma0``/``Gamma1`` (m rows each)
stay dense.  No module forms a dense L: ``skew_on_minimal`` reads ``L @
V``, ``extension.GeneratorRealization.A_main`` reads L on the kernel, and
the node's CSR ``L_eff`` is formed from L by sparse products; the step
matrices are its only dense copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.sparse import block_array, coo_array, csr_array, eye_array, hstack

from .errors import (
    DegenerateCoreProjection,
    GreenIdentityViolated,
    ShapeMismatch,
    TraceNotSurjective,
)
from .hilbert import (
    HilbertSpaceSpec,
    LinearMap,
    _expect_shape,
    _frozen,
    _frozen_csr,
    _gram_solve,
    _norm,
    _require_finite,
    direct_sum,
    euclidean_space,
    make_space,
)

__all__ = [
    "DualPairTriplet",
    "BoundaryOperator",
    "extend_adjoint",
    "assemble_dual_pair",
    "lift_second_order",
    "strain_momentum",
    "green_residual",
    "minimal_domain",
    "skew_on_minimal",
]

GREEN_TOL = 1e-12
NULLSPACE_RCOND = 1e-10
_TILE = 64      # edge of _tiled_product's output tiles
_TRACES = ("Lambda1", "Pi1", "Lambda2", "Pi2")


@dataclass(frozen=True)
class DualPairTriplet:
    """Validated dual pair with trace maps and one or two boundary blocks.

    A NaN or infinite trace is refused where a pair is made, by
    ``dataclasses.replace`` too, as ``NonFiniteValue`` naming it.
    """

    A: LinearMap                      # X -> Y
    B_ext: LinearMap                  # Y~ = (y, tau) -> X
    Lambda1: np.ndarray               # X -> G1
    Pi1: np.ndarray                   # Y~ -> G1 dual coordinates
    G1: HilbertSpaceSpec
    Lambda2: np.ndarray | None = None  # X -> G2 dual coordinates
    Pi2: np.ndarray | None = None      # Y~ -> G2
    G2: HilbertSpaceSpec | None = None
    residual: float = field(compare=False, default=0.0)

    def __post_init__(self):
        _require_finite(**{name: x for name in _TRACES
                           if (x := getattr(self, name)) is not None})

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
    coordinates as the direct sum of its (z1, z2) blocks, ``L`` is the
    action, stored as a canonical read-only CSR array of the L given
    (``_frozen_csr``), and ``Gamma0``/``Gamma1`` map into the boundary
    space ``bspace`` and its covariant dual.
    ``core_blocks``, the dimensions of the two blocks, which the mass
    weighting keeps apart, is read from the core and ``ext_dim`` from L.
    Raises ``ShapeMismatch`` unless ``core`` is a ``direct_sum`` of two
    spaces.
    """

    core: HilbertSpaceSpec
    L: csr_array
    Gamma0: np.ndarray
    Gamma1: np.ndarray
    bspace: HilbertSpaceSpec

    def __post_init__(self):
        object.__setattr__(self, "L", _frozen_csr(self.L))
        if len(self.core.blocks) != 2:
            raise ShapeMismatch(f"core {self.core.label!r} has "
                                f"{len(self.core.blocks)} direct-sum blocks; "
                                "a boundary operator needs two")

    @property
    def core_blocks(self) -> tuple[int, int]:
        return tuple(b.dim for b in self.core.blocks)

    @property
    def ext_dim(self) -> int:
        return self.L.shape[1]

    @property
    def n_boundary(self) -> int:
        return self.bspace.dim

    @cached_property
    def residual(self) -> float:
        """``green_residual(self)``, evaluated once, on first read."""
        return green_residual(self)


def extend_adjoint(A: LinearMap, injection: np.ndarray,
                   label: str = "Y~") -> LinearMap:
    """Extension of -A* to ``Y (+) R^nb`` by a boundary injection.

    ``B_ext = W_X^{-1} [-A^T W_Y | E]`` where the columns of E are the
    covariant boundary functionals; the Green identity then holds by
    construction.  ``-(A^T W_Y)`` is a sparse product next to E and the
    solve against W_X is ``_gram_solve``'s, which scales a diagonal W_X's
    rows by ``1 / w_X``; for diagonal Grams each entry is one product, so
    both keep the bits of the dense GEMM and of LAPACK's solve of several
    right-hand sides.  The extended space is the direct sum ``Y (+) R^nb``.
    """
    injection = np.atleast_2d(np.asarray(injection, dtype=float))
    _expect_shape("injection", injection,
                  (A.domain.dim,) + injection.shape[1:2])
    nb = injection.shape[1]
    rhs = hstack([-(A.matrix.T @ A.codomain.gram_csr), csr_array(injection)],
                 format="csr")
    ext_space = direct_sum(label, A.codomain, euclidean_space(nb, f"R^{nb}"))
    return LinearMap(_gram_solve(A.domain, rhs), domain=ext_space,
                     codomain=A.domain)


def assemble_dual_pair(A: LinearMap, B_ext: LinearMap,
                       Lambda1: np.ndarray, Pi1: np.ndarray,
                       G1: HilbertSpaceSpec,
                       Lambda2: np.ndarray | None = None,
                       Pi2: np.ndarray | None = None,
                       G2: HilbertSpaceSpec | None = None) -> DualPairTriplet:
    """Validate traces against the dual-pair Green identity.

    The residual is the Frobenius norm of the bilinear defect of
    ``-<B_ext y~, x> - <iota_Y y~, A x> = <Pi1 y~, Lambda1 x> - <Pi2 y~, Lambda2 x>``
    normalized by ``1 + ||iota_Y^T W_Y A||_F``; assembly fails above 1e-12
    or when the residual is NaN.  NaN or infinity in A, B_ext or a trace
    is refused first, as ``NonFiniteValue`` naming the array.
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
    _require_finite(A=A.matrix.data, B_ext=B_ext.matrix.data)
    dp = DualPairTriplet(A, B_ext, _frozen(Lambda1), _frozen(Pi1), G1,
                         _frozen(Lambda2), _frozen(Pi2), G2)

    # Bilinear defect in y~^T (.) x coordinates, on CSR factors: iota_Y is
    # a coordinate projection and the trace products have rank m.
    iota_y_t = eye_array(ext_dim, A.codomain.dim, format="csr")
    pairing = iota_y_t @ A.codomain.gram_csr @ A.matrix
    defect = (-B_ext.matrix.T @ A.domain.gram_csr - pairing
              - csr_array(Pi1).T @ csr_array(Lambda1)
              + csr_array(Pi2).T @ csr_array(Lambda2))
    residual = _frobenius(defect) / (1.0 + _frobenius(pairing))
    if not residual <= GREEN_TOL:
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

    return replace(dp, residual=residual)


def _realize(dp: DualPairTriplet, first: HilbertSpaceSpec,
             to_y: csr_array | None, velocity: csr_array | None,
             where: str) -> BoundaryOperator:
    """Boundary operator on extended coordinates ``(v, z2, tau)`` of a pair.

    The core is ``first (+) X`` over ``(v, z2)``; the Y~ element fed to
    B_ext and the Pi traces is ``[to_y v; tau]`` and the first block row
    of the action is ``v' = velocity z2``; None is the identity, set, not
    multiplied.  Raises ``TraceNotSurjective`` and ``GreenIdentityViolated``
    (naming ``where``, and for a NaN residual too) at their gates.
    """
    core = direct_sum(f"{first.label}(+){dp.A.domain.label}", first,
                      dp.A.domain)
    bspace = direct_sum("G", *(g for g in (dp.G1, dp.G2) if g is not None))
    n1, nx, core_dim = first.dim, dp.A.domain.dim, core.dim
    dim_y, nb = dp.A.codomain.dim, dp.n_boundary_coords
    ext_dim = core_dim + nb
    m1, m = dp.G1.dim, bspace.dim
    # B_ext[:, :dim_y] @ to_y and the Pi traces' products with to_y are
    # dense GEMMs formed over 64 x 64 output tiles (_tiled_product), so no
    # dense operand or product is held: L, and through it the step and
    # every output of a run, carry the GEMM's bits, which a sparse
    # product's summation order would move (by 10x wide-grid's reference
    # tolerance on y_2).
    gamma0 = np.zeros((m, ext_dim))
    gamma1 = np.zeros((m, ext_dim))
    gamma0[:m1, n1:core_dim] = dp.Lambda1
    gamma1[m1:, n1:core_dim] = dp.Lambda2
    # A map M on Y~ = (y, tau) acts on (v, z2, tau) as M S for the
    # selection S = [[to_y, 0, 0], [0, 0, I]]: [M_y to_y | 0 | M_tau].
    for rows, on_y_ext in ((gamma0[m1:], dp.Pi2), (gamma1[:m1], -dp.Pi1)):
        on_y = on_y_ext[:, :dim_y]
        rows[:, :n1] = (on_y if to_y is None
                        else _tiled_product(on_y, to_y).toarray())
        rows[:, core_dim:] = on_y_ext[:, dim_y:]
    # L = [[0, velocity, 0], B_ext S] from its blocks, so no dense core x
    # ext array is formed; for to_y = I the blocks of B_ext S are the CSR
    # slices of B_ext.
    b_ext = dp.B_ext.matrix
    v = b_ext[:, :dim_y]
    if to_y is not None:
        v = _tiled_product(v, to_y)
    L = block_array([[None, eye_array(n1, nx) if velocity is None
                      else velocity, None], [v, None, b_ext[:, dim_y:]]],
                    format="csr")
    for x in (gamma0, gamma1):
        x.setflags(write=False)

    if m > 0 and np.linalg.matrix_rank(np.vstack([gamma0, gamma1])) < 2 * m:
        raise TraceNotSurjective(f"{where}: traces [Gamma0; Gamma1] are "
                                 "rank deficient")

    op = BoundaryOperator(core=core, L=L, Gamma0=gamma0, Gamma1=gamma1,
                          bspace=bspace)
    if not op.residual <= GREEN_TOL:
        raise GreenIdentityViolated(op.residual, op.residual, where)
    return op


def _tiled_product(left, right: csr_array) -> csr_array:
    """``left @ right`` as a canonical read-only CSR array, with the bits
    of the whole dense GEMM where OpenBLAS allows (``hilbert``'s byte
    contract says where it does not).

    Each 64 x 64 output tile is one GEMM of a dense C-ordered 64-row block
    of ``left`` by a dense C-ordered 64-column block of ``right`` over the
    whole inner dimension, since OpenBLAS rounds an entry as its
    K-blocking sums it.  The last block of rows or of columns ends at the
    edge and overlaps the one before it, keeping only its own entries, so
    no tile is a smaller GEMM, which OpenBLAS may round by another kernel.
    Tiles that are structurally zero are skipped: for the lift's banded
    operands the product takes O(N^2) flops and O(N) memory beyond its
    result, not O(N^3) and O(N^2).
    """
    left, right = csr_array(left), right.tocsc()
    (n_rows, inner), n_cols = left.shape, right.shape[1]
    # tile (i, j) is formed where row block i and column block j share an
    # inner index: the pattern of the product of their 0/1 incidences
    row_blocks = np.repeat(np.arange(n_rows) // _TILE, np.diff(left.indptr))
    col_blocks = np.repeat(np.arange(n_cols) // _TILE, np.diff(right.indptr))
    hits = (csr_array((np.ones(left.nnz), (row_blocks, left.indices)),
                      shape=(-(-n_rows // _TILE), inner))
            @ csr_array((np.ones(right.nnz), (right.indices, col_blocks)),
                        shape=(inner, -(-n_cols // _TILE))))
    empty = np.zeros(0, dtype=np.intp)
    parts = [(empty, empty, np.zeros(0))]
    for i in range(hits.shape[0]):
        js = hits.indices[hits.indptr[i]:hits.indptr[i + 1]]
        if not js.size:
            continue
        i0 = _tile_start(i, n_rows)
        block = left[i0:i0 + _TILE].toarray()
        for j in js:
            j0 = _tile_start(j, n_cols)
            tile = (block @ right[:, j0:j0 + _TILE].toarray("C"))[
                i * _TILE - i0:, j * _TILE - j0:]
            r, c = np.nonzero(tile)
            parts.append((r + i * _TILE, c + j * _TILE, tile[r, c]))
    r, c, data = (np.concatenate(x) for x in zip(*parts))
    # int32 indices, as SciPy gives L's other blocks: int64 would widen
    # the indices of L and of every product with it
    return _frozen_csr(coo_array((data, (r.astype(np.int32),
                                         c.astype(np.int32))),
                                 shape=(n_rows, n_cols)))


def _tile_start(k: int, n: int) -> int:
    """First index of the k-th 64-wide block of n, the last block ending
    at n: a whole tile overlaps the one before it."""
    return max(0, min(k * _TILE, n - _TILE))


def lift_second_order(dp: DualPairTriplet) -> BoundaryOperator:
    """Lift a dual pair to the maximal second-order boundary operator.

    Extended coordinates are ``(z1, z2, tau)`` with tau the boundary block
    of the extended Y side; the Y~ element fed to B_ext and the Pi traces
    is ``[A z1; tau]``.
    """
    normal = dp.A.normal_gram
    x_h = make_space(normal.shape[0], normal, f"{dp.A.domain.label}_h")
    return _realize(dp, x_h, dp.A.matrix, None, "second-order lift")


def strain_momentum(dp: DualPairTriplet) -> BoundaryOperator:
    """Strain-momentum realization on ``(w1, w2, tau)`` over ``Y (+) X``:
    B_ext and the Pi traces read ``[w1; tau]``, and ``w1' = A w2``."""
    return _realize(dp, dp.A.codomain, None, dp.A.matrix, "jet target")


def _frobenius(a: csr_array) -> float:
    """Frobenius norm of a CSR array from its stored entries, by
    ``hilbert._norm``, which does not overflow."""
    a.sum_duplicates()
    return _norm(a.data)


def green_residual(op: BoundaryOperator) -> float:
    """Defect of the operator Green identity, relative to 1 + ||W_Z L||_F.

    Evaluated on CSR factors (iota is a coordinate projection and
    Gamma0^T Gamma1 has rank m; W_Z is the core's CSR Gram), so the cost
    grows with the nonzeros.
    """
    wl = op.core.gram_csr @ op.L
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

    V is the minimal-domain basis, and the action and W_Z (the core's CSR
    Gram) multiply it as they are held; with no damping folded into L the
    value is at roundoff level because the Green identity kills the
    boundary terms on the kernel.  An alternative action (e.g. with damping
    folded in) may be supplied; ``ShapeMismatch`` unless it has the shape
    of ``op.L``.
    """
    action = op.L if L is None else np.asarray(L, dtype=float)
    _expect_shape("action L", action, op.L.shape)
    v = minimal_domain(op)
    if v.shape[1] == 0:
        return 0.0
    iv = v[:op.core.dim]
    if np.linalg.matrix_rank(iv, tol=NULLSPACE_RCOND * max(
            1.0, float(np.abs(iv).max()))) < v.shape[1]:
        raise DegenerateCoreProjection(
            "core projection is not injective on the minimal domain")
    compressed = (op.core.gram_csr @ iv).T @ (action @ v)
    return float(np.linalg.norm(0.5 * (compressed + compressed.T)))
