"""Weighted finite-dimensional Hilbert spaces and basic operator calculus.

A space is a coordinate space R^n together with a symmetric positive definite
Gram matrix W; inner products are ``<x, y> = x^T W y``.  Dual spaces are
represented covariantly: dual elements share coordinates with primal vectors,
the duality pairing is the plain Euclidean product, the dual Gram is W^{-1}
and the Riesz map is multiplication by W.  With this convention every Green
identity downstream becomes a plain matrix identity.

All values are immutable after construction (arrays are frozen), so they can
be shared freely between threads.

A space holds its Gram once, as a canonical read-only CSR array
(``HilbertSpaceSpec.gram_csr``, frozen by ``_frozen_csr``: sorted, summed,
no stored zeros), and so does a ``LinearMap`` its matrix, given dense or
sparse.  Every product with a Gram or a map is a sparse product: ``x @
W`` in ``inner``/``norm``, the ledger and the jet, ``scipy.sparse
.block_diag`` in ``direct_sum``, sparse factors in ``check_dissipative``,
the normal Gram ``sym(A^T W A)`` (``LinearMap.normal_gram``), the Green
gates of ``triplet`` and the node's mass and damping.
``HilbertSpaceSpec.gram`` builds the dense matrix afresh on each read.
``_times_csr(x, g)`` forms ``x @ g^T`` as ``(g @ x^T)^T``: row i of g adds
its stored entries' products to a zero start, so each row of a block is
formed apart, a symmetric Gram is used as stored, and a factor with one
entry per row or column (the wave model's W_X, W_Y, mass, damping,
M^{-1}) gives one product per entry, with the bits of the dense GEMM.  It
hands the product on C-ordered: the GEMMs and ``einsum`` that read it sum
in an order that follows their operands' layout, and a run's CSV carries
those bits.  A small dense factor (K for a run's outputs; the ledger's
``a - b``, P and dual Gram) multiplies through ``_times_rows``, an
``einsum`` that also forms each row apart.  LAPACK's band routines read a Gram that is not diagonal
through ``_lower_band``: the eigenvalue bounds (``_extreme_eigenvalues``),
the solve against W_X (``_gram_solve``) and the jet's Cholesky factor, so
no product of a Gram makes it dense.
A direct sum (``direct_sum``: X_h (+) X, Y (+) X, G1 (+) G2, Y (+) R^nb)
keeps its summands in ``HilbertSpaceSpec.blocks``, so no module splits a
Gram back into blocks or eigen-solves a Gram whose blocks were already
validated.
The products whose entries sum several terms and reach a run's states
stay dense and keep their summation order, because its CSV carries their
bits: ``_realize``'s GEMM ``B_ext[:, :dim_y] @ A``, formed over 64 x 64
output tiles (``triplet._tiled_product``), M^{-1} of a non-diagonal mass,
the step's ``lu_factor``/``getrs`` and the step itself.  The normal Gram
reaches only the lift's X_h and the ledger's H, so it is a sparse product.

"The bits" above is the set-up's byte contract: every nonzero entry the
step reads and every byte a command writes equal those of the dense
products.  The sign of a zero is outside it, and so is a mass that is not
diagonal, which no command builds: the node's CSR ``L_eff`` sums its
M^{-1} products without the GEMM's fused multiply-adds, one rounding
apart.  Under IEEE 754-2019 (6.3) a zero's sign changes only the sign of
a zero result, and LU pivoting compares magnitudes, so set-up code turns
no -0.0 into +0.0.  The lift's tiles keep the whole GEMM's bits at every
size the benchmark builds, but not at every N: OpenBLAS picks its kernel
for an entry by the shape of the call.  With OpenBLAS 0.3.31's AVX-512
kernels one to three diagonal entries of ``B_ext[:, :dim_y] @ A``, one
ulp each, round apart for ``random_coefficients(N, default_rng(N))`` at
N = 67, 75, 228-230, 252, 254, 275-278, 299, 302, 324, 326, 348-350,
371-373, 395-397, 421, 422, 444, 446, 468, 470, 492, 494, 517, 539-542,
564, 565, 588-590, 611 and 635-637, the 46 of N = 1..640; the Pi traces'
products never did, and with its Haswell kernels no entry did
(``BENCH_33.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse import csr_array, eye_array

from .errors import (
    NonFiniteValue,
    NonPositiveGram,
    NonSymmetricGram,
    ShapeMismatch,
)

__all__ = [
    "HilbertSpaceSpec",
    "LinearMap",
    "ContractionParam",
    "make_space",
    "direct_sum",
    "euclidean_space",
    "inner",
    "norm",
    "contraction_norm",
    "check_dissipative",
]

SYM_RTOL = 1e-12
SPD_RTOL = 1e-12
CONTRACTION_TOL = 1e-10
DISSIPATIVITY_TOL = 1e-10
RANK_RTOL = 1e-10


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only C-ordered float64 array: ``a`` itself when it
    is one that owns its data, else a copy that later writes cannot reach."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.base is None and a.flags.c_contiguous
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _frozen_csr(a) -> csr_array:
    """A new canonical (sorted, summed) float64 CSR array of ``a`` without
    stored zeros, whose arrays are read-only: the entries of ``csr_array``
    of the dense array of ``a``."""
    a = csr_array(a, dtype=float, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    for x in (a.data, a.indices, a.indptr):
        x.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertSpaceSpec:
    """A finite-dimensional real Hilbert space in fixed coordinates.

    ``gram_csr`` holds the Gram W that ``make_space`` validated, as a
    canonical read-only CSR array (``_frozen_csr``); every entry it does
    not store is +0.0.  ``blocks`` holds the summands of a ``direct_sum``,
    in order, and is empty for any other space.
    """

    dim: int
    gram_csr: csr_array
    label: str
    eig_min: float = field(compare=False, default=0.0)
    eig_max: float = field(compare=False, default=0.0)
    blocks: tuple["HilbertSpaceSpec", ...] = field(compare=False, default=())

    @property
    def gram(self) -> np.ndarray:
        """The dense Gram, a new read-only dim x dim array on every read:
        for set-up products and tests, not for a per-step or per-row
        loop."""
        g = self.gram_csr.toarray()
        g.setflags(write=False)
        return g

    @cached_property
    def gram_roots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W^{1/2}, W^{-1/2})`` from one ``eigh`` of the Gram, built on
        first read and shared, read-only, by every later one."""
        eigs, vecs = np.linalg.eigh(self.gram)
        s = np.sqrt(eigs)
        roots = (vecs * s) @ vecs.T, (vecs / s) @ vecs.T
        for r in roots:
            r.setflags(write=False)
        return roots


@dataclass(frozen=True)
class LinearMap:
    """A matrix tagged with its domain and codomain spaces.

    ``matrix`` is given dense or sparse and held as a new canonical
    read-only CSR array (``_frozen_csr``), as a space holds its Gram.
    """

    matrix: csr_array
    domain: HilbertSpaceSpec
    codomain: HilbertSpaceSpec

    def __post_init__(self):
        m = self.matrix
        shape = m.shape if scipy.sparse.issparse(m) else np.shape(m)
        if shape != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch(
                f"matrix shape {shape} does not match map "
                f"{self.domain.label!r} (dim {self.domain.dim}) -> "
                f"{self.codomain.label!r} (dim {self.codomain.dim})")
        object.__setattr__(self, "matrix", _frozen_csr(m))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``matrix @ x``; ``ShapeMismatch`` unless x has domain rows."""
        x = np.asarray(x)
        _expect_shape("argument", x, (self.domain.dim,) + x.shape[1:])
        return self.matrix @ x

    @cached_property
    def normal_gram(self) -> csr_array:
        """``A^T W A`` (W the codomain's Gram) as a read-only CSR array,
        formed once, on first read, as the sparse product ``sym(A^T W
        A)``; it reaches the lift's X_h and the ledger's H, not the step,
        and the jet factors the same matrix by its band."""
        a = self.matrix
        w = a.T @ self.codomain.gram_csr @ a
        return _frozen_csr(0.5 * (w + w.T))


@dataclass(frozen=True)
class ContractionParam:
    """Operator on the dual boundary space with its cached dual norm.

    The flag ``is_contraction`` is true iff the operator norm with respect
    to the dual Gram W^{-1} does not exceed 1 + 1e-10.
    """

    matrix: np.ndarray
    boundary_space: HilbertSpaceSpec
    dual_norm: float = 0.0
    is_contraction: bool = False

    @staticmethod
    def from_matrix(P, boundary_space: HilbertSpaceSpec) -> "ContractionParam":
        P = np.atleast_2d(np.asarray(P, dtype=float))
        nrm = contraction_norm(P, boundary_space)
        return ContractionParam(_frozen(P), boundary_space, nrm,
                                nrm <= 1.0 + CONTRACTION_TOL)


def _expect_shape(name: str, array: np.ndarray, shape: tuple) -> None:
    """``ShapeMismatch`` naming ``name`` unless ``array`` has ``shape``."""
    if array.shape != shape:
        raise ShapeMismatch(f"{name} has shape {array.shape}; the library "
                            f"expects {shape}")


def _require_finite(**arrays: np.ndarray) -> None:
    """``NonFiniteValue`` naming the first keyword whose array holds NaN
    or infinity."""
    for name, x in arrays.items():
        if not np.isfinite(x).all():
            raise NonFiniteValue(f"{name} holds NaN or infinity")


def _as_param(P, boundary_space: HilbertSpaceSpec) -> ContractionParam:
    """P as a ``ContractionParam`` on ``boundary_space``: one passed in is
    kept, any other P goes through ``ContractionParam.from_matrix``, which
    raises ``NonFiniteValue`` or ``ShapeMismatch`` before any SVD."""
    if isinstance(P, ContractionParam):
        return P
    return ContractionParam.from_matrix(P, boundary_space)


def make_space(dim: int, gram, label: str) -> HilbertSpaceSpec:
    """Validate a Gram matrix and build a space with cached eigenvalue bounds.

    Raises ``ShapeMismatch`` unless the Gram is 2-D of shape (dim, dim),
    ``NonFiniteValue`` if it holds NaN or infinity, ``NonSymmetricGram`` if
    it is asymmetric beyond a relative tolerance of 1e-12 and
    ``NonPositiveGram`` (reporting the smallest and the largest eigenvalue)
    unless the smallest exceeds 1e-12 times the largest.  The Gram is a
    dense array or a SciPy sparse one; every gate reads its stored entries,
    and the bounds come from its band (see ``_extreme_eigenvalues``), so a
    sparse Gram is never made dense.  The space stores the CSR array of
    ``0.5 * g + 0.5 * g.T``.
    """
    g = gram if scipy.sparse.issparse(gram) else np.asarray(gram,
                                                            dtype=float)
    _expect_shape(f"gram of space {label!r}", g, (dim, dim))
    g = _frozen_csr(g)
    if dim == 0:
        return HilbertSpaceSpec(0, g, label)
    _require_finite(**{f"gram of space {label!r}": g.data})
    scale = _norm(g.data)
    if scale == 0.0:
        raise NonPositiveGram(label, 0.0, 0.0, SPD_RTOL)
    g_t = g.T.tocsr()
    if _norm((g - g_t).data) > SYM_RTOL * scale:
        raise NonSymmetricGram(f"gram of space {label!r} is not symmetric")
    g = _frozen_csr(0.5 * g + 0.5 * g_t)   # halves first: no overflow
    eig_min, eig_max = _extreme_eigenvalues(g)
    if eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    return HilbertSpaceSpec(dim, g, label, eig_min, eig_max)


def direct_sum(label: str, *spaces: HilbertSpaceSpec) -> HilbertSpaceSpec:
    """The space ``spaces[0] (+) spaces[1] (+) ...`` with the block-diagonal
    Gram of its summands, which it keeps in ``blocks``.

    The summands are validated spaces, so only the relative gate runs
    again: ``NonPositiveGram`` (naming ``label``) unless the smallest of
    their eigenvalue bounds exceeds 1e-12 times the largest.  Those
    extremes are the sum's bounds; no Gram is symmetrized or eigen-solved
    again.
    """
    gram = _frozen_csr(scipy.sparse.block_diag(
        [s.gram_csr for s in spaces], format="csr"))
    used = [s for s in spaces if s.dim]
    eig_min = min((s.eig_min for s in used), default=0.0)
    eig_max = max((s.eig_max for s in used), default=0.0)
    if used and eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    return HilbertSpaceSpec(gram.shape[0], gram, label, eig_min, eig_max,
                            spaces)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which does not overflow; 0.0 for an
    empty array.

    ``np.linalg.norm`` sums squares and returns inf for entries above about
    1e154, where a gate ``||d|| > tol ||g||`` would compare ``inf`` with
    ``tol * inf`` and pass anything; ``nrm2`` is specified not to overflow
    (it scales by the largest entry seen, or sums in a wider format).  That
    holds for the reference BLAS; for SciPy's BLAS
    (``scipy.linalg.blas.dnrm2``), the tests that feed the gates entries of
    1e200 or 1e308 (``test_hilbert.py``, ``test_node.py``,
    ``test_triplet.py``) are the guard.
    """
    a = np.ravel(a)
    return float(scipy.linalg.blas.dnrm2(a)) if a.size else 0.0


def _times_csr(x: np.ndarray, g: csr_array) -> np.ndarray:
    """``x @ g^T = (g @ x^T)^T`` for a vector or a block of rows x, as a
    new C-ordered array: ``x @ W`` for a symmetric Gram W as it is stored,
    and ``x @ F`` for any other factor F given its transpose.  Row i of g
    adds its stored entries' products to a zero start in column order,
    the sums of SciPy's ``x @ g^T``, without its transposed object.  The
    copy matters because the GEMMs and ``einsum`` that read the product
    sum in an order that follows their operands' layout."""
    return np.ascontiguousarray((g @ x.T).T)


def _times_rows(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for a vector or a block of rows x and a small dense a, by
    ``einsum``, which sums each row alone.  A GEMM's rows take bits from
    their place in the block (OpenBLAS runs a block's last rows, and a
    one-row product, through other kernels), so a run's CSV would depend
    on where its blocks are cut."""
    return np.einsum("...j,jk->...k", x, a)


def _lower_band(g: csr_array) -> np.ndarray:
    """LAPACK's lower band storage of a symmetric CSR array without
    duplicate entries, ``lower[k, i] = g[i + k, i]``, of half-width the
    largest ``i - j`` of a nonzero entry below the diagonal: the one band
    form that ``eig_banded``, ``solveh_banded`` and ``cholesky_banded``
    read."""
    coo = g.tocoo()
    below = (coo.row >= coo.col) & (coo.data != 0.0)
    cols = coo.col[below]
    offsets = coo.row[below] - cols
    lower = np.zeros((int(offsets.max(initial=0)) + 1, g.shape[0]))
    lower[offsets, cols] = coo.data[below]
    return lower


def _gram_solve(space: HilbertSpaceSpec, rhs: csr_array):
    """``W^{-1} rhs`` for the Gram W of ``space`` and a CSR rhs.

    A diagonal W scales each row of rhs by its reciprocal, as LAPACK's
    triangular solve does for several right-hand sides (one product per
    entry), and the result stays CSR.  Any other W goes to LAPACK's banded
    Cholesky solve (``solveh_banded``) on the dense rhs.
    """
    lower = _lower_band(space.gram_csr)
    if len(lower) == 1:
        return scipy.sparse.diags_array(1.0 / lower[0]) @ rhs
    return scipy.linalg.solveh_banded(lower, rhs.toarray(), lower=True)


def _extreme_eigenvalues(g: csr_array) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric CSR array.

    A diagonal matrix gives its sorted diagonal; any other one of
    half-width w goes to LAPACK's ``dsbevx`` (``eig_banded`` with
    ``select='i'``) on its lower band storage, whose band reduction costs
    about 6 n^2 w flops.  An empty matrix gives ``(0.0, 0.0)``, the
    bounds of a zero-dimensional space.  Raises ``LinAlgError`` when it
    holds NaN or infinity.
    """
    if not np.isfinite(g.data).all():
        raise np.linalg.LinAlgError("eigenvalues of a matrix holding NaN or "
                                    "infinity")
    n = g.shape[0]
    if n == 0:
        return 0.0, 0.0
    lower = _lower_band(g)
    if len(lower) == 1:
        return float(lower[0].min()), float(lower[0].max())
    lo, hi = (scipy.linalg.eig_banded(lower, lower=True, eigvals_only=True,
                                      select="i", select_range=(i, i))[0]
              for i in (0, n - 1))
    return float(lo), float(hi)


def euclidean_space(dim: int, label: str) -> HilbertSpaceSpec:
    return make_space(dim, eye_array(dim), label)


def _rows(name: str, x, width: int, finite: bool = False) -> np.ndarray:
    """``x`` as a float array; ``ShapeMismatch`` unless it is a vector
    ``(width,)`` or a block ``(k, width)`` holding one vector per row, and
    with ``finite``, ``NonFiniteValue`` if it holds NaN or infinity."""
    x = np.asarray(x, dtype=float)
    _expect_shape(name, x, x.shape[:-1][:1] + (width,))
    if finite:
        _require_finite(**{name: x})
    return x


def _row_forms(xw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairing ``x_i^T W y_i`` of every row, given ``xw = x W``: the
    quadratic form of the rows of x for ``y = x``; a scalar for vectors."""
    return np.einsum("...i,...i->...", xw, y)


def inner(space: HilbertSpaceSpec, x, y) -> np.ndarray | float:
    """``x^T W y`` of two vectors, or of each row of two blocks of the
    same shape; ``ShapeMismatch`` for any other shape."""
    x = _rows("x", x, space.dim)
    y = np.asarray(y, dtype=float)
    _expect_shape("y", y, x.shape)
    return _row_forms(_times_csr(x, space.gram_csr), y)


def norm(space: HilbertSpaceSpec, x) -> np.ndarray | float:
    """``sqrt(x^T W x)`` of a vector, or of each row of a block."""
    return np.sqrt(np.maximum(inner(space, x, x), 0.0))


def contraction_norm(P, boundary_space: HilbertSpaceSpec) -> float:
    """Operator norm of P on the dual boundary space (Gram W^{-1}).

    Equals the largest singular value of W^{-1/2} P W^{1/2}, with the
    roots of the space's Gram factored once per space
    (``HilbertSpaceSpec.gram_roots``).  Raises ``NonFiniteValue`` when P
    holds NaN or infinity and ``ShapeMismatch`` unless P is m x m on the
    m-dimensional space.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    _require_finite(**{"contraction parameter P": P})
    m = boundary_space.dim
    if P.shape != (m, m):
        raise ShapeMismatch(f"P must be {m}x{m}, got {P.shape}")
    if m == 0:
        return 0.0
    w_half, w_inv_half = boundary_space.gram_roots
    return float(np.linalg.norm(w_inv_half @ P @ w_half, 2))


def check_dissipative(D: LinearMap) -> tuple[bool, float]:
    """Test whether -D is dissipative on the domain of D.

    Returns ``(ok, lam)`` where ``lam`` is the smallest eigenvalue of the
    symmetric part of W D; ``ok`` is true iff ``lam >= -1e-10``, i.e.
    ``Re<-Dx, x> <= 0`` for all x up to tolerance.  W D is the product of
    the sparse factors.
    """
    _expect_shape(f"map {D.domain.label!r} -> {D.codomain.label!r}",
                  D.matrix, (D.domain.dim, D.domain.dim))
    wd = D.domain.gram_csr @ D.matrix
    lam = _extreme_eigenvalues(0.5 * (wd + wd.T))[0]
    return lam >= -DISSIPATIVITY_TOL, lam
