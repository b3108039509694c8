"""Weighted finite-dimensional Hilbert spaces and basic operator calculus.

A space is a coordinate space R^n together with a symmetric positive definite
Gram matrix W; inner products are ``<x, y> = x^T W y``.  Dual spaces are
represented covariantly: dual elements share coordinates with primal vectors,
the duality pairing is the plain Euclidean product, the dual Gram is W^{-1}
and the Riesz map is multiplication by W.  With this convention every Green
identity downstream becomes a plain matrix identity.

All values are immutable after construction (arrays are frozen), so they can
be shared freely between threads.

A space holds its Gram by its band, the ``(dim, 2b + 1)`` array of its
diagonals -b..b, and set-up gates read that band (``make_space``,
``check_dissipative``, the Green gates in ``triplet``, the mass gate in
``node``).  Set-up code that knows a Gram's band passes it to
``_space_from_band``, which runs ``make_space``'s gates on it, so no dense
Gram is formed.
``_band_apply`` is the one band-times-matrix kernel: it adds the 2b + 1
diagonal products of any band, so a product's rows are formed apart, and
a diagonal one (the wave model's W_X, W_Y, mass, damping, M^{-1}) keeps
the GEMM's bits.  ``_band_solve`` and ``_extreme_eigenvalues`` hand a
band that is not diagonal to LAPACK's band routines, so no product of a
Gram makes it dense; ``HilbertSpaceSpec.gram`` builds the dense matrix
afresh on each read.
``inner`` and ``norm`` take a vector or a block of one vector per row and
pair by ``_row_forms``, the one pairing kernel, which the ledger reads too.
A direct sum (``direct_sum``: X_h (+) X, Y (+) X, G1 (+) G2, Y (+) R^nb)
holds the block-diagonal band of its summands and keeps the summands
themselves in ``HilbertSpaceSpec.blocks``, so no module splits a band back
into blocks or eigen-solves a Gram whose blocks were already validated.
The products of dense operators whose entries sum several terms stay
GEMMs and keep their summation order, because a run's states and CSV carry
their bits: the normal matrix ``(A^T W_Y) A`` (``LinearMap.normal_band``),
``_realize``'s ``B_ext[:, :dim_y] @ A``, M^{-1} of a non-diagonal mass,
the step's ``lu_factor``/``getrs`` and the step itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class HilbertSpaceSpec:
    """A finite-dimensional real Hilbert space in fixed coordinates.

    ``band`` holds the Gram's diagonals -b..b, ``band[i, b + k] = W[i, i +
    k]`` (+0.0 where ``i + k`` leaves the matrix), read-only; every entry
    of W outside them is +0.0.  ``make_space`` derives the half-width b,
    ``bandwidth``, and stores the band it validated.  ``blocks`` holds the
    summands of a ``direct_sum``, in order, and is empty for any other
    space.
    """

    dim: int
    band: np.ndarray
    label: str
    eig_min: float = field(compare=False, default=0.0)
    eig_max: float = field(compare=False, default=0.0)
    blocks: tuple["HilbertSpaceSpec", ...] = field(compare=False, default=())

    @property
    def bandwidth(self) -> int:
        return self.band.shape[1] // 2

    @property
    def gram(self) -> np.ndarray:
        """The dense Gram, a new read-only dim x dim array on every read:
        for set-up products and tests, not for a per-step or per-row
        loop."""
        g = _dense(self.band)
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
    """A matrix tagged with its domain and codomain spaces."""

    matrix: np.ndarray
    domain: HilbertSpaceSpec
    codomain: HilbertSpaceSpec

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch(
                f"matrix shape {m.shape} does not match map "
                f"{self.domain.label!r} (dim {self.domain.dim}) -> "
                f"{self.codomain.label!r} (dim {self.codomain.dim})")
        object.__setattr__(self, "matrix", m)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``matrix @ x``; ``ShapeMismatch`` unless x has domain rows."""
        x = np.asarray(x)
        _expect_shape("argument", x, (self.domain.dim,) + x.shape[1:])
        return self.matrix @ x

    @cached_property
    def normal_band(self) -> np.ndarray:
        """Read-only band of ``A^T W A`` (W the codomain's Gram), formed once,
        on first read, as ``sym((A^T W) A)``; the GEMM's bits reach the
        lift's X_h and H, and the jet factors the same band."""
        w = _band_apply(self.matrix.T, self.codomain.band) @ self.matrix
        w = 0.5 * (w + w.T)
        return _frozen(_band(w, _bandwidth(w)))


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
        _require_finite(**{"contraction parameter P": P})
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
    unless the smallest exceeds 1e-12 times the largest.  The Gram is read
    once in full, for its half-bandwidth b (``_bandwidth``); every gate
    then reads its 2b + 1 diagonals (``_space_from_band``), and the bounds
    come from their structure (see ``_extreme_eigenvalues``).  The space
    stores the band of ``0.5 * g + 0.5 * g.T``, and no dense copy.
    """
    g = np.asarray(gram, dtype=float)
    _expect_shape(f"gram of space {label!r}", g, (dim, dim))
    return _space_from_band(_band(g, _bandwidth(g)), label)


def _space_from_band(band: np.ndarray, label: str) -> HilbertSpaceSpec:
    """``make_space`` for the Gram whose diagonals -b..b are ``band`` (+0.0
    in the slots outside the matrix and off the band): the same gates,
    errors and stored bytes, with no dense Gram formed.  Diagonals of
    +0.0 bits at the band's edges are dropped first, so the space holds
    the band ``make_space`` would find."""
    band = np.asarray(band, dtype=float)
    if len(band) == 0:
        return HilbertSpaceSpec(0, _frozen(np.zeros((0, 1))), label)
    band = _trimmed(band)
    _require_finite(**{f"gram of space {label!r}": band})
    scale = _norm(band)
    if scale == 0.0:
        raise NonPositiveGram(label, 0.0, 0.0, SPD_RTOL)
    band_t = _band_transpose(band)
    if _norm(band - band_t) > SYM_RTOL * scale:
        raise NonSymmetricGram(f"gram of space {label!r} is not symmetric")
    band = 0.5 * band + 0.5 * band_t   # halves first: no overflow near the max
    eig_min, eig_max = _extreme_eigenvalues(band)
    if eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    band.setflags(write=False)
    return HilbertSpaceSpec(len(band), band, label, eig_min, eig_max)


def direct_sum(label: str, *spaces: HilbertSpaceSpec) -> HilbertSpaceSpec:
    """The space ``spaces[0] (+) spaces[1] (+) ...`` with the block-diagonal
    Gram of its summands, which it keeps in ``blocks``.

    The summands are validated spaces, so only the relative gate runs
    again: ``NonPositiveGram`` (naming ``label``) unless the smallest of
    their eigenvalue bounds exceeds 1e-12 times the largest.  Those
    extremes are the sum's bounds; no band is symmetrized, trimmed or
    eigen-solved again.
    """
    band = _block_band(*(s.band for s in spaces))
    band.setflags(write=False)
    used = [s for s in spaces if s.dim]
    eig_min = min((s.eig_min for s in used), default=0.0)
    eig_max = max((s.eig_max for s in used), default=0.0)
    if used and eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    return HilbertSpaceSpec(len(band), band, label, eig_min, eig_max, spaces)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which does not overflow; 0.0 for an
    empty array.

    ``np.linalg.norm`` sums squares and returns inf for entries above about
    1e154, where a gate ``||d|| > tol ||g||`` would compare ``inf`` with
    ``tol * inf`` and pass anything; ``nrm2`` is specified not to overflow
    (it scales by the largest entry seen, or sums in a wider format).  That
    holds for the reference BLAS; for the BLAS NumPy links, the tests that
    feed the gates entries of 1e200 (``test_hilbert.py``, ``test_node.py``)
    are the guard.
    """
    a = np.ravel(a)
    return float(scipy.linalg.blas.dnrm2(a)) if a.size else 0.0


def _bandwidth(g: np.ndarray) -> int:
    """Half-bandwidth of a square float matrix: the largest ``|i - j|``
    over the entries whose bits are not all zero.

    One pass over the bit patterns; only +0.0 has all-zero bits, so -0.0,
    NaN and infinity all lie inside the band.
    """
    n = len(g)
    if n == 0:
        return 0
    nonzero = g.view(np.uint64) != 0
    rows = np.arange(n)
    first = nonzero.argmax(axis=1)
    last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
    used = nonzero[rows, first]
    return int(np.maximum(rows - first, last - rows)[used].max(initial=0))


def _band_entries(n: int, bandwidth: int):
    """Slots of an ``(n, 2b + 1)`` band that lie inside an n x n matrix,
    with the row and the column of each, ordered by row, then column."""
    cols = np.arange(n)[:, None] + np.arange(-bandwidth, bandwidth + 1)
    inside = (cols >= 0) & (cols < n)
    rows = np.broadcast_to(np.arange(n)[:, None], cols.shape)
    return inside, rows[inside], cols[inside]


def _band(g: np.ndarray, bandwidth: int) -> np.ndarray:
    """Diagonals -b..b of a square matrix: ``band[i, b + k] = g[i, i + k]``,
    +0.0 where ``i + k`` leaves the matrix."""
    inside, rows, cols = _band_entries(len(g), bandwidth)
    band = np.zeros(inside.shape)
    band[inside] = g[rows, cols]
    return band


def _dense(band: np.ndarray) -> np.ndarray:
    """The square matrix of a band, +0.0 off it."""
    n = len(band)
    inside, rows, cols = _band_entries(n, band.shape[1] // 2)
    g = np.zeros((n, n))
    g[rows, cols] = band[inside]
    return g


def _trimmed(band: np.ndarray) -> np.ndarray:
    """The band without its outer diagonals whose bits are all zero: the
    band of half-width ``_bandwidth`` of its matrix, when the slots
    outside the matrix hold +0.0."""
    b = band.shape[1] // 2
    used = np.flatnonzero((band.view(np.uint64) != 0).any(axis=0))
    w = int(np.abs(used - b).max(initial=0))
    return band[:, b - w:b + w + 1]


def _block_band(*bands: np.ndarray) -> np.ndarray:
    """Band of the block-diagonal matrix of the matrices of ``bands``."""
    b = max(x.shape[1] // 2 for x in bands)
    out = np.zeros((sum(len(x) for x in bands), 2 * b + 1))
    row = 0
    for x in bands:
        n, k = len(x), x.shape[1] // 2
        inside = _band_entries(n, k)[0]
        out[row:row + n, b - k:b + k + 1] = np.where(inside, x, 0.0)
        row += n
    return out


def _band_apply(x: np.ndarray, band: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """``x @ W`` for the square W of ``band`` and a finite x, into ``out``
    (x itself too) or a new C-ordered array.

    Adds the products of W's 2b + 1 diagonals, so each row of ``x @ W``
    comes from that row alone; a diagonal W gives one product per entry,
    which has the GEMM's bits, and ``+ 0.0`` turns -0.0 into +0.0 as the
    GEMM's zero start does.
    """
    b = band.shape[1] // 2
    if out is None:
        out = np.empty(np.shape(x))
    if b and np.may_share_memory(out, x):
        x = x.copy()
    np.multiply(x, band[:, b], out=out)
    for k in range(1, b + 1):
        # column i reads W[i + k, i], column i + k reads W[i, i + k]
        out[..., :-k] += x[..., k:] * band[k:, b - k]
        out[..., k:] += x[..., :-k] * band[:-k, b + k]
    out += 0.0
    return out


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``W^{-1} rhs`` for the SPD W of ``band`` and a 2-D rhs.

    A diagonal W is solved as LAPACK's triangular solve does, which
    divides by the pivot for a single right-hand side and multiplies by
    its reciprocal for several, so a positive diagonal and an rhs free of
    -0.0 get the bits of ``np.linalg.solve``.  A wider band goes to
    LAPACK's banded Cholesky solve (``solveh_banded``) on the lower band
    storage that ``jet.build_jet`` factors.
    """
    b = band.shape[1] // 2
    if b:
        return scipy.linalg.solveh_banded(band[:, b:].T, rhs, lower=True)
    if rhs.shape[1] == 1:
        return rhs / band
    return rhs * (1.0 / band)


def _band_transpose(band: np.ndarray) -> np.ndarray:
    """Band of the transpose: ``g[i + k, i]`` in slot ``(i, b + k)``."""
    b = band.shape[1] // 2
    inside, rows, cols = _band_entries(len(band), b)
    out = np.zeros_like(band)
    out[inside] = band[cols, b + rows - cols]
    return out


def _band_product(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Band of the product of two square matrices given by their bands, in
    one pass per diagonal of the left factor."""
    n, p, q = len(a), a.shape[1] // 2, c.shape[1] // 2
    shifted = np.zeros((n + 2 * p, 2 * q + 1))   # row p + i holds row i
    shifted[p:p + n] = c
    out = np.zeros((n, 2 * (p + q) + 1))
    for k in range(2 * p + 1):
        # a[i, k] = g_a[i, i + k - p] meets row i + k - p of the right one
        out[:, k:k + 2 * q + 1] += a[:, k, None] * shifted[k:k + n]
    return out


def _extreme_eigenvalues(band: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix from its band.

    The route follows the diagonals that hold a nonzero value, as a scan of
    the dense matrix would: a diagonal matrix gives its sorted diagonal;
    any other band of half-width w goes to LAPACK's ``dsbevx``
    (``eig_banded`` with ``select='i'``), whose band reduction costs about
    6 n^2 w flops.  An empty band gives ``(0.0, 0.0)``, the bounds of a
    zero-dimensional space.  Raises ``LinAlgError`` when the band holds
    NaN or infinity.
    """
    if not np.isfinite(band).all():
        raise np.linalg.LinAlgError("eigenvalues of a matrix holding NaN or "
                                    "infinity")
    n, b = len(band), band.shape[1] // 2
    if n == 0:
        return 0.0, 0.0
    used = np.flatnonzero(band[:, b:].any(axis=0))
    width = int(used[-1]) if used.size else 0
    if width == 0:
        diag = band[:, b]
        return float(diag.min()), float(diag.max())
    # LAPACK's lower band storage: lower[k, i] = g[i + k, i]
    lower = np.ascontiguousarray(band[:, b:b + width + 1].T)
    lo, hi = (scipy.linalg.eig_banded(lower, lower=True, eigvals_only=True,
                                      select="i", select_range=(i, i))[0]
              for i in (0, n - 1))
    return float(lo), float(hi)


def euclidean_space(dim: int, label: str) -> HilbertSpaceSpec:
    return make_space(dim, np.eye(dim), label)


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
    return _row_forms(_band_apply(x, space.band), y)


def norm(space: HilbertSpaceSpec, x) -> np.ndarray | float:
    """``sqrt(x^T W x)`` of a vector, or of each row of a block."""
    return np.sqrt(np.maximum(inner(space, x, x), 0.0))


def contraction_norm(P, boundary_space: HilbertSpaceSpec) -> float:
    """Operator norm of P on the dual boundary space (Gram W^{-1}).

    Equals the largest singular value of W^{-1/2} P W^{1/2}, with the
    roots of the space's Gram factored once per space
    (``HilbertSpaceSpec.gram_roots``).  Raises ``ShapeMismatch`` unless P
    is m x m on the m-dimensional space.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
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
    ``Re<-Dx, x> <= 0`` for all x up to tolerance.  W D is formed from the
    bands of its factors.
    """
    _expect_shape(f"map {D.domain.label!r} -> {D.codomain.label!r}",
                  D.matrix, (D.domain.dim, D.domain.dim))
    wd = _band_product(D.domain.band, _band(D.matrix, _bandwidth(D.matrix)))
    lam = _extreme_eigenvalues(0.5 * (wd + _band_transpose(wd)))[0]
    return lam >= -DISSIPATIVITY_TOL, lam
