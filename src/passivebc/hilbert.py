"""Weighted finite-dimensional Hilbert spaces and basic operator calculus.

A space is a coordinate space R^n together with a symmetric positive definite
Gram matrix W; inner products are ``<x, y> = x^T W y``.  Dual spaces are
represented covariantly: dual elements share coordinates with primal vectors,
the duality pairing is the plain Euclidean product, the dual Gram is W^{-1}
and the Riesz map is multiplication by W.  With this convention every Green
identity downstream becomes a plain matrix identity.

All values are immutable after construction (arrays are frozen), so they can
be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    NonFiniteValue,
    NonPositiveGram,
    NonSymmetricGram,
)

__all__ = [
    "HilbertSpaceSpec",
    "LinearMap",
    "ContractionParam",
    "make_space",
    "euclidean_space",
    "dual_space",
    "inner",
    "norm",
    "adjoint",
    "riesz",
    "contraction_norm",
    "check_dissipative",
]

SYM_RTOL = 1e-12
SPD_RTOL = 1e-12
CONTRACTION_TOL = 1e-10
DISSIPATIVITY_TOL = 1e-10
RANK_RTOL = 1e-10


def _frozen(a) -> np.ndarray:
    """Contiguous float copy with the write flag cleared."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertSpaceSpec:
    """A finite-dimensional real Hilbert space in fixed coordinates."""

    dim: int
    gram: np.ndarray
    label: str
    eig_min: float = field(compare=False, default=0.0)
    eig_max: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class LinearMap:
    """A matrix tagged with its domain and codomain spaces."""

    matrix: np.ndarray
    domain: HilbertSpaceSpec
    codomain: HilbertSpaceSpec

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match map "
                f"{self.domain.label!r} (dim {self.domain.dim}) -> "
                f"{self.codomain.label!r} (dim {self.codomain.dim})")
        object.__setattr__(self, "matrix", m)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


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
        if not np.isfinite(P).all():
            raise NonFiniteValue("contraction parameter P holds NaN or "
                                 "infinity")
        nrm = contraction_norm(P, boundary_space)
        return ContractionParam(_frozen(P), boundary_space, nrm,
                                nrm <= 1.0 + CONTRACTION_TOL)


def make_space(dim: int, gram, label: str) -> HilbertSpaceSpec:
    """Validate a Gram matrix and build a space with cached eigenvalue bounds.

    Raises ``NonFiniteValue`` if the Gram holds NaN or infinity,
    ``NonSymmetricGram`` if it is asymmetric beyond a relative tolerance of
    1e-12 and ``NonPositiveGram`` (reporting the smallest and the largest
    eigenvalue) unless the smallest exceeds 1e-12 times the largest.  The
    bounds come from the Gram's structure (see ``_extreme_eigenvalues``).
    """
    g = np.asarray(gram, dtype=float).reshape(dim, dim)
    if dim == 0:
        return HilbertSpaceSpec(0, _frozen(g), label, 0.0, 0.0)
    if not np.isfinite(g).all():
        raise NonFiniteValue(f"gram of space {label!r} holds NaN or infinity")
    scale = _norm(g)
    if scale == 0.0:
        raise NonPositiveGram(label, 0.0, 0.0, SPD_RTOL)
    if _norm(g - g.T) > SYM_RTOL * scale:
        raise NonSymmetricGram(f"gram of space {label!r} is not symmetric")
    g = 0.5 * g + 0.5 * g.T   # halves first: no overflow near the max
    eig_min, eig_max = _extreme_eigenvalues(g)
    if eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    return HilbertSpaceSpec(dim, _frozen(g), label, eig_min, eig_max)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm by BLAS ``nrm2``, which does not overflow.

    ``np.linalg.norm`` sums squares and returns inf for entries above about
    1e154, where a gate ``||d|| > tol ||g||`` would compare ``inf`` with
    ``tol * inf`` and pass anything; ``nrm2`` is specified not to overflow
    (it scales by the largest entry seen, or sums in a wider format).  That
    holds for the reference BLAS; for the BLAS NumPy links, the tests that
    feed the gates entries of 1e200 (``test_hilbert.py``, ``test_node.py``)
    are the guard.
    """
    return float(scipy.linalg.blas.dnrm2(np.ravel(a)))


def _extreme_eigenvalues(g: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a finite symmetric matrix.

    A diagonal matrix gives its sorted diagonal.  A band of half-width b
    under a quarter of the dimension goes to LAPACK's ``dsbevx``
    (``eig_banded`` with ``select='i'``), whose band reduction costs about
    6 n^2 b flops against 4/3 n^3 for the dense one; anything wider goes
    to dense ``eigvalsh``.  Raises ``LinAlgError``, as ``eigvalsh`` does,
    when the matrix holds NaN or infinity.
    """
    if not np.isfinite(g).all():
        raise np.linalg.LinAlgError("eigenvalues of a matrix holding NaN or "
                                    "infinity")
    n = g.shape[0]
    rows, cols = np.nonzero(g)
    bandwidth = int(np.abs(rows - cols).max()) if rows.size else 0
    if bandwidth == 0:
        diag = np.diagonal(g)
        return float(diag.min()), float(diag.max())
    if 4 * bandwidth < n:
        band = np.zeros((bandwidth + 1, n))
        for k in range(bandwidth + 1):
            band[k, :n - k] = np.diagonal(g, -k)
        lo, hi = (scipy.linalg.eig_banded(band, lower=True,
                                          eigvals_only=True, select="i",
                                          select_range=(i, i))[0]
                  for i in (0, n - 1))
        return float(lo), float(hi)
    eigs = np.linalg.eigvalsh(g)
    return float(eigs[0]), float(eigs[-1])


def euclidean_space(dim: int, label: str) -> HilbertSpaceSpec:
    return make_space(dim, np.eye(dim), label)


def dual_space(space: HilbertSpaceSpec) -> HilbertSpaceSpec:
    """Dual of a space in covariant coordinates; carries the inverse Gram."""
    return make_space(space.dim, np.linalg.inv(space.gram),
                      space.label + "*")


def inner(space: HilbertSpaceSpec, x, y) -> float:
    return float(np.asarray(x) @ space.gram @ np.asarray(y))


def norm(space: HilbertSpaceSpec, x) -> float:
    return float(np.sqrt(max(inner(space, x, x), 0.0)))


def adjoint(f: LinearMap) -> LinearMap:
    """Adjoint W_dom^{-1} A^T W_cod, so <Ax, y>_cod = <x, A*y>_dom."""
    m = np.linalg.solve(f.domain.gram, f.matrix.T @ f.codomain.gram)
    return LinearMap(m, domain=f.codomain, codomain=f.domain)


def riesz(space: HilbertSpaceSpec) -> LinearMap:
    """Gram matrix as the map from primal to covariant dual coordinates.

    In covariant coordinates the duality pairing is Euclidean, so
    ``riesz(x) . x`` equals the squared Gram norm of x.
    """
    return LinearMap(space.gram, domain=space, codomain=dual_space(space))


def _sqrt_and_inv_sqrt(gram: np.ndarray):
    eigs, vecs = np.linalg.eigh(gram)
    s = np.sqrt(eigs)
    return (vecs * s) @ vecs.T, (vecs / s) @ vecs.T


def contraction_norm(P, boundary_space: HilbertSpaceSpec) -> float:
    """Operator norm of P on the dual boundary space (Gram W^{-1}).

    Equals the largest singular value of W^{-1/2} P W^{1/2}.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    m = boundary_space.dim
    if P.shape != (m, m):
        raise ValueError(f"P must be {m}x{m}, got {P.shape}")
    if m == 0:
        return 0.0
    w_half, w_inv_half = _sqrt_and_inv_sqrt(boundary_space.gram)
    return float(np.linalg.norm(w_inv_half @ P @ w_half, 2))


def is_dual_unitary(P, boundary_space: HilbertSpaceSpec,
                    tol: float = 1e-10) -> bool:
    """Whether P is unitary on the dual boundary space."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if boundary_space.dim == 0:
        return True
    w_half, w_inv_half = _sqrt_and_inv_sqrt(boundary_space.gram)
    u = w_inv_half @ P @ w_half
    return bool(np.linalg.norm(u.T @ u - np.eye(boundary_space.dim)) <= tol)


def check_dissipative(D: LinearMap) -> tuple[bool, float]:
    """Test whether -D is dissipative on the domain of D.

    Returns ``(ok, lam)`` where ``lam`` is the smallest eigenvalue of the
    symmetric part of W D; ``ok`` is true iff ``lam >= -1e-10``, i.e.
    ``Re<-Dx, x> <= 0`` for all x up to tolerance.
    """
    if D.domain.dim != D.codomain.dim:
        raise ValueError("check_dissipative requires a square map")
    wd = D.domain.gram @ D.matrix
    lam = _extreme_eigenvalues(0.5 * (wd + wd.T))[0]
    return lam >= -DISSIPATIVITY_TOL, lam
