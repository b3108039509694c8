"""Dense Gram validation and dense set-up products: the test oracle of
the banded library.

``make_space`` and ``extreme_eigenvalues`` below validate a Gram with dense
passes over its full square, as the library did before it read Grams by
their band.  The banded library must raise the same error class, store the
same bytes and report the same eigenvalue bounds.  A space built here
claims no structure: it holds its Gram as a full-width band, of
``bandwidth`` dim - 1, so library code that reads a Gram by its band reads
all of it, and ``hilbert._band_apply`` multiplies by it as a dense GEMM.

``extend_adjoint``, ``lift_second_order``, ``prepare_weights`` and
``mass_weighted`` are the set-up products as the library formed them
before it scaled rows by diagonal Grams and masses: GEMMs on the dense
Grams, LAPACK's solve against W_X and ``cho_solve`` against the identity
for M^{-1}.  They take and return what their library counterparts do
(bands of M^{-1}, spaces), so a test can patch them in.
"""

import numpy as np
import scipy.linalg

from passivebc import triplet
from passivebc.errors import NonFiniteValue, NonPositiveGram, NonSymmetricGram
from passivebc.hilbert import (SPD_RTOL, SYM_RTOL, HilbertSpaceSpec,
                               LinearMap, _band, _dense, _frozen)


def dense_norm(a) -> float:
    return float(scipy.linalg.blas.dnrm2(np.ravel(a)))


def make_space(dim: int, gram, label: str) -> HilbertSpaceSpec:
    g = np.asarray(gram, dtype=float).reshape(dim, dim)
    if dim == 0:
        return HilbertSpaceSpec(0, _frozen(np.zeros((0, 1))), label)
    if not np.isfinite(g).all():
        raise NonFiniteValue(f"gram of space {label!r} holds NaN or infinity")
    scale = dense_norm(g)
    if scale == 0.0:
        raise NonPositiveGram(label, 0.0, 0.0, SPD_RTOL)
    if dense_norm(g - g.T) > SYM_RTOL * scale:
        raise NonSymmetricGram(f"gram of space {label!r} is not symmetric")
    g = 0.5 * g + 0.5 * g.T
    eig_min, eig_max = extreme_eigenvalues(g)
    if eig_min <= SPD_RTOL * abs(eig_max):
        raise NonPositiveGram(label, eig_min, eig_max, SPD_RTOL)
    return HilbertSpaceSpec(dim, _frozen(_band(g, dim - 1)), label, eig_min,
                            eig_max)


def extreme_eigenvalues(g: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a finite symmetric matrix, by the
    route its nonzero band selects: diagonal, ``dsbevx`` or ``eigvalsh``."""
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


def space_from_band(band, label: str) -> HilbertSpaceSpec:
    """``make_space`` above on the dense Gram of a band."""
    return make_space(len(band), _dense(np.asarray(band, dtype=float)),
                      label)


def full_band(g: np.ndarray) -> np.ndarray:
    """The band of half-width n - 1 of an n x n matrix: all of it."""
    return _band(g, max(len(g) - 1, 0))


def extend_adjoint(A: LinearMap, injection, label: str = "Y~") -> LinearMap:
    """``W_X^{-1} [-A^T W_Y | E]`` by a GEMM and LAPACK's solve on the dense
    Grams, over the dense ``blockdiag(W_Y, I)``."""
    w_y = A.codomain.gram
    injection = np.atleast_2d(np.asarray(injection, dtype=float))
    nb = injection.shape[1]
    b = np.linalg.solve(A.domain.gram,
                        np.hstack([-A.matrix.T @ w_y, injection]))
    ext_space = make_space(A.codomain.dim + nb,
                           scipy.linalg.block_diag(w_y, np.eye(nb)), label)
    return LinearMap(b, domain=ext_space, codomain=A.domain)


def lift_second_order(dp):
    """The lift with its core block ``A^T W_Y A`` from two dense GEMMs."""
    a = dp.A.matrix
    w_h = a.T @ dp.A.codomain.gram @ a
    return triplet._realize(dp, full_band(0.5 * (w_h + w_h.T)),
                            f"{dp.A.domain.label}_h", a,
                            np.eye(dp.A.domain.dim), "second-order lift")


def prepare_weights(op, M: LinearMap, D: LinearMap):
    """M^{-1} by ``cho_solve`` against the identity (``solve`` for a
    non-symmetric M) and the state Gram ``blockdiag(W_1, sym(W_2 M^{-1}))``
    by a dense GEMM; no gates."""
    n1, n2 = op.core_blocks
    g = op.core.gram
    w1 = np.ascontiguousarray(g[:n1, :n1])
    w2 = np.ascontiguousarray(g[n1:, n1:])
    msym = 0.5 * M.matrix + 0.5 * M.matrix.T
    if dense_norm(M.matrix - msym) <= 1e-12 * (1.0 + dense_norm(msym)):
        minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(msym),
                                      np.eye(n2))
    else:
        minv = np.linalg.solve(M.matrix, np.eye(n2))
    w2_minv = w2 @ minv
    w_state = scipy.linalg.block_diag(w1, 0.5 * (w2_minv + w2_minv.T))
    return full_band(minv), make_space(op.core.dim, w_state,
                                       op.core.label + "_M")


def mass_weighted(x: np.ndarray, op, minv: np.ndarray) -> np.ndarray:
    """``x diag(I, M^{-1}, I)`` by a GEMM on the dense M^{-1} of the band
    ``minv``."""
    out, momentum = x + 0.0, slice(op.core_blocks[0], op.core.dim)
    out[:, momentum] = x[:, momentum] @ _dense(minv)
    return out
