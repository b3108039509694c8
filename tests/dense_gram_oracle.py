"""Dense Gram validation and dense set-up products: the test oracle of
the library's sparse Grams.

``make_space`` and ``extreme_eigenvalues`` below validate a Gram with dense
passes over its full square, as the library did before it held Grams as
sparse arrays.  The library must raise the same error class, store the
same bytes and report the same eigenvalue bounds.  A space built here
holds the CSR array of the dense Gram it validated, as the library's do.

``direct_sum`` validates the dense ``block_diag`` of its summands with
``make_space`` and attaches the summands, as the library's sum keeps them.
``extend_adjoint``, ``lift_second_order``, ``prepare_weights``,
``mass_weighted`` and ``effective_action`` are the set-up products as the
library formed them before it multiplied by sparse Grams and masses:
GEMMs on the dense Grams and maps, LAPACK's solve against W_X and
``cho_solve`` against the identity for M^{-1}.  They take and return what
their library counterparts do (CSR arrays of D and M^{-1}, spaces), so a
test can patch them in.
"""

import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse

from passivebc import triplet
from passivebc.errors import NonFiniteValue, NonPositiveGram, NonSymmetricGram
from passivebc.hilbert import (SPD_RTOL, SYM_RTOL, HilbertSpaceSpec,
                               LinearMap, _frozen_csr)


def dense_norm(a) -> float:
    return float(scipy.linalg.blas.dnrm2(np.ravel(a)))


def make_space(dim: int, gram, label: str) -> HilbertSpaceSpec:
    """The dense validation of a dense or sparse Gram."""
    if scipy.sparse.issparse(gram):
        gram = gram.toarray()
    g = np.asarray(gram, dtype=float).reshape(dim, dim)
    if dim == 0:
        return HilbertSpaceSpec(0, _frozen_csr(g), label)
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
    return HilbertSpaceSpec(dim, _frozen_csr(g), label, eig_min, eig_max)


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


def direct_sum(label: str, *spaces: HilbertSpaceSpec) -> HilbertSpaceSpec:
    """``make_space`` of the dense ``block_diag`` of the summands' Grams,
    holding the summands in ``blocks``."""
    dim = sum(s.dim for s in spaces)
    g = scipy.linalg.block_diag(*(s.gram for s in spaces)).reshape(dim, dim)
    return dataclasses.replace(make_space(dim, g, label), blocks=spaces)


def extend_adjoint(A: LinearMap, injection, label: str = "Y~") -> LinearMap:
    """``W_X^{-1} [-A^T W_Y | E]`` by a GEMM and LAPACK's solve on the dense
    Grams, over the dense ``blockdiag(W_Y, I)``."""
    w_y = A.codomain.gram
    injection = np.atleast_2d(np.asarray(injection, dtype=float))
    nb = injection.shape[1]
    b = np.linalg.solve(A.domain.gram,
                        np.hstack([-A.matrix.toarray().T @ w_y, injection]))
    ext_space = direct_sum(label, A.codomain,
                           make_space(nb, np.eye(nb), f"R^{nb}"))
    return LinearMap(b, domain=ext_space, codomain=A.domain)


def lift_second_order(dp):
    """The lift with its core block ``A^T W_Y A`` from two dense GEMMs."""
    a = dp.A.matrix.toarray()
    w_h = a.T @ dp.A.codomain.gram @ a
    x_h = make_space(len(w_h), 0.5 * (w_h + w_h.T), f"{dp.A.domain.label}_h")
    return triplet._realize(dp, x_h, dp.A.matrix, None, "second-order lift")


def prepare_weights(op, M: LinearMap, D: LinearMap):
    """M^{-1} by ``cho_solve`` against the identity (``solve`` for a
    non-symmetric M) and the state Gram ``blockdiag(W_1, sym(W_2 M^{-1}))``
    by a dense GEMM; no gates."""
    position, momentum = op.core.blocks
    n2, m = momentum.dim, M.matrix.toarray()
    msym = 0.5 * m + 0.5 * m.T
    if dense_norm(m - msym) <= 1e-12 * (1.0 + dense_norm(msym)):
        minv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(msym),
                                      np.eye(n2))
    else:
        minv = np.linalg.solve(m, np.eye(n2))
    w2_minv = momentum.gram @ minv
    kinetic = make_space(n2, 0.5 * (w2_minv + w2_minv.T),
                         momentum.label + "_M")
    return _frozen_csr(minv), direct_sum(op.core.label + "_M", position,
                                         kinetic)


def mass_weighted(x: np.ndarray, op, minv: np.ndarray) -> np.ndarray:
    """``x diag(I, M^{-1}, I)`` by a GEMM on the dense M^{-1} of the CSR
    ``minv``."""
    out, momentum = x + 0.0, slice(op.core_blocks[0], op.core.dim)
    out[:, momentum] = x[:, momentum] @ minv.toarray()
    return out


def effective_action(op, d, minv, out=None):
    """``(L - diag(0, D) iota) diag(I, M^{-1}, I)`` into ``out`` or a new
    array from the dense L and the dense D of the CSR ``d``, its momentum
    columns times the dense M^{-1} of the CSR ``minv`` by a GEMM."""
    n1, momentum = op.core_blocks[0], slice(op.core_blocks[0], op.core.dim)
    action = np.add(op.L.toarray(), 0.0, out=out)
    action[n1:, momentum] -= d.toarray()
    action[:, momentum] = action[:, momentum] @ minv.toarray()
    return action
