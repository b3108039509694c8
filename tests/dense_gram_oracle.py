"""Dense Gram validation: the test oracle of ``hilbert.make_space``.

``make_space`` and ``extreme_eigenvalues`` below validate a Gram with dense
passes over its full square, as the library did before it read Grams by
their band.  The banded library must raise the same error class, store the
same bytes and report the same eigenvalue bounds.  A space built here
claims no structure: it holds its Gram as a full-width band, of
``bandwidth`` dim - 1, so library code that reads a Gram by its band reads
all of it.
"""

import numpy as np
import scipy.linalg

from passivebc.errors import NonFiniteValue, NonPositiveGram, NonSymmetricGram
from passivebc.hilbert import (SPD_RTOL, SYM_RTOL, HilbertSpaceSpec, _band,
                               _frozen)


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
