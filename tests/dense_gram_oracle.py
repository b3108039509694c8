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
library formed them before it multiplied by sparse Grams, masses and
actions: GEMMs on the dense Grams and maps, LAPACK's solve against W_X
and ``cho_solve`` against the identity for M^{-1}.  They take what their
library counterparts do (CSR arrays of D and M^{-1}, spaces), so a test
can patch them in; ``effective_action`` returns the dense array of the
node's CSR ``L_eff``.

``selected``, ``realized_action``, ``damped_action``, ``mass_weight`` and
``step_matrices`` are the dense recipes of the realized action L, of L
less the damping, of the mass weight ``diag(I, M^{-1}, I)`` and of the
step matrices.  ``mass_weight`` is the dense array of the node's one CSR
weight (``node._mass_weight``), which the node's port maps, ``L_eff``
and ledger multiply by, and takes what that helper takes, so a test can
patch it in too.  These recipes are the one copy that every test
holding the library to them imports.  The library keeps their bytes up to
the sign of a zero (``passivebc.hilbert``), which ``same_canonical_bytes``
compares.
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


def same_canonical_bytes(got, want) -> bool:
    """Whether ``got`` and ``want`` have one shape and the bytes of ``a +
    0.0``: every nonzero bit alike, and a zero of either sign read as
    +0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and (got + 0.0).tobytes() == (want + 0.0).tobytes())


def selected(on_y_ext, to_y, core_dim, ext_dim):
    """A dense map M on Y~ = (y, tau) carried to (v, z2, tau) by the
    selection S with ``[to_y v; tau] = S (v, z2, tau)``: ``M S = [M_y to_y
    | 0 | M_tau]``, formed by its column blocks as ``triplet._realize``
    forms it.  (A GEMM over all of S sums other terms, and its last bits
    differ, e.g. for ``random_wave_system(9, default_rng(0))``.)"""
    dim_y, n1 = to_y.shape
    out = np.zeros((len(on_y_ext), ext_dim))
    out[:, :n1] = on_y_ext[:, :dim_y] @ to_y
    out[:, core_dim:] = on_y_ext[:, dim_y:]
    return out


def realized_action(dp, to_y, velocity):
    """The dense action ``L = [[0, velocity, 0], B_ext S]`` that
    ``triplet._realize`` forms for the dense ``to_y`` and ``velocity``:
    ``(A, I)`` for the lift, ``(I, A)`` for the strain-momentum form."""
    n1, nx = velocity.shape
    core_dim = n1 + nx
    ext_dim = core_dim + dp.n_boundary_coords
    L = np.zeros((core_dim, ext_dim))
    L[:n1, n1:core_dim] = velocity
    L[n1:] = selected(dp.B_ext.matrix.toarray(), to_y, core_dim, ext_dim)
    return L


def mass_weight(op, minv) -> np.ndarray:
    """The dense ``diag(I, M^{-1}, I_tau)`` on the extended coordinates of
    ``op`` for the CSR ``minv`` of M^{-1}."""
    n1, nb = op.core_blocks[0], op.ext_dim - op.core.dim
    return scipy.linalg.block_diag(np.eye(n1), minv.toarray(), np.eye(nb))


def mass_weighted(x: np.ndarray, op, minv) -> np.ndarray:
    """``x diag(I, M^{-1}, I)`` by a GEMM with the dense ``mass_weight``,
    as a new array."""
    return x @ mass_weight(op, minv)


def damped_action(op, d):
    """``L - diag(0, D) iota`` as a new array: the dense L less the dense D
    of the CSR ``d`` in its momentum block."""
    n1, core = op.core_blocks[0], op.core.dim
    action = op.L.toarray()
    action[n1:, n1:core] -= d.toarray()
    return action


def effective_action(op, d, minv):
    """``(L - diag(0, D) iota) diag(I, M^{-1}, I)`` as a new array: the
    ``damped_action`` times the dense ``mass_weight`` by a GEMM."""
    return damped_action(op, d) @ mass_weight(op, minv)


def step_matrices(l_eff, g_map, dt):
    """``behind = [iota + dt/2 L_eff; -G]`` and ``ahead = [iota - dt/2
    L_eff; G]`` of the midpoint step, on the dense ``iota = [I | 0]``."""
    iota = np.eye(*l_eff.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        h = (0.5 * dt) * l_eff
        return np.vstack([iota + h, -g_map]), np.vstack([iota - h, g_map])
