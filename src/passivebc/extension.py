"""Contraction-parameterized restrictions of a maximal boundary operator.

Every square generator realized here is a restriction of the maximal
operator to the kernel of the boundary constraint

    C = (P - I) W_G Gamma0 - (P + I) Gamma1,

with P acting on the covariant dual of the boundary space.  ``P = I`` gives
the kernel of Gamma1 (traction/Neumann type), ``P = -I`` the kernel of
W_G Gamma0 (Dirichlet type).  For contractions P the realized generator is
dissipative with respect to the core Gram; in finite dimensions that is
already the whole contraction-semigroup statement, so no separate resolvent
check is performed.

Extended coordinates put the core first (see ``triplet``), which gives
the kernel in closed form.  Let the nb rows of ``V = [V_core | V_tau]`` be
an orthonormal basis of the row space of C at ``NULLSPACE_RCOND`` (its
leading right singular vectors).  When the square ``V_tau`` is invertible,
``ker C = span [I; X]`` with ``V_tau X = -V_core``, and the generator is
``A_main = L[:, :core] + L[:, core:] X``.  A realization holds only the
nb x core kernel coordinates X, at O(core nb^2) cost per call; ``A_main``
(O(core^2 nb)) is built from X on each read, and a map M restricted to
the kernel is ``M[:, :core] + M[:, core:] X`` (``_kernel_action``), so no
kernel basis is formed.  The reported and gated condition is that
of the core projection of an orthonormal kernel basis, ``sqrt((1 +
sigma_max(X)^2) / (1 + sigma_min(X)^2))``, with ``sigma_min(X) = 0`` when
nb < core.

Dissipativity is read from the boundary traces, as the Green identity
``iota^T W_Z L + L^T W_Z iota = Gamma1^T Gamma0 + Gamma0^T Gamma1`` allows:
on the kernel basis ``K = [I; X]``, where ``iota K = I``,

    sym(W_Z A_main) = ((Gamma1 K)^T (Gamma0 K) + (Gamma0 K)^T (Gamma1 K)) / 2,

a matrix of rank at most 2m.  With ``[Gamma0 K; Gamma1 K]^T = Q R`` its
nonzero eigenvalues are those of the 2m x 2m ``sym(R[:, :m] R[:, m:]^T)``,
at O(core m nb) cost.  A Green defect of ``green_residual`` moves the
largest eigenvalue by at most ``(1 + sigma_max(X)^2) (1 + ||W_Z L||_F)
green_residual / 2`` (Weyl); a dissipative damping term folded into L is
not seen by the traces, so the value is then an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllPosedRestriction, SingularCoreProjection
from .hilbert import ContractionParam, _as_param
from .triplet import NULLSPACE_RCOND, BoundaryOperator

__all__ = [
    "GeneratorRealization",
    "constraint_matrix",
    "generator_from_contraction",
    "dissipativity_residual",
]

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GeneratorRealization:
    """Restriction of ``parent`` to ``ker C = span [I; X]`` for the
    contraction P, held by its kernel coordinates X (nb x core, read-only).

    ``A_main`` is built from X on each read, as ``HilbertSpaceSpec.gram``
    is from its CSR: a new read-only array every time, for checks and
    tests, not for a loop.
    """

    X: np.ndarray
    P: ContractionParam
    parent: BoundaryOperator
    condition: float = field(compare=False, default=0.0)

    @property
    def A_main(self) -> np.ndarray:
        """Square generator ``L[:, :core] + L[:, core:] X`` on core
        coordinates, from the parent's CSR L."""
        a_main = _kernel_action(self.parent.L, self.X)
        a_main.setflags(write=False)
        return a_main


def constraint_matrix(op: BoundaryOperator, P) -> np.ndarray:
    """Boundary constraint ``(P - I) W_G Gamma0 - (P + I) Gamma1``.

    P is a matrix or a ``ContractionParam``; a matrix passes the nodes'
    gate (``ContractionParam.from_matrix``), so NaN or infinity raises
    ``NonFiniteValue`` and a P that is not m x m ``ShapeMismatch``.
    """
    P = _as_param(P, op.bspace).matrix
    eye = np.eye(op.n_boundary)
    return (P - eye) @ op.bspace.gram @ op.Gamma0 - (P + eye) @ op.Gamma1


def generator_from_contraction(op: BoundaryOperator, P) -> GeneratorRealization:
    """Realize the restriction of the maximal operator defined by P.

    P is gated as in ``constraint_matrix``, before any SVD.  Raises
    ``IllPosedRestriction`` when the kernel dimension differs from the core
    dimension and ``SingularCoreProjection`` when the core projection on the
    kernel has condition number above 1e12.
    """
    param = _as_param(P, op.bspace)
    x, condition = _restrict_to_kernel(constraint_matrix(op, param),
                                       op.core.dim)
    return GeneratorRealization(x, param, op, condition=condition)


def _rank(sigma: np.ndarray) -> int:
    """Rank from singular values ``sigma``, cut at ``NULLSPACE_RCOND``."""
    return int(np.sum(sigma > NULLSPACE_RCOND * sigma.max(initial=0.0)))


def _restrict_to_kernel(c: np.ndarray, core_dim: int):
    """``(X, condition)`` of ``ker c = span [I; X]`` (see above), X
    read-only.

    The gates are those of generator_from_contraction; the kernel is the
    one an SVD null space of ``c`` at ``NULLSPACE_RCOND`` spans.
    """
    _, sigma, vt = np.linalg.svd(c, full_matrices=False)
    rank = _rank(sigma)
    if c.shape[1] - rank != core_dim:
        raise IllPosedRestriction(
            f"constraint kernel has dimension {c.shape[1] - rank}, "
            f"expected core dimension {core_dim}")
    u, s, wt = np.linalg.svd(vt[:rank, core_dim:])   # V_tau, nb x nb
    condition = np.inf
    if not s.size or s[-1] > np.finfo(float).eps * s.size * s[0]:
        x = -(wt.T / s) @ (u.T @ vt[:rank, :core_dim])
        sx = np.linalg.svd(x, compute_uv=False)
        s_min = sx[-1] if sx.size == core_dim else 0.0   # else X has a kernel
        condition = float(np.hypot(1.0, sx.max(initial=0.0))
                          / np.hypot(1.0, s_min))
    if not condition <= CONDITION_LIMIT:
        raise SingularCoreProjection(
            "core projection on the constraint kernel is singular "
            f"(condition {condition:.3e})")
    x.setflags(write=False)
    return x, condition


def _kernel_action(action, x: np.ndarray) -> np.ndarray:
    """``action [I; X] = action[:, :core] + action[:, core:] X``, the
    generator the dense or CSR ``action`` realizes on the kernel ``span [I;
    X]``: a new dense array.

    ``action[:, :core]`` is added into the product in place, a CSR block
    by its stored entries, so the result is the one dense array formed.
    """
    core_dim = x.shape[1]
    out = action[:, core_dim:] @ x
    head = action[:, :core_dim]
    if isinstance(head, np.ndarray):
        out += head
    else:
        head = head.tocoo()
        out[head.row, head.col] += head.data
    return out


def dissipativity_residual(g: GeneratorRealization) -> float:
    """Largest eigenvalue of sym(W_Z A_main); <= 1e-10 certifies dissipativity.

    Read from the boundary traces of ``g.parent`` on the kernel basis
    ``[I; X]`` (see the module docstring), by an eigenproblem of order 2m.
    It rests on the parent's Green identity, which ``triplet._realize``
    gates at ``GREEN_TOL`` for every library-built operator, and differs
    from the largest eigenvalue of the dense sym(W_Z A_main) by at most
    ``(1 + sigma_max(X)^2) (1 + ||W_Z L||_F) green_residual / 2`` (Weyl).
    With a dissipative damping term folded into L, which the identity does
    not see, the value is an upper bound of that eigenvalue.
    """
    op = g.parent
    core, m = op.core.dim, op.n_boundary
    traces = np.vstack([op.Gamma0, op.Gamma1])
    tk = _kernel_action(traces, g.X)
    r = np.linalg.qr(tk.T, mode="r")
    s = r[:, :m] @ r[:, m:].T
    lam = np.linalg.eigvalsh(0.5 * (s + s.T)).max(initial=-np.inf)
    # the remaining core - 2m eigenvalues of sym(W_Z A_main) are 0
    return float(max(lam, 0.0) if core > 2 * m else lam)
