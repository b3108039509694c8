"""Named property suites driven by a scenario (used by the CLI).

Each check returns a number, the tolerance it is held to and the number's
``kind``: "max residual", "relative residual" (a largest gap divided by
the largest entry of the maps compared, when it exceeds 1), "angle bound"
(radians) or "count" (of failed samples); a suite passes iff every check
does.  The suites cover the Green identities (``green``), the contraction
parameterization of dissipative restrictions (``extension``), the Cayley
involution and the agreement of the two node flavors (``cayley``), and
the strain-momentum transport (``jet``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from . import extension as ext
from . import node as node_mod
from .errors import UnknownChoice
from .hilbert import _norm, contraction_norm, inner
from .jet import JetTransform, push_state
from .scenario import Scenario, build_system

__all__ = ["CheckResult", "run_suite", "SUITES", "random_contraction"]

SUITES = ("all", "green", "extension", "cayley", "jet")

# rows of B_ext's Y block per step of the jet kernel check
_KERNEL_BLOCK = 32


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    kind: str = "max residual"

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def random_contraction(rng: np.random.Generator, bspace,
                       target_norm: float | None = None) -> np.ndarray:
    """Random matrix scaled to a dual-space norm (uniform in (0, 1] if None);
    the empty 0 x 0 matrix on a 0-dimensional boundary space."""
    m = bspace.dim
    if m == 0:
        return np.zeros((0, 0))
    raw = rng.standard_normal((m, m))
    nrm = contraction_norm(raw, bspace)
    scale = rng.uniform(0.05, 1.0) if target_norm is None else target_norm
    return raw * (scale / nrm)


def _kernel_gap(image: np.ndarray, dim: int, trace: np.ndarray) -> float:
    """Upper bound on the largest principal angle (in radians) between a
    ``dim``-dimensional subspace S and ker trace, given ``image = trace
    B`` for a basis B of S with singular values >= 1 (``[I; X]``), or
    ``trace Q`` for the orthogonal projector Q onto S; pi/2 when their
    dimensions differ.

    With the rank r of the trace counted at ``NULLSPACE_RCOND``
    (``extension._rank``), the sine is <= ``||image||_2 / sigma_r``
    (Stewart and Sun, Matrix Perturbation Theory, I.5)."""
    sigma = np.linalg.svd(trace, compute_uv=False)
    rank = ext._rank(sigma)
    if dim != trace.shape[1] - rank:
        return np.pi / 2.0
    gap = np.linalg.norm(image, 2) / sigma[rank - 1] if rank else 0.0
    return float(np.arcsin(min(gap, 1.0)))


def _green_checks(sys) -> list[CheckResult]:
    return [
        CheckResult("green_identity_dual_pair", sys.dual_pair.residual,
                    1e-12),
        CheckResult("green_identity", sys.op_A.residual, 1e-12),
        CheckResult("green_identity_jet_target", sys.op_strain.residual,
                    1e-12),
    ]


def _extension_checks(sys, rng: np.random.Generator) -> list[CheckResult]:
    op = sys.op_A
    worst = 0.0
    for _ in range(50):
        p = random_contraction(rng, op.bspace)
        g = ext.generator_from_contraction(op, p)
        worst = max(worst, ext.dissipativity_residual(g))
    checks = [CheckResult("extension_dissipative_for_contractions",
                          worst, 1e-10)]

    # The domains with no basis formed: Neumann's ker C(I) = span [I; X]
    # gives Gamma1 [I; X] from the kernel coordinates X; Dirichlet's
    # ker C(-I) is the complement of the row space V of C(-I) (its thin
    # SVD at NULLSPACE_RCOND), whose projector I - V^T V gives Gamma0 -
    # (Gamma0 V^T) V.
    m, core = op.bspace.dim, op.core.dim
    neumann = ext.generator_from_contraction(op, np.eye(m))
    checks.append(CheckResult(
        "extension_neumann_domain",
        _kernel_gap(ext._kernel_action(op.Gamma1, neumann.X), core,
                    op.Gamma1), 1e-10, "angle bound"))
    _, sigma, vt = np.linalg.svd(ext.constraint_matrix(op, -np.eye(m)),
                                 full_matrices=False)
    v = vt[:ext._rank(sigma)]
    g0 = op.Gamma0
    checks.append(CheckResult(
        "extension_dirichlet_domain",
        _kernel_gap(g0 - (g0 @ v.T) @ v, op.ext_dim - len(v), g0), 1e-10,
        "angle bound"))

    # Expansive parameters must fail dissipativity: count the samples whose
    # residual does not clear 1e-12.
    undetected = 0
    for _ in range(10):
        p = random_contraction(rng, op.bspace,
                               target_norm=1.1 + rng.uniform(0.0, 0.9))
        g = ext.generator_from_contraction(op, p)
        if ext.dissipativity_residual(g) <= 1e-12:
            undetected += 1
    checks.append(CheckResult("extension_expansive_not_dissipative",
                              float(undetected), 0.0, "count"))
    return checks


def _cayley_checks(sc: Scenario, sys) -> list[CheckResult]:
    scat = node_mod.scattering_node(sys.op_A, sc.P, sys.M_map, sys.D_map)
    imp = node_mod.impedance_node(sys.op_A, sc.P, sys.M_map, sys.D_map)
    once = node_mod.external_cayley(scat, 1.0)
    twice = node_mod.external_cayley(once, 1.0)
    return [CheckResult(name, _relative_gap(got, want), 1e-14,
                        "relative residual")
            for name, got, want in (("cayley_involution", twice, scat),
                                    ("cayley_matches_impedance", once, imp))]


def _relative_gap(got, want) -> float:
    """Largest entry gap between the port maps of two nodes over max(1,
    their largest |entry|), so the gap does not grow with the units the
    maps are measured in."""
    maps = (got.G_map, got.K_map, want.G_map, want.K_map)
    scale = max(1.0, *(np.abs(m).max(initial=0.0) for m in maps))
    gap = max(np.abs(g - w).max(initial=0.0)
              for g, w in zip(maps[:2], maps[2:]))
    return float(gap / scale)


def _jet_checks(sys, rng: np.random.Generator) -> list[CheckResult]:
    jt, op_a, op_w = sys.jet, sys.op_A, sys.op_strain
    a, y_space = jt.A_iso.matrix, jt.A_iso.codomain
    nx, dim_y = a.shape[1], y_space.dim

    draws = rng.standard_normal((20, 3 * nx))   # row i: the i-th z1, then z
    z1, z = draws[:, :nx], draws[:, nx:]
    # forms after the push against those before (X_h holds A^T W_Y A)
    iso, energy = (
        float(np.max(np.abs(inner(after, w, w) - e) / (1.0 + np.abs(e))))
        for after, w, e in (
            (y_space, z1 @ a.T, inner(op_a.core.blocks[0], z1, z1)),
            (op_w.core, push_state(jt.A_iso, z), inner(op_a.core, z, z))))

    # Trace transport: Xi diag(A, I, I_tau) = [Xi_y A | Xi_rest] is Gamma.
    transport = max(
        float(np.abs(np.hstack([xi[:, :dim_y] @ a, xi[:, dim_y:]])
                     - gamma).max())
        for xi, gamma in ((op_w.Gamma0, op_a.Gamma0),
                          (op_w.Gamma1, op_a.Gamma1)))

    return [CheckResult("jet_isometry", iso, 1e-12),
            CheckResult("jet_energy_push", energy, 1e-12),
            CheckResult("jet_kernel_annihilated",
                        _kernel_residual(jt, sys.dual_pair.B_ext.matrix),
                        1e-12),
            CheckResult("jet_trace_transport", transport, 1e-12)]


def _kernel_residual(jt: JetTransform, b_ext: csr_array) -> float:
    """``||B_y (I - A N^{-1} A^T W_Y)||_F / (1 + ||B_ext||_F)``, N = A^T W_Y
    A: how far B_ext on Y is from annihilating ker A*, the range of the
    projector.

    Each block of ``_KERNEL_BLOCK`` rows of B_y is formed as ``b - (N^{-1}
    (b A)^T)^T (A^T W_Y)`` from CSR rows b and the sparse ``A^T W_Y``, and
    its norm folded into the total by ``hypot``, so no nx x dim_y or nx x
    nx array is formed: memory is O(block N).  A row's entries do not
    depend on the block it is in (``pbtrs`` solves column by column, CSR
    products form rows independently); only the norm's summation order
    does.
    """
    a, y_space = jt.A_iso.matrix, jt.A_iso.codomain
    b_y = b_ext[:, :y_space.dim]
    a_t_w = a.T @ y_space.gram_csr
    total = 0.0
    for start in range(0, b_y.shape[0], _KERNEL_BLOCK):
        rows = b_y[start:start + _KERNEL_BLOCK]
        solved = jt.normal_solve((rows @ a).T.toarray())
        total = math.hypot(total, _norm(rows.toarray() - solved.T @ a_t_w))
    return total / (1.0 + _norm(b_ext.data))


def run_suite(sc: Scenario, suite: str) -> list[CheckResult]:
    """Run one named suite (or all) against the scenario's wave system."""
    if suite not in SUITES:
        raise UnknownChoice(f"unknown suite {suite!r}; choose from {SUITES}")
    sys = build_system(sc)
    rng = np.random.default_rng(sc.seed)
    checks: list[CheckResult] = []
    if suite in ("all", "green"):
        checks += _green_checks(sys)
    if suite in ("all", "extension"):
        checks += _extension_checks(sys, rng)
    if suite in ("all", "cayley"):
        checks += _cayley_checks(sc, sys)
    if suite in ("all", "jet"):
        checks += _jet_checks(sys, rng)
    return checks
