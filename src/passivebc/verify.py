"""Named property suites driven by a scenario (used by the CLI).

Each check returns its worst residual together with the tolerance it is
held to; a suite passes iff every check does.  The suites cover the Green
identities (``green``), the contraction parameterization of dissipative
restrictions (``extension``), the Cayley involution and the agreement of
the two node flavors (``cayley``), and the strain-momentum transport
(``jet``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import extension as ext
from . import node as node_mod
from .errors import UnknownChoice
from .hilbert import contraction_norm
from .jet import push_state, state_injection
from .scenario import Scenario, build_system
from .triplet import green_residual

__all__ = ["CheckResult", "run_suite", "SUITES", "random_contraction"]

SUITES = ("all", "green", "extension", "cayley", "jet")


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def random_contraction(rng: np.random.Generator, bspace,
                       target_norm: float | None = None) -> np.ndarray:
    """Random matrix scaled to a dual-space norm (uniform in (0, 1] if None)."""
    m = bspace.dim
    raw = rng.standard_normal((m, m))
    nrm = contraction_norm(raw, bspace)
    scale = rng.uniform(0.05, 1.0) if target_norm is None else target_norm
    return raw * (scale / nrm)


def _kernel_gap(basis: np.ndarray, trace: np.ndarray) -> float:
    """Largest principal angle (in radians) between span(basis) and ker trace.

    The orthonormal row space R of the trace is counted at rcond 1e-10, the
    rank rule of ``scipy.linalg.null_space``; the angle is
    ``arcsin ||R^T Q||_2`` for an orthonormal basis Q of span(basis).
    """
    q = np.linalg.qr(basis)[0]
    _, sigma, vt = np.linalg.svd(trace, full_matrices=False)
    row = vt[:int(np.sum(sigma > 1e-10 * sigma.max(initial=0.0)))]
    if q.shape[1] != trace.shape[1] - row.shape[0]:
        return np.pi / 2.0
    return float(np.arcsin(min(np.linalg.norm(row @ q, 2), 1.0)))


def _green_checks(sys) -> list[CheckResult]:
    return [
        CheckResult("green_identity_dual_pair", sys.dual_pair.residual,
                    1e-12),
        CheckResult("green_identity", green_residual(sys.op_A), 1e-12),
        CheckResult("green_identity_jet_target",
                    green_residual(sys.jet.target), 1e-12),
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

    m = op.bspace.dim
    dom_neumann = ext.generator_from_contraction(op, np.eye(m)).domain_basis
    checks.append(CheckResult("extension_neumann_domain",
                              _kernel_gap(dom_neumann, op.Gamma1), 1e-10))
    dirichlet = scipy.linalg.null_space(
        ext.constraint_matrix(op, -np.eye(m)), rcond=1e-10)
    checks.append(CheckResult("extension_dirichlet_domain",
                              _kernel_gap(dirichlet, op.Gamma0), 1e-10))

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
                              float(undetected), 0.0))
    return checks


def _cayley_checks(sc: Scenario, sys) -> list[CheckResult]:
    scat = node_mod.scattering_node(sys.op_A, sc.P, sys.M_map, sys.D_map)
    imp = node_mod.impedance_node(sys.op_A, sc.P, sys.M_map, sys.D_map)
    once = node_mod.external_cayley(scat, 1.0)
    twice = node_mod.external_cayley(once, 1.0)
    invol = max(np.abs(twice.G_map - scat.G_map).max(),
                np.abs(twice.K_map - scat.K_map).max())
    agree = max(np.abs(once.G_map - imp.G_map).max(),
                np.abs(once.K_map - imp.K_map).max())
    return [CheckResult("cayley_involution", float(invol), 1e-14),
            CheckResult("cayley_matches_impedance", float(agree), 1e-14)]


def _jet_checks(sys, rng: np.random.Generator) -> list[CheckResult]:
    jt = sys.jet
    nx = jt.A_iso.domain.dim
    w_y = jt.A_iso.codomain.gram
    zc = jt.source.core.gram
    wc = jt.target.core.gram
    w_h = zc[:nx, :nx]                       # A^T W_Y A, held by the lift

    iso = 0.0
    energy = 0.0
    for _ in range(20):
        z1 = rng.standard_normal(nx)
        az = jt.A_iso.matrix @ z1
        iso = max(iso, abs(float(az @ w_y @ az) - float(z1 @ w_h @ z1))
                  / (1.0 + abs(float(z1 @ w_h @ z1))))
        z = rng.standard_normal(2 * nx)
        w = push_state(jt, z)
        energy = max(energy, abs(float(w @ wc @ w) - float(z @ zc @ z))
                     / (1.0 + abs(float(z @ zc @ z))))

    # B_ext on Y times the projector I - A (A^T W_Y A)^{-1} A^T W_Y onto ker A*
    dp = jt.source.pair
    b_y, a = dp.B_ext.matrix[:, :jt.A_iso.codomain.dim], jt.A_iso.matrix
    ker_rows = b_y - (b_y @ a) @ jt.normal_solve(a.T @ w_y)
    kernel = float(np.linalg.norm(ker_rows)
                   / (1.0 + np.linalg.norm(dp.B_ext.matrix)))

    # Trace transport: Xi agrees with Gamma after injecting source states.
    inj = state_injection(jt)
    transport = max(
        float(np.abs(jt.target.Gamma0 @ inj - jt.source.Gamma0).max()),
        float(np.abs(jt.target.Gamma1 @ inj - jt.source.Gamma1).max()))

    return [CheckResult("jet_isometry", iso, 1e-12),
            CheckResult("jet_energy_push", energy, 1e-12),
            CheckResult("jet_kernel_annihilated", kernel, 1e-12),
            CheckResult("jet_trace_transport", transport, 1e-12)]


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
