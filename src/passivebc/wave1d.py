"""Staggered-grid discretization of the damped 1-D wave equation.

Displacement and momentum live on the N+1 nodes of a uniform grid,
strain on the N cells.  The factor map is

    A x = [ T^{1/2} (difference of x) / h ;  a^{1/2} x ],

with trapezoid weights on nodes and cell widths on cells, so the discrete
integration-by-parts identity

    <B_ext y~, x>_X + <iota_Y y~, A x>_Y = tau_R x_N - tau_L x_0

holds exactly once the two boundary fluxes (tau_L, tau_R) are carried as
extra coordinates after the Y ones (``y~ = (y, tau)``, see ``triplet``).
The endpoint traces

    Lambda1 x = (x_0, x_N),     Pi1 y~ = (tau_L, -tau_R)

then satisfy the dual-pair Green identity to machine precision, and the
second-order lift yields bulk traces: boundary velocity for Gamma0 and
outward-normal traction (-tau_L, +tau_R) for Gamma1.

Coefficients rho (density), a (restoring) and b (damping) are per node,
the stiffness T per cell; rho, T, a must be strictly positive and b
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    InvalidCoefficients,
    NonConstantCoefficients,
    NonFiniteValue,
    NonPositiveParameter,
    UnknownChoice,
)
from .hilbert import HilbertSpaceSpec, LinearMap, _space_from_band, make_space
from .jet import JetTransform, build_jet
from .triplet import (
    BoundaryOperator,
    DualPairTriplet,
    assemble_dual_pair,
    extend_adjoint,
    lift_second_order,
)

__all__ = [
    "WaveCoefficients",
    "WaveSystem",
    "constant_coefficients",
    "random_coefficients",
    "assemble",
    "analytic_standing_wave",
    "initial_state",
]


@dataclass(frozen=True)
class WaveCoefficients:
    """Material data on a uniform grid with N cells."""

    N: int
    length: float
    rho: np.ndarray   # per node, > 0
    T: np.ndarray     # per cell, > 0
    a: np.ndarray     # per node, > 0
    b: np.ndarray     # per node, >= 0

    def __post_init__(self):
        if self.N < 1:
            raise InvalidCoefficients("need at least one cell")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise InvalidCoefficients("length must be positive and finite")
        for name, arr, size in (("rho", self.rho, self.N + 1),
                                ("T", self.T, self.N),
                                ("a", self.a, self.N + 1),
                                ("b", self.b, self.N + 1)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (size,):
                raise InvalidCoefficients(
                    f"{name} must have shape ({size},), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidCoefficients(f"{name} holds NaN or infinity")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.rho <= 0.0) or np.any(self.T <= 0.0) \
                or np.any(self.a <= 0.0):
            raise InvalidCoefficients("rho, T and a must be strictly "
                                      "positive")
        if np.any(self.b < 0.0):
            raise InvalidCoefficients("b must be nonnegative")

    @property
    def h(self) -> float:
        return self.length / self.N


@dataclass(frozen=True)
class WaveSystem:
    """Assembled spaces, dual pair and boundary operator.

    The strain-momentum jet transform is built on first read of ``jet``.
    """

    coeffs: WaveCoefficients
    nodes: np.ndarray
    X: HilbertSpaceSpec
    Y: HilbertSpaceSpec
    A_map: LinearMap
    dual_pair: DualPairTriplet
    op_A: BoundaryOperator
    M_map: LinearMap
    D_map: LinearMap

    @cached_property
    def jet(self) -> JetTransform:
        """Strain-momentum transform of ``op_A``, built once on first read."""
        return build_jet(self.op_A)


def constant_coefficients(N: int, length: float = 1.0, rho: float = 1.0,
                          T: float = 1.0, a: float = 1.0,
                          b: float = 0.0) -> WaveCoefficients:
    return WaveCoefficients(N, length,
                            np.full(N + 1, float(rho)),
                            np.full(N, float(T)),
                            np.full(N + 1, float(a)),
                            np.full(N + 1, float(b)))


def random_coefficients(N: int, rng: np.random.Generator,
                        length: float = 1.0, low: float = 0.5,
                        high: float = 2.0,
                        b_max: float = 1.0) -> WaveCoefficients:
    """Log-uniform fields in [low, high] for rho, T, a; uniform b in [0, b_max]."""
    def logu(size):
        return np.exp(rng.uniform(math.log(low), math.log(high), size))
    return WaveCoefficients(N, length, logu(N + 1), logu(N),
                            logu(N + 1), rng.uniform(0.0, b_max, N + 1))


def _trapezoid_weights(N: int, h: float) -> np.ndarray:
    w = np.full(N + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def assemble(coeffs: WaveCoefficients,
             boundary_gram: np.ndarray | None = None) -> WaveSystem:
    """Build the exact dual pair and its second-order lift.

    ``boundary_gram`` overrides the identity Gram of the two-point
    boundary space (the trace identities are Gram-independent; the choice
    only reweights dual norms and port pairings).
    """
    N = coeffs.N
    h = coeffs.h
    nodes = np.linspace(0.0, coeffs.length, N + 1)

    w_nodes = _trapezoid_weights(N, h)
    X = _space_from_band(w_nodes[:, None], "X")
    w_y = np.concatenate([np.full(N, h), w_nodes])
    Y = _space_from_band(w_y[:, None], "Y")

    # A x = [T^{1/2} grad x; a^{1/2} x], grad mapping nodes to cells.
    grad = (np.eye(N, N + 1, 1) - np.eye(N, N + 1)) / h
    a_mat = np.vstack([np.sqrt(coeffs.T)[:, None] * grad,
                       np.diag(np.sqrt(coeffs.a))])
    A_map = LinearMap(a_mat, domain=X, codomain=Y)

    # Signed boundary injection: <E tau, x> = tau_R x_N - tau_L x_0.
    injection = np.zeros((N + 1, 2))
    injection[0, 0] = -1.0
    injection[N, 1] = 1.0
    B_ext = extend_adjoint(A_map, injection)

    lambda1 = np.zeros((2, N + 1))
    lambda1[0, 0] = 1.0
    lambda1[1, N] = 1.0
    pi1 = np.zeros((2, 2 * N + 3))
    pi1[0, 2 * N + 1] = 1.0
    pi1[1, 2 * N + 2] = -1.0
    G1 = make_space(2, np.eye(2) if boundary_gram is None
                    else boundary_gram, "G1")

    dual_pair = assemble_dual_pair(A_map, B_ext, lambda1, pi1, G1)
    op_A = lift_second_order(dual_pair)

    return WaveSystem(coeffs=coeffs, nodes=nodes, X=X, Y=Y,
                      A_map=A_map, dual_pair=dual_pair, op_A=op_A,
                      M_map=LinearMap(np.diag(coeffs.rho), domain=X,
                                      codomain=X),
                      D_map=LinearMap(np.diag(coeffs.b), domain=X,
                                      codomain=X))


def analytic_standing_wave(k: int, coeffs: WaveCoefficients
                           ) -> tuple[Callable[[float], np.ndarray], float]:
    """Closed-form zero-traction mode for constant coefficients, b = 0.

    Returns a map t -> nodal (displacement, momentum) samples of

        x(t, s) = cos(k pi s / length) cos(omega t),
        omega   = sqrt((T (k pi / length)^2 + a) / rho),

    which solves the continuous equation with zero traction at both ends.
    Raises ``NonFiniteValue`` when kappa = k pi / length or omega is not a
    finite float.
    """
    if k < 1:
        raise NonPositiveParameter("mode number k must be a positive integer")
    if np.ptp(coeffs.rho) != 0.0 or np.ptp(coeffs.T) != 0.0 \
            or np.ptp(coeffs.a) != 0.0:
        raise NonConstantCoefficients(
            "standing-wave oracle requires constant rho, T, a")
    if np.any(coeffs.b != 0.0):
        raise NonConstantCoefficients(
            "standing-wave oracle requires b = 0")
    rho = float(coeffs.rho[0])
    T = float(coeffs.T[0])
    a = float(coeffs.a[0])
    try:
        kappa = k * math.pi / coeffs.length
        omega = math.sqrt((T * kappa ** 2 + a) / rho)
    except OverflowError:
        kappa = omega = math.inf
    if not (math.isfinite(kappa) and math.isfinite(omega)):
        raise NonFiniteValue("standing-wave mode k gives a wave number "
                             "k pi / length or a frequency omega beyond "
                             "the float range")
    nodes = np.linspace(0.0, coeffs.length, coeffs.N + 1)
    mode = np.cos(kappa * nodes)

    def state(t: float) -> np.ndarray:
        z1 = mode * math.cos(omega * t)
        z2 = -rho * omega * mode * math.sin(omega * t)
        return np.concatenate([z1, z2])

    return state, omega


def initial_state(sys: WaveSystem, kind: str, **params) -> np.ndarray:
    """Core state (z1, z2) for the named initial condition.

    ``zero``; ``standing_wave`` with mode ``k``; ``gauss`` with ``center``
    and ``width`` (displacement bump, zero momentum).
    """
    n = sys.coeffs.N + 1
    if kind == "zero":
        return np.zeros(2 * n)
    if kind == "standing_wave":
        state, _ = analytic_standing_wave(int(params.get("k", 1)),
                                          sys.coeffs)
        return state(0.0)
    if kind == "gauss":
        center = float(params.get("center", 0.5 * sys.coeffs.length))
        width = float(params.get("width", 0.1 * sys.coeffs.length))
        if not width > 0.0:   # NaN too
            raise NonPositiveParameter("gauss width must be positive")
        z1 = np.exp(-((sys.nodes - center) / width) ** 2)
        return np.concatenate([z1, np.zeros(n)])
    raise UnknownChoice(f"unknown initial state kind {kind!r}")
