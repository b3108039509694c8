"""Implicit-midpoint time integration of boundary nodes with exact ledgers.

A boundary node defines the index-1 linear DAE

    u(t) = G z~(t),    d/dt (iota z~)(t) = L_eff z~(t),

on extended coordinates z~.  One midpoint step solves the square system

    iota (z_{n+1} - z_n) = dt * L_eff (z_{n+1} + z_n) / 2,
    G (z_{n+1} + z_n) / 2 = u_mid,

so the constraint holds exactly at the midpoint state, where inputs are
sampled and outputs are read off.  Because the step is the midpoint rule,
the energy increment obeys the *identity*

    dH = dt * <iota z_mid, L_eff z_mid>_W,

which the Green identity converts into boundary supply minus dissipation
minus a nonnegative contraction slack; the ledger records all three and
their residual at machine precision.  The step loop only advances the
state; outputs and the ledger are evaluated afterwards in vectorized
blocks of ``LEDGER_CHUNK`` states from per-node factors built once
(:class:`~passivebc.node.LedgerFactors`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    IncompatibleInitialData,
    NonFiniteValue,
    SingularBoundaryBlock,
    SingularStepMatrix,
    TimeGridTooLarge,
)
from .node import BoundaryNode, EnergyLedger

__all__ = [
    "InputSignal",
    "Trajectory",
    "StepSolver",
    "consistent_initialization",
    "simulate",
    "balance_ledger",
]

INIT_RTOL = 1e-10
SINGULARITY_RTOL = 1e-13
LEDGER_CHUNK = 256      # states per vectorized block of the ledger


@dataclass(frozen=True)
class InputSignal:
    """Twice continuously differentiable input with fixed channel weights.

    Kinds: ``zero``; ``sine`` with ``u(t) = amplitude sin(2 pi frequency t)
    * weights``; ``gauss_pulse`` with ``u(t) = amplitude
    exp(-((t - center)/width)^2) * weights``.
    """

    kind: str
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    amplitude: float = 0.0
    frequency: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "sine", "gauss_pulse"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        params = (self.amplitude, self.frequency, self.center, self.width)
        if not (np.isfinite(params).all()
                and np.isfinite(self.amplitude * w).all()):
            raise NonFiniteValue("input signal parameters or its peak "
                                 "amplitude * weights are not finite")
        if self.kind == "gauss_pulse" and not self.width > 0.0:
            raise ValueError("gauss_pulse width must be positive")

    def __call__(self, t: float) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(self.weights)
        if self.kind == "sine":
            return (self.amplitude
                    * np.sin(2.0 * np.pi * self.frequency * t)) * self.weights
        arg = (t - self.center) / self.width
        return (self.amplitude * np.exp(-arg * arg)) * self.weights

    @staticmethod
    def zero(m: int) -> "InputSignal":
        return InputSignal("zero", weights=np.zeros(m))


@dataclass(frozen=True)
class Trajectory:
    """Time grid, extended states and midpoint port samples of one run."""

    times: np.ndarray                # (n+1,)
    states_ext: np.ndarray           # (n+1, ext_dim)
    inputs: np.ndarray               # (n, m) at interval midpoints
    outputs: np.ndarray              # (n, m) at interval midpoints
    ledger: EnergyLedger | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def midpoint_states(self) -> np.ndarray:
        return 0.5 * (self.states_ext[:-1] + self.states_ext[1:])


class StepSolver:
    """LU-factored midpoint stepper for a fixed node and step size."""

    def __init__(self, node: BoundaryNode, dt: float):
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        self.node = node
        self.dt = dt
        ncore, ext = node.op.iota.shape
        m = node.G_map.shape[0]
        if ncore + m != ext:
            raise SingularStepMatrix(
                f"step system is not square: core {ncore} + inputs {m} "
                f"!= extended dimension {ext}")
        self._ahead = np.vstack([node.op.iota - 0.5 * dt * node.L_eff,
                                 node.G_map])
        self._behind = np.vstack([node.op.iota + 0.5 * dt * node.L_eff,
                                  -node.G_map])
        self._lu = self._factor(self._ahead)
        self._lu_back = None
        self._ncore = ncore

    @staticmethod
    def _factor(matrix: np.ndarray):
        if not np.isfinite(matrix).all():
            raise NonFiniteValue("midpoint step matrix iota -/+ dt L_eff/2 "
                                 "leaves the floating-point range")
        try:
            with warnings.catch_warnings():
                # zero pivots are reported through our own exception below
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(matrix)
        except scipy.linalg.LinAlgError as exc:
            raise SingularStepMatrix(str(exc)) from exc
        diag = np.abs(np.diag(lu[0]))
        if diag.max() == 0.0 or diag.min() <= SINGULARITY_RTOL * diag.max():
            raise SingularStepMatrix(
                "midpoint step matrix is numerically singular "
                f"(pivot ratio {diag.min() / max(diag.max(), 1e-300):.3e})")
        return lu

    def step(self, z: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
        rhs = self._behind @ z
        rhs[self._ncore:] += 2.0 * np.asarray(u_mid, dtype=float)
        # finiteness of the states is checked once per run by simulate
        return scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)

    def step_back(self, z: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
        """Invert one midpoint step (the scheme is time-symmetric)."""
        if self._lu_back is None:
            self._lu_back = self._factor(self._behind)
        rhs = self._ahead @ z
        rhs[self._ncore:] -= 2.0 * np.asarray(u_mid, dtype=float)
        return scipy.linalg.lu_solve(self._lu_back, rhs, check_finite=False)


def consistent_initialization(node: BoundaryNode, z_core: np.ndarray,
                              u0: np.ndarray) -> np.ndarray:
    """Complete a core state with boundary coordinates so that G z~ = u0.

    The boundary block of G must determine the extra coordinates; raises
    ``IncompatibleInitialData`` when no completion matches u0 and
    ``SingularBoundaryBlock`` when the block is rank deficient (the
    constraint then cannot involve the boundary coordinates).
    """
    z_core = np.asarray(z_core, dtype=float)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    ncore = node.op.core.dim
    nb = node.op.ext_dim - ncore
    g_core = node.G_map[:, :ncore]
    g_tau = node.G_map[:, ncore:]
    rhs = u0 - g_core @ z_core
    if nb == 0:
        if np.linalg.norm(rhs) > INIT_RTOL * (1.0 + np.linalg.norm(u0)):
            raise IncompatibleInitialData(float(np.linalg.norm(rhs)))
        return z_core.copy()
    tau, *_ = np.linalg.lstsq(g_tau, rhs, rcond=None)
    gap = float(np.linalg.norm(g_tau @ tau - rhs))
    if gap > INIT_RTOL * (1.0 + np.linalg.norm(u0)):
        raise IncompatibleInitialData(gap)
    sigma = np.linalg.svd(g_tau, compute_uv=False)
    if sigma.size == 0 or sigma[-1] <= 1e-12 * max(sigma[0], 1.0):
        raise SingularBoundaryBlock(
            "boundary block of the input map is rank deficient")
    return np.concatenate([z_core, tau])


def simulate(node: BoundaryNode, z_core0: np.ndarray, signal: InputSignal,
             t_final: float, dt: float) -> Trajectory:
    """Integrate on a uniform grid and fill the energy ledger.

    Raises ``TimeGridTooLarge`` when the grid's states cannot be allocated.
    """
    n_steps = max(1, int(round(t_final / dt)))
    ext = node.op.ext_dim
    m = node.G_map.shape[0]
    try:
        times = dt * np.arange(n_steps + 1)
        states = np.empty((n_steps + 1, ext))
        inputs = np.empty((n_steps, m))
    except (ValueError, MemoryError) as exc:
        nbytes = 8.0 * (n_steps + 1) * (ext + 1) + 8.0 * n_steps * m
        raise TimeGridTooLarge(
            f"cannot allocate {n_steps:.6g} steps of {ext}-dimensional "
            f"states ({nbytes:.3e} bytes requested): {exc}") from exc
    z0 = consistent_initialization(node, z_core0, signal(0.0))
    solver = StepSolver(node, dt)
    states[0] = z0
    for n in range(n_steps):
        u_mid = signal(times[n] + 0.5 * dt)
        inputs[n] = u_mid
        states[n + 1] = solver.step(states[n], u_mid)
    if not np.isfinite(states).all():
        raise NonFiniteValue("the trajectory left the floating-point range")

    outputs = np.empty((n_steps, m))
    for i, j, z_mid in _midpoint_blocks(states):
        outputs[i:j] = z_mid @ node.K_map.T
    traj = Trajectory(times=times, states_ext=states, inputs=inputs,
                      outputs=outputs)
    # attach the ledger to the frozen trajectory instead of building it twice
    object.__setattr__(traj, "ledger", balance_ledger(node, traj))
    return traj


def _midpoint_blocks(states: np.ndarray):
    """Yield ``(i, j, z_mid)`` for the steps i..j-1, LEDGER_CHUNK at a time."""
    n = len(states) - 1
    for i in range(0, n, LEDGER_CHUNK):
        j = min(i + LEDGER_CHUNK, n)
        yield i, j, 0.5 * (states[i:j] + states[i + 1:j + 1])


def balance_ledger(node: BoundaryNode, trajectory: Trajectory) -> EnergyLedger:
    """Per-step energy balance of a midpoint trajectory.

    For the impedance flavor the supplied power is ``<u, y>`` in the dual
    boundary pairing, for scattering ``(||u||^2 - ||y||^2) / 2``; both are
    evaluated at the midpoint state, as is the dissipated power.  The
    residual ``dH - dt (supply - dissipation)`` equals minus half the
    recorded scattering slack up to roundoff.

    The ledger is evaluated in vectorized blocks of ``LEDGER_CHUNK``
    states from the node's precomputed ``ledger_factors``; midpoint states
    are formed one block at a time, never for the whole trajectory.
    Raises ``NonFiniteValue`` when any ledger entry is NaN or infinite.
    """
    f = node.ledger_factors
    states = trajectory.states_ext
    n = trajectory.n_steps
    dt = float(trajectory.times[1] - trajectory.times[0]) if n else 0.0
    hp = np.empty(n + 1)
    hk = np.empty(n + 1)
    for i in range(0, n + 1, LEDGER_CHUNK):
        block = slice(i, i + LEDGER_CHUNK)
        hp[block], hk[block] = f.energy_split(states[block])
    dissipated = np.empty(n)
    slack = np.empty(n)
    for i, j, z_mid in _midpoint_blocks(states):
        dissipated[i:j] = f.dissipated_power(z_mid)
        slack[i:j] = f.scattering_slack(z_mid)
    h = hp + hk
    supplied = f.supplied_power(trajectory.inputs, trajectory.outputs)
    residual = h[1:] - h[:-1] - dt * (supplied - dissipated)
    slack = dt * slack
    if not all(np.isfinite(a).all()
               for a in (h, hp, hk, supplied, dissipated, residual, slack)):
        raise NonFiniteValue("the energy ledger left the floating-point "
                             "range (finite states, overflowing energies)")
    return EnergyLedger(H=h, H_p=hp, H_k=hk, supplied=supplied,
                        dissipated=dissipated, residual=residual, slack=slack)
