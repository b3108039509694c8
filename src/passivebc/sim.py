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
their residual at machine precision.  A run (:func:`simulate_blocks`)
samples every midpoint input first, then advances through LAPACK
``getrs`` on the stored factor (:meth:`StepSolver.advance`) in blocks of
as many steps as fit ``BLOCK_BYTES`` of states (at least one), in one
block-sized buffer, and yields each block as a :class:`Trajectory` with
its outputs and ledger before it steps the next; :func:`simulate` joins
the blocks.  The outputs and the node's ledger methods
(:meth:`~passivebc.node.BoundaryNode.energy_split` and its siblings) form
each row apart, so no value depends on where the blocks are cut.  The node
holds ``L_eff`` as a CSR array; :class:`StepSolver`'s two step matrices
are its only dense copies.
"""

from __future__ import annotations

import logging
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, is_dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IncompatibleInitialData,
    InvalidTimeGrid,
    NonFiniteValue,
    NonPositiveParameter,
    ShapeMismatch,
    SingularBoundaryBlock,
    SingularStepMatrix,
    TimeGridTooLarge,
    UnknownChoice,
)
from .hilbert import _expect_shape, _require_finite, _times_rows
from .node import BoundaryNode, EnergyLedger

__all__ = [
    "InputSignal",
    "Trajectory",
    "StepSolver",
    "consistent_initialization",
    "time_steps",
    "simulate",
    "simulate_blocks",
]

INIT_RTOL = 1e-10
GRID_RTOL = 1e-9        # allowed |n dt - t_final| relative to t_final
SINGULARITY_RTOL = 1e-13
BLOCK_BYTES = 128 * 1024   # states a run's block holds, in bytes

_log = logging.getLogger("passivebc")

# each input kind and its parameters; scenario files take these
_INPUT_PARAMETERS = {"zero": (), "sine": ("amplitude", "frequency"),
                     "gauss_pulse": ("amplitude", "center", "width")}


@dataclass(frozen=True)
class InputSignal:
    """Twice continuously differentiable input with fixed channel weights.

    Kinds: ``zero``; ``sine`` with ``u(t) = amplitude sin(2 pi frequency t)
    * weights``; ``gauss_pulse`` with ``u(t) = amplitude
    exp(-((t - center)/width)^2) * weights``.  Called on a time or an array
    of times, it returns shape ``t.shape + (m,)``; each sample has the bits
    of the call on its time alone.
    """

    kind: str
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    amplitude: float = 0.0
    frequency: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in tuple(_INPUT_PARAMETERS):
            raise UnknownChoice(f"unknown input kind {self.kind!r}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        params = (self.amplitude, self.frequency, self.center, self.width)
        if not (np.isfinite(params).all()
                and np.isfinite(self.amplitude * w).all()):
            raise NonFiniteValue("input signal parameters or its peak "
                                 "amplitude * weights are not finite")
        if self.kind == "gauss_pulse" and not self.width > 0.0:
            raise NonPositiveParameter("gauss_pulse width must be positive")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return np.zeros(t.shape + self.weights.shape)
        if self.kind == "sine":
            profile = np.sin(2.0 * np.pi * self.frequency * t)
        else:
            arg = (t - self.center) / self.width
            profile = np.exp(-arg * arg)
        return np.multiply.outer(self.amplitude * profile, self.weights)

    @staticmethod
    def zero(m: int) -> "InputSignal":
        return InputSignal("zero", weights=np.zeros(m))


@dataclass(frozen=True)
class Trajectory:
    """Time grid, extended states and midpoint port samples of a run, or
    of one block of it.

    A run (``simulate``) holds its n + 1 grid rows and n steps.  A block
    (``simulate_blocks``) holds steps ``i, ..., i + len(inputs) - 1`` and
    the rows they end on (step k ends on row k + 1), and the first block
    row 0 as well, so it holds one row more than steps; its ``states_ext``
    is a view of the run's buffer, which the next block overwrites.  H,
    H_p and H_k are per row, the other ledger entries per step.  Every
    entry has the bits it has in any other cut of the run into blocks.
    """

    times: np.ndarray                # (rows,)
    states_ext: np.ndarray           # (rows, ext_dim)
    inputs: np.ndarray               # (steps, m) at interval midpoints
    outputs: np.ndarray              # (steps, m) at interval midpoints
    ledger: EnergyLedger

    @property
    def n_steps(self) -> int:
        return len(self.inputs)


class StepSolver:
    """LU-factored midpoint map for a fixed node and step size dt.

    A step solves ``[iota - dt/2 L_eff; G] z' = [iota + dt/2 L_eff; -G] z
    + [0; 2 u_mid]``.  The rule is symmetric, so ``StepSolver(node, -dt)``
    is the inverse step; any nonzero dt is accepted.  ``advance`` runs a
    block of steps in place through LAPACK ``getrs``, fetched once; ``step``
    is ``advance`` on a two-row buffer.  The solver holds no scratch
    buffers and each ``advance`` steps on its own copy of the pivots, so
    one instance may serve several threads.  ``pivot_ratio`` keeps the
    factor's ``min |U_ii| / max |U_ii|``, the margin of the singularity
    gate; ``simulate_blocks`` logs it at DEBUG on the ``passivebc``
    logger, with ext_dim, the bytes the solver holds and the run's block.
    """

    def __init__(self, node: BoundaryNode, dt: float):
        if dt == 0.0 or math.isnan(dt):
            raise InvalidTimeGrid(f"dt must be nonzero, got {dt!r}")
        ncore, ext = node.op.core.dim, node.op.ext_dim
        m = node.G_map.shape[0]
        if ncore + m != ext:
            raise SingularStepMatrix(
                f"step system is not square: core {ncore} + inputs {m} "
                f"!= extended dimension {ext}")
        # iota +/- h for h = dt/2 L_eff; _factor refuses a non-finite h.
        # The node's CSR L_eff is written into h and scaled there: no other
        # dense copy.  ``ahead`` is Fortran-ordered, so LAPACK factors it in
        # place.
        behind = np.empty((ext, ext))
        h = node.L_eff.toarray(out=behind[:ncore])
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(0.5 * dt, h, out=h)
        np.negative(node.G_map, out=behind[ncore:])
        ahead = np.empty((ext, ext), order="F")
        np.negative(h, out=ahead[:ncore])
        ahead[ncore:] = node.G_map
        diag = np.arange(ncore)
        for matrix in (ahead, behind):
            matrix[diag, diag] += 1.0
        self._behind = behind
        self._lu, self.pivot_ratio = self._factor(ahead)
        self._getrs, = scipy.linalg.get_lapack_funcs(("getrs",),
                                                     (self._lu[0],))
        self._ncore = ncore

    @staticmethod
    def _factor(matrix: np.ndarray):
        """LU factors of ``matrix``, computed in its own storage, and the
        pivot ratio ``min |U_ii| / max |U_ii|`` that the singularity gate
        holds to ``SINGULARITY_RTOL``."""
        # min and max carry NaN and +/-inf through; no mask is formed
        if not np.isfinite([matrix.min(initial=0.0),
                            matrix.max(initial=0.0)]).all():
            raise NonFiniteValue("midpoint step matrix iota -/+ dt L_eff/2 "
                                 "leaves the floating-point range")
        try:
            with warnings.catch_warnings():
                # zero pivots are reported through our own exception below
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(matrix, overwrite_a=True,
                                            check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularStepMatrix(str(exc)) from exc
        diag = np.abs(np.diag(lu[0]))
        ratio = float(diag.min() / max(diag.max(), 1e-300))
        if diag.max() == 0.0 or diag.min() <= SINGULARITY_RTOL * diag.max():
            raise SingularStepMatrix(
                "midpoint step matrix is numerically singular "
                f"(pivot ratio {ratio:.3e})")
        return lu, ratio

    def advance(self, states: np.ndarray, inputs: np.ndarray) -> None:
        """Fill ``states[1:]`` in place: row k + 1 is the step from row k
        with midpoint input ``inputs[k]``.

        ``states`` is a C-contiguous float64 array of shape ``(n + 1,
        ext_dim)`` and ``inputs`` has shape ``(n, m)``; anything else
        raises ``ShapeMismatch``.  Finiteness of the states is left to the
        caller (``simulate_blocks`` checks each block).
        """
        ext, m = self._behind.shape[1], self._behind.shape[0] - self._ncore
        if not (isinstance(states, np.ndarray) and states.dtype == np.float64
                and states.flags.c_contiguous):
            raise ShapeMismatch("states must be a C-contiguous float64 "
                                "array: each step is solved in place")
        _expect_shape("states", states, states.shape[:1] + (ext,))
        inputs = np.asarray(inputs, dtype=float)
        _expect_shape("inputs", inputs, (len(states) - 1, m))
        # scipy's getrs shifts the pivots to 1-based and back: a copy per call
        (lu, piv), getrs = self._lu, self._getrs
        piv, behind, ncore = piv.copy(), self._behind, self._ncore
        # doubling is exact: one scaled block gives every step's 2 u bits
        for z, nxt, u2 in zip(states[:-1], states[1:], 2.0 * inputs):
            np.matmul(behind, z, out=nxt)
            nxt[ncore:] += u2
            # a contiguous float64 row is overwritten, not copied; the
            # checked shapes leave getrs no illegal argument to report
            getrs(lu, piv, nxt, overwrite_b=True)

    def step(self, z: np.ndarray, u_mid: np.ndarray) -> np.ndarray:
        """The step from z; ``NonFiniteValue`` names a non-finite argument."""
        states = np.empty((2, self._behind.shape[1]))
        z = np.asarray(z, dtype=float)
        u_mid = np.asarray(u_mid, dtype=float)
        _expect_shape("state z", z, states.shape[1:])
        _require_finite(state_z=z, midpoint_input_u_mid=u_mid)
        states[0] = z
        self.advance(states, u_mid[None])
        return states[1]


def consistent_initialization(node: BoundaryNode, z_core: np.ndarray,
                              u0: np.ndarray) -> np.ndarray:
    """Complete a core state with boundary coordinates so that G z~ = u0.

    The boundary block of G must determine the extra coordinates; raises
    ``IncompatibleInitialData`` when no completion matches u0 and
    ``SingularBoundaryBlock`` when the block is rank deficient (the
    constraint then cannot involve the boundary coordinates).  Raises
    ``NonFiniteValue`` when z_core or u0 holds NaN or infinity.
    """
    z_core = np.asarray(z_core, dtype=float)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    ncore = node.op.core.dim
    _expect_shape("initial core state", z_core, (ncore,))
    _expect_shape("initial input u0", u0, (node.G_map.shape[0],))
    _require_finite(initial_core_state=z_core, initial_input_u0=u0)
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


def time_steps(t_final: float, dt: float) -> int:
    """Step count n of the grid ``0, dt, ..., n dt = t_final``.

    Raises ``InvalidTimeGrid`` unless t_final and dt are positive and
    finite and ``n = round(t_final / dt)`` meets t_final to ``GRID_RTOL``
    relative: a grid is refused rather than stretched or shrunk.
    """
    t_final, dt = float(t_final), float(dt)
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidTimeGrid(f"{name} must be positive and finite, "
                                  f"got {value!r}")
    steps = t_final / dt
    if not math.isfinite(steps):
        raise InvalidTimeGrid(f"t_final / dt = {steps} is not a finite step "
                              "count")
    n = round(steps)
    if abs(n * dt - t_final) > GRID_RTOL * t_final:
        raise InvalidTimeGrid(f"t_final {t_final!r} is not a whole number of "
                              f"steps dt {dt!r} (nearest grid ends at "
                              f"{n * dt!r})")
    return n


def _checked_grid(node: BoundaryNode, signal: InputSignal, t_final: float,
                  dt: float) -> int:
    """Step count of a run, after its grid and channel-count gates."""
    n_steps = time_steps(t_final, dt)
    _expect_shape("input signal weights", signal.weights,
                  (node.G_map.shape[0],))
    return n_steps


@contextmanager
def _grid_allocation(n_steps: int, ext: int, nbytes: float, what: str):
    """Turn a failed allocation of ``what`` into ``TimeGridTooLarge``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise TimeGridTooLarge(
            f"cannot allocate {n_steps:.6g} steps of {ext}-dimensional "
            f"states ({nbytes:.3e} bytes requested for {what}): "
            f"{exc}") from exc


def _block_steps(ext_dim: int) -> int:
    """Steps in a block of a run on ``ext_dim``-dimensional states: as
    many as fit ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * ext_dim))


def simulate_blocks(node: BoundaryNode, z_core0: np.ndarray,
                    signal: InputSignal, t_final: float, dt: float,
                    block_steps: int | None = None):
    """``simulate`` as an iterator of ``Trajectory`` blocks of
    ``block_steps`` steps each (the last may hold fewer), holding one
    ``(block_steps + 1) x ext_dim`` buffer of states.  By default a block
    holds as many steps as fit ``BLOCK_BYTES`` at the node's ext_dim, at
    least one; two runs on different ext_dims pass one count to be cut at
    the same rows, and a count that is not an integer >= 1 (a bool is not)
    raises ``NonPositiveParameter``.  The buffer holds at most the run.

    The set-up (grid, signal, initial state, step factor, every midpoint
    input) is done before this returns; each block is then stepped from
    the last state of the one before and checked for finiteness before its
    ledger, and the run stops at the first block whose states or ledger
    leave the floating-point range.  Errors have ``simulate``'s types,
    messages and order; a signal whose samples leave the floating-point
    range (``2 pi f t`` overflowing, say) raises ``NonFiniteValue`` before
    the initial state and the step.
    """
    n_steps = _checked_grid(node, signal, t_final, dt)
    if block_steps is not None and (isinstance(block_steps, bool) or not (
            isinstance(block_steps, (int, np.integer)) and block_steps >= 1)):
        raise NonPositiveParameter("a block must hold at least one step, a "
                                   f"whole number, got {block_steps!r}")
    m = node.G_map.shape[0]
    nbytes = 8.0 * (n_steps + 1) + 8.0 * n_steps * (m + 1)
    with _grid_allocation(n_steps, node.op.ext_dim, nbytes,
                          "the time grid, its midpoint times and inputs"), \
            np.errstate(over="ignore", invalid="ignore"):
        times = dt * np.arange(n_steps + 1)
        inputs = signal(times[:-1] + 0.5 * dt)
        u0 = signal(0.0)
    if not np.isfinite(inputs).all():
        k = int(np.argmin(np.isfinite(inputs).all(axis=1)))
        raise NonFiniteValue(f"input signal {signal.kind!r} holds NaN or "
                             "infinity at the midpoint t = "
                             f"{float(times[k] + 0.5 * dt)!r} of step {k}")
    ext = node.op.ext_dim
    steps = min(block_steps or _block_steps(ext), n_steps)
    buffer = np.empty((steps + 1, ext))
    buffer[0] = consistent_initialization(node, z_core0, u0)
    solver = StepSolver(node, dt)
    held = solver._behind.nbytes + sum(x.nbytes for x in solver._lu)
    _log.debug("step factor: ext_dim %d, %d bytes held, pivot ratio %.3e; "
               "blocks of %d steps in a %d-byte buffer", ext, held,
               solver.pivot_ratio, steps, buffer.nbytes)
    return _blocks(node, solver, buffer, times, inputs)


def _blocks(node: BoundaryNode, solver: StepSolver, buffer: np.ndarray,
            times: np.ndarray, inputs: np.ndarray):
    """For each i, step ``[i, j = min(i + k, n))``, k one less than the
    rows of ``buffer``, in ``buffer`` from the last row of the block
    before, check the rows and yield the steps with the rows they end on
    (row 0 too in the first block) and their ledger.  Each ledger form
    reads a row alone, so only H of the last row carries over, into the
    next block's first residual.
    """
    n, dt, k = len(inputs), float(times[1] - times[0]), len(buffer) - 1
    h_before = np.empty(0)
    for i in range(0, n, k):
        j = min(i + k, n)
        states = buffer[:j - i + 1]
        if i:
            states[0] = buffer[k]
        solver.advance(states, inputs[i:j])
        if not np.isfinite(states).all():
            raise NonFiniteValue("the trajectory left the floating-point "
                                 "range")
        first = 1 if i else 0
        hp, hk = node.energy_split(states[first:])
        h = hp + hk
        h_all = np.concatenate([h_before, h])
        h_before = h[-1:]
        z_mid = 0.5 * (states[:-1] + states[1:])
        u = inputs[i:j]
        y = _times_rows(z_mid, node.K_map.T)
        supplied = node.supplied_power(u, y)
        dissipated = node.dissipated_power(z_mid)
        residual = h_all[1:] - h_all[:-1] - dt * (supplied - dissipated)
        slack = dt * node.scattering_slack(z_mid)
        if not all(np.isfinite(a).all() for a in
                   (h, hp, hk, supplied, dissipated, residual, slack)):
            raise NonFiniteValue("the energy ledger left the floating-point "
                                 "range (finite states, overflowing "
                                 "energies)")
        yield Trajectory(
            times=times[i + first:j + 1], states_ext=states[first:],
            inputs=u, outputs=y, ledger=EnergyLedger(
                H=h, H_p=hp, H_k=hk, supplied=supplied,
                dissipated=dissipated, residual=residual, slack=slack))


def simulate(node: BoundaryNode, z_core0: np.ndarray, signal: InputSignal,
             t_final: float, dt: float) -> Trajectory:
    """Integrate on a uniform grid and fill the energy ledger.

    Raises ``InvalidTimeGrid`` when t_final is not a whole number of steps
    dt (see ``time_steps``), ``ShapeMismatch`` when the signal's channel
    count is not the node's, and ``TimeGridTooLarge`` when the grid's
    states, or its times and midpoint inputs, cannot be allocated.  The
    trajectory is the blocks of ``simulate_blocks``, joined.
    """
    n_steps = _checked_grid(node, signal, t_final, dt)
    ext = node.op.ext_dim
    with _grid_allocation(n_steps, ext, 8.0 * (n_steps + 1) * ext,
                          "the states"):
        states = np.empty((n_steps + 1, ext))
    blocks, row = [], 0
    for block in simulate_blocks(node, z_core0, signal, t_final, dt):
        states[row:row + len(block.times)] = block.states_ext
        row += len(block.times)
        blocks.append(block)
    return _joined(blocks, states_ext=states)


def _joined(parts: list, **fields):
    """The dataclass of ``parts`` whose fields other than ``fields`` join
    the parts' own: arrays concatenated, dataclasses joined in turn."""
    for name in type(parts[0]).__dataclass_fields__.keys() - fields.keys():
        values = [getattr(p, name) for p in parts]
        fields[name] = (_joined(values) if is_dataclass(values[0])
                        else np.concatenate(values))
    return type(parts[0])(**fields)
