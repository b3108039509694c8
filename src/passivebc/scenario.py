"""Scenario files: schema-validated JSON driving the CLI.

A scenario fixes the wave coefficients, the node flavor and contraction
parameter, the input signal, the initial state and the time grid.  The
format is strict: ``schema_version`` must equal 1 and unknown keys are
errors, so acceptance runs stay reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import wave1d
from .errors import ScenarioError
from .node import BoundaryNode, impedance_node, scattering_node
from .sim import InputSignal
from .triplet import BoundaryOperator
from .wave1d import WaveCoefficients, WaveSystem

__all__ = ["Scenario", "load_scenario", "build_system", "build_node",
           "build_flavor_node", "build_signal", "build_initial_state"]

SCHEMA_VERSION = 1
GRID_RTOL = 1e-9    # allowed |n dt - t_final| relative to t_final

_TOP_KEYS = {
    "schema_version": True, "formulation": False, "N": True,
    "length": True, "coefficients": True, "P": True, "flavor": True,
    "beta": False, "input": True, "initial": True, "t_final": True,
    "dt": True, "seed": False, "out": False,
}
_FORMULATIONS = ("position-momentum", "strain-momentum")
_FLAVORS = ("impedance", "scattering")
_INPUT_KINDS = ("zero", "sine", "gauss_pulse")
_INITIAL_KINDS = ("zero", "standing_wave", "gauss")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario contents."""

    formulation: str
    N: int
    length: float
    rho: np.ndarray
    T: np.ndarray
    a: np.ndarray
    b: np.ndarray
    P: np.ndarray
    flavor: str
    beta: float
    input: dict
    initial: dict
    t_final: float
    dt: float
    seed: int
    out: str | None


def _fail(msg: str) -> None:
    raise ScenarioError(msg)


def _expect_keys(mapping: dict, allowed: dict, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        _fail(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [k for k, req in allowed.items() if req and k not in mapping]
    if missing:
        _fail(f"missing keys in {where}: {missing}")


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _finite_number(raw, name: str) -> float:
    """A JSON number that is finite as a float (NaN, infinity and integers
    beyond the float range are refused)."""
    if not _is_number(raw):
        _fail(f"{name} must be a number")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        _fail(f"{name} must be finite, got {raw!r}")
    return value


def _positive_number(raw, name: str) -> float:
    value = _finite_number(raw, name)
    if not value > 0:
        _fail(f"{name} must be positive")
    return value


def _number_list(raw, name: str, size: int) -> np.ndarray:
    if not (isinstance(raw, list) and len(raw) == size):
        _fail(f"{name} must be a list of length {size}")
    return np.array([_finite_number(v, name) for v in raw])


def _coefficient_array(raw, name: str, size: int) -> np.ndarray:
    if _is_number(raw):
        return np.full(size, _finite_number(raw, f"coefficient {name}"))
    if isinstance(raw, list):
        return _number_list(raw, f"coefficient {name}", size)
    _fail(f"coefficient {name} must be a number or a list")


def _parse_P(raw) -> np.ndarray:
    if _is_number(raw):
        return _finite_number(raw, "P") * np.eye(2)
    if isinstance(raw, list) and len(raw) == 2 \
            and all(isinstance(r, list) and len(r) == 2 for r in raw):
        return np.vstack([_number_list(r, "P", 2) for r in raw])
    _fail("P must be a scalar or a 2x2 row-major matrix")


def _parse_input(raw) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail("input must be an object with a 'kind' key")
    kind = raw["kind"]
    if kind not in _INPUT_KINDS:
        _fail(f"input kind must be one of {_INPUT_KINDS}")
    allowed = {"kind": True}
    if kind == "sine":
        allowed.update(amplitude=True, frequency=True,
                       channel_weights=True)
    elif kind == "gauss_pulse":
        allowed.update(amplitude=True, center=True, width=True,
                       channel_weights=True)
    _expect_keys(raw, allowed, "input")
    if kind != "zero":
        _number_list(raw["channel_weights"], "input channel_weights", 2)
        for key in ("amplitude", "frequency", "center"):
            if key in raw:
                _finite_number(raw[key], f"input {key}")
        if kind == "gauss_pulse":
            _positive_number(raw["width"], "input width")
    return dict(raw)


def _parse_initial(raw) -> dict:
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail("initial must be an object with a 'kind' key")
    kind = raw["kind"]
    if kind not in _INITIAL_KINDS:
        _fail(f"initial kind must be one of {_INITIAL_KINDS}")
    allowed = {"kind": True}
    if kind == "standing_wave":
        allowed.update(k=True)
    elif kind == "gauss":
        allowed.update(center=True, width=True)
    _expect_keys(raw, allowed, "initial")
    if kind == "standing_wave":
        k = raw["k"]
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            _fail("initial k must be a positive integer")
    elif kind == "gauss":
        _finite_number(raw["center"], "initial center")
        _positive_number(raw["width"], "initial width")
    return dict(raw)


def _time_grid(raw_t_final, raw_dt) -> tuple[float, float]:
    """``(t_final, dt)`` with t_final a whole number of steps of dt.

    The simulator runs ``round(t_final / dt)`` steps, so a grid that this
    rounding would stretch or shrink by more than ``GRID_RTOL`` is refused
    rather than silently reinterpreted.
    """
    t_final = _positive_number(raw_t_final, "t_final")
    dt = _positive_number(raw_dt, "dt")
    steps = t_final / dt
    if not math.isfinite(steps):
        _fail(f"t_final / dt = {steps} is not a finite step count")
    n = round(steps)
    if abs(n * dt - t_final) > GRID_RTOL * t_final:
        _fail(f"t_final {t_final!r} is not a whole number of steps dt "
              f"{dt!r} (nearest grid ends at {n * dt!r})")
    return t_final, dt


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; raises ``ScenarioError``."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        _fail(f"cannot read scenario file {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"scenario file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        _fail("scenario must be a JSON object")
    _expect_keys(raw, _TOP_KEYS, "scenario")
    if raw["schema_version"] != SCHEMA_VERSION:
        _fail(f"schema_version must be {SCHEMA_VERSION}")

    formulation = raw.get("formulation", "position-momentum")
    if formulation not in _FORMULATIONS:
        _fail(f"formulation must be one of {_FORMULATIONS}")
    flavor = raw["flavor"]
    if flavor not in _FLAVORS:
        _fail(f"flavor must be one of {_FLAVORS}")

    n = raw["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _fail("N must be a positive integer")
    length = _positive_number(raw["length"], "length")

    coeffs = raw["coefficients"]
    if not isinstance(coeffs, dict):
        _fail("coefficients must be an object")
    _expect_keys(coeffs, {"rho": True, "T": True, "a": True, "b": True},
                 "coefficients")
    rho = _coefficient_array(coeffs["rho"], "rho", n + 1)
    t_arr = _coefficient_array(coeffs["T"], "T", n)
    a_arr = _coefficient_array(coeffs["a"], "a", n + 1)
    b_arr = _coefficient_array(coeffs["b"], "b", n + 1)

    beta = _positive_number(raw.get("beta", 1.0), "beta")
    t_final, dt = _time_grid(raw["t_final"], raw["dt"])
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        _fail("seed must be an integer")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out must be a string path")

    return Scenario(formulation=formulation, N=n, length=length,
                    rho=rho, T=t_arr, a=a_arr, b=b_arr,
                    P=_parse_P(raw["P"]), flavor=flavor, beta=beta,
                    input=_parse_input(raw["input"]),
                    initial=_parse_initial(raw["initial"]),
                    t_final=t_final, dt=dt, seed=seed, out=out)


def build_system(sc: Scenario) -> WaveSystem:
    coeffs = WaveCoefficients(sc.N, sc.length, sc.rho, sc.T, sc.a, sc.b)
    return wave1d.assemble(coeffs)


def build_flavor_node(sc: Scenario, sys: WaveSystem,
                      op: BoundaryOperator) -> BoundaryNode:
    """Node of the scenario's flavor and P on ``op`` with the system M, D."""
    builder = impedance_node if sc.flavor == "impedance" else scattering_node
    return builder(op, sc.P, sys.M_map, sys.D_map)


def build_node(sc: Scenario, sys: WaveSystem) -> BoundaryNode:
    """Node on the operator selected by the scenario formulation."""
    op = sys.op_A if sc.formulation == "position-momentum" else sys.jet.target
    return build_flavor_node(sc, sys, op)


def build_signal(sc: Scenario) -> InputSignal:
    cfg = sc.input
    kind = cfg["kind"]
    if kind == "zero":
        return InputSignal.zero(2)
    weights = np.asarray(cfg["channel_weights"], dtype=float)
    if kind == "sine":
        return InputSignal("sine", weights=weights,
                           amplitude=float(cfg["amplitude"]),
                           frequency=float(cfg["frequency"]))
    return InputSignal("gauss_pulse", weights=weights,
                       amplitude=float(cfg["amplitude"]),
                       center=float(cfg["center"]),
                       width=float(cfg["width"]))


def build_initial_state(sc: Scenario, sys: WaveSystem) -> np.ndarray:
    """Initial core state in the position-momentum coordinates."""
    cfg = dict(sc.initial)
    kind = cfg.pop("kind")
    return wave1d.initial_state(sys, kind, **cfg)
