"""Scenario files: schema-validated JSON driving the CLI.

A scenario fixes the wave coefficients, the node flavor and contraction
parameter, the input signal, the initial state and the time grid.  The
format is strict: ``schema_version`` must equal 1 and unknown keys are
errors, so acceptance runs stay reproducible byte for byte.  The input and
initial-state kinds, and the keys each takes, are read from the library's
tables (``sim._INPUT_PARAMETERS``, ``wave1d._INITIAL_PARAMETERS``); each
parameter name has one rule here (``_PARAMETER_RULES``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import node, sim, wave1d
from .errors import InvalidTimeGrid, ScenarioError
from .node import BoundaryNode, impedance_node, scattering_node
from .sim import InputSignal, time_steps
from .triplet import BoundaryOperator
from .wave1d import WaveCoefficients, WaveSystem

__all__ = ["Scenario", "load_scenario", "build_system", "build_node",
           "build_flavor_node", "build_signal", "build_initial_state"]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version": True, "formulation": False, "N": True,
    "length": True, "coefficients": True, "P": True, "flavor": True,
    "beta": False, "input": True, "initial": True, "t_final": True,
    "dt": True, "seed": False, "out": False,
}
_FORMULATIONS = ("position-momentum", "strain-momentum")
_FLAVORS = (node.IMPEDANCE, node.SCATTERING)


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


def _is_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


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


def _positive_integer(raw, name: str) -> int:
    if not (_is_int(raw) and raw >= 1):
        _fail(f"{name} must be a positive integer")
    return raw


# the scenario rule of each parameter an input or initial-state kind reads
_PARAMETER_RULES = {"amplitude": _finite_number, "frequency": _finite_number,
                    "center": _finite_number, "width": _positive_number,
                    "k": _positive_integer}


def _parse_kind(raw, where: str, kinds: dict, weighted: bool = False) -> dict:
    """A ``{"kind": ...}`` object with exactly the keys that ``kinds``, a
    library table, gives its kind, and if ``weighted`` and it has any, two
    ``channel_weights``, checked first."""
    if not isinstance(raw, dict) or "kind" not in raw:
        _fail(f"{where} must be an object with a 'kind' key")
    names, kind = tuple(kinds), raw["kind"]
    if kind not in names:
        _fail(f"{where} kind must be one of {names}")
    params = kinds[kind]
    weighted = weighted and params
    keys = ("kind",) + params + (("channel_weights",) if weighted else ())
    _expect_keys(raw, dict.fromkeys(keys, True), where)
    if weighted:
        _number_list(raw["channel_weights"], f"{where} channel_weights", 2)
    for name in params:
        _PARAMETER_RULES[name](raw[name], f"{where} {name}")
    return dict(raw)


def _time_grid(raw_t_final, raw_dt) -> tuple[float, float]:
    """``(t_final, dt)`` with t_final a whole number of steps of dt.

    The grid rule is the simulator's (``sim.time_steps``); its
    ``InvalidTimeGrid`` is reported as a ``ScenarioError``.
    """
    t_final = _positive_number(raw_t_final, "t_final")
    dt = _positive_number(raw_dt, "dt")
    try:
        time_steps(t_final, dt)
    except InvalidTimeGrid as exc:
        _fail(str(exc))
    return t_final, dt


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; raises ``ScenarioError``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read scenario file {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"scenario file {path} is not valid JSON: {exc}")
    except ValueError:
        # json's int() refuses literals beyond Python's digit limit
        _fail(f"scenario file {path} holds an integer literal of more than "
              f"{sys.get_int_max_str_digits()} digits")
    except RecursionError:
        _fail(f"scenario file {path} nests arrays or objects too deeply")
    if not isinstance(raw, dict):
        _fail("scenario must be a JSON object")
    _expect_keys(raw, _TOP_KEYS, "scenario")
    if not (_is_int(raw["schema_version"])
            and raw["schema_version"] == SCHEMA_VERSION):
        _fail(f"schema_version must be the integer {SCHEMA_VERSION}")

    formulation = raw.get("formulation", "position-momentum")
    if formulation not in _FORMULATIONS:
        _fail(f"formulation must be one of {_FORMULATIONS}")
    flavor = raw["flavor"]
    if flavor not in _FLAVORS:
        _fail(f"flavor must be one of {_FLAVORS}")

    n = _positive_integer(raw["N"], "N")
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
    if not (_is_int(seed) and seed >= 0):
        _fail("seed must be a nonnegative integer")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out must be a string path")

    return Scenario(formulation=formulation, N=n, length=length,
                    rho=rho, T=t_arr, a=a_arr, b=b_arr,
                    P=_parse_P(raw["P"]), flavor=flavor, beta=beta,
                    input=_parse_kind(raw["input"], "input",
                                      sim._INPUT_PARAMETERS, weighted=True),
                    initial=_parse_kind(raw["initial"], "initial",
                                        wave1d._INITIAL_PARAMETERS),
                    t_final=t_final, dt=dt, seed=seed, out=out)


def build_system(sc: Scenario) -> WaveSystem:
    coeffs = WaveCoefficients(sc.N, sc.length, sc.rho, sc.T, sc.a, sc.b)
    return wave1d.assemble(coeffs)


def build_flavor_node(sc: Scenario, sys: WaveSystem,
                      op: BoundaryOperator) -> BoundaryNode:
    """Node of the scenario's flavor and P on ``op`` with the system M, D."""
    builder = (impedance_node if sc.flavor == node.IMPEDANCE
               else scattering_node)
    return builder(op, sc.P, sys.M_map, sys.D_map)


def build_node(sc: Scenario, sys: WaveSystem) -> BoundaryNode:
    """Node on the operator selected by the scenario formulation."""
    op = sys.op_A if sc.formulation == "position-momentum" else sys.op_strain
    return build_flavor_node(sc, sys, op)


def build_signal(sc: Scenario) -> InputSignal:
    """The scenario's input on two channels (weights zero for ``zero``)."""
    params = dict(sc.input)
    kind = params.pop("kind")
    weights = params.pop("channel_weights", (0.0, 0.0))
    return InputSignal(kind, weights=np.asarray(weights, dtype=float),
                       **{k: float(v) for k, v in params.items()})


def build_initial_state(sc: Scenario, sys: WaveSystem) -> np.ndarray:
    """Initial core state in the position-momentum coordinates."""
    return wave1d.initial_state(sys, **sc.initial)
