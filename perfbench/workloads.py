"""Seeded scenario generator for the passivebc benchmark workloads.

Each workload is one scenario JSON file plus the CLI command that consumes
it.  The files depend only on the workload name and the seed, so the same
seed gives byte-identical inputs.  Coefficient fields follow the
distribution of ``wave1d.random_coefficients`` (log-uniform in [0.5, 2]
for rho, T and a; uniform in [0, 1] for b), drawn here with NumPy so that
the inputs do not change when the library does.  The boundary contraction
P is a Gaussian 2x2 matrix scaled to dual norm 0.6; the boundary Gram is
the identity, so the dual norm is the largest singular value.

To inspect the inputs of a seed::

    python3 perfbench/workloads.py --seed 1 --out scenarios-seed1
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
P_NORM = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "simulate" or "verify"
    N: int
    flavor: str
    dt: float
    n_steps: int          # time-grid length of the timed run
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("long-run", "simulate", N=128, flavor="scattering",
                 dt=1e-3, n_steps=20000,
                 why="simulate N=128, scattering, 20000 steps: step loop, "
                     "energy ledger and CSV write dominate; assembly is a "
                     "few percent"),
        Workload("wide-grid", "simulate", N=512, flavor="impedance",
                 dt=1e-3, n_steps=200,
                 why="simulate N=512, impedance, 200 steps: dense assembly, "
                     "jet and node build dominate; the step loop is short"),
        Workload("verify-suite", "verify", N=192, flavor="scattering",
                 dt=1e-3, n_steps=1,
                 why="verify --suite all at N=192: 13 property checks reuse "
                     "wave1d/node without stepping (61 "
                     "generator_from_contraction calls)"),
    )
}


def _log_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(0.5), math.log(2.0), size))


def scenario(name: str, seed: int, n_steps: int | None = None) -> dict:
    """Scenario dict for a workload; ``n_steps`` overrides its grid length.

    The set-up run uses ``n_steps=1`` (t_final = dt) on the same system.
    """
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    n = w.N
    rho = _log_uniform(rng, n + 1)
    tension = _log_uniform(rng, n)
    a = _log_uniform(rng, n + 1)
    b = rng.uniform(0.0, 1.0, n + 1)
    raw = rng.standard_normal((2, 2))
    p = raw * (P_NORM / np.linalg.norm(raw, 2))
    signal = {"kind": "sine",
              "amplitude": float(rng.uniform(0.2, 0.5)),
              "frequency": float(rng.uniform(0.5, 2.0)),
              "channel_weights": [1.0, float(rng.uniform(-1.0, 1.0))]}
    initial = {"kind": "gauss", "center": float(rng.uniform(0.3, 0.7)),
               "width": float(rng.uniform(0.05, 0.15))}
    n_steps = w.n_steps if n_steps is None else n_steps
    return {
        "schema_version": 1,
        "formulation": "position-momentum",
        "N": n,
        "length": 1.0,
        "coefficients": {"rho": rho.tolist(), "T": tension.tolist(),
                         "a": a.tolist(), "b": b.tolist()},
        "P": p.tolist(),
        "flavor": w.flavor,
        "beta": 1.0,
        "input": signal,
        "initial": initial,
        "t_final": n_steps * w.dt,
        "dt": w.dt,
        "seed": int(rng.integers(0, 2**31)),
    }


def write_scenario(name: str, seed: int, path: Path,
                   n_steps: int | None = None) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scenario(name, seed, n_steps), indent=1)
                    + "\n")
    return path


def write_all(seed: int, directory: Path) -> dict[str, Path]:
    """Write the three full-length scenario files for a seed."""
    return {name: write_scenario(name, seed, directory / f"{name}.json")
            for name in WORKLOADS}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Write the workloads' scenario files for a seed.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for <workload>.json")
    args = parser.parse_args()
    for path in write_all(args.seed, args.out).values():
        print(path)
