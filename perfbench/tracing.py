"""Outside-in span tracing of one passivebc CLI run, and its per-layer metrics.

Run as a script, this module imports ``passivebc`` in a fresh interpreter,
replaces each public function listed in ``TRACED`` wherever a module of
the package (or NumPy/SciPy's ``linalg``) binds it, runs
``passivebc.cli.main`` on the given arguments and writes the spans as JSON
when the run ends::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- simulate \\
        --scenario s.json --out s.csv

A span records its name, start, end and parent; the spans of one run
share its run id, the base name of the spans file.  A span's self time is its
duration minus the time its children cover.  Library source is not
changed: the wrappers live only in the traced process.

The traced process also times its own phases: the package import, the
tracer's set-up (``install_s``), the root span ``cli.main`` and the
tracer's work after it (``post_s``: sizes and serialization).  With the
interpreter's start and exit, measured apart, these must account for
the wall clock the benchmark measured around the traced process
(``wall_gap``).  ``tracing_overhead_s`` is the tracer's own cost: its set-up
and post-run work plus the wrappers' cost inside the spans, estimated from
a calibrated per-call cost times the number of spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

ROOT = "cli.main"

# Span name -> (module, attribute).  A dotted attribute names a method.
# Besides the layers measured below, the CLI's direct callees are spans so
# that the self time of ``cli.run_scenario`` is its own row and CSV work.
TRACED = {
    "cli.run_scenario": ("passivebc.cli", "run_scenario"),
    "cli.verify_suite": ("passivebc.cli", "verify_suite"),
    "scenario.load_scenario": ("passivebc.scenario", "load_scenario"),
    "scenario.build_system": ("passivebc.scenario", "build_system"),
    "scenario.build_node": ("passivebc.scenario", "build_node"),
    "scenario.build_signal": ("passivebc.scenario", "build_signal"),
    "scenario.build_initial_state": ("passivebc.scenario",
                                     "build_initial_state"),
    "wave1d.assemble": ("passivebc.wave1d", "assemble"),
    "hilbert.make_space": ("passivebc.hilbert", "make_space"),
    "hilbert.helmholtz_projectors": ("passivebc.hilbert",
                                     "helmholtz_projectors"),
    "triplet.extend_adjoint": ("passivebc.triplet", "extend_adjoint"),
    "triplet.assemble_dual_pair": ("passivebc.triplet",
                                   "assemble_dual_pair"),
    "triplet.lift_second_order": ("passivebc.triplet", "lift_second_order"),
    "triplet.green_residual": ("passivebc.triplet", "green_residual"),
    "jet.build_jet": ("passivebc.jet", "build_jet"),
    "jet.push_state": ("passivebc.jet", "push_state"),
    "node.impedance_node": ("passivebc.node", "impedance_node"),
    "node.scattering_node": ("passivebc.node", "scattering_node"),
    "node.external_cayley": ("passivebc.node", "external_cayley"),
    "node.scattering_slack": ("passivebc.node", "scattering_slack"),
    "node.dual_gram": ("passivebc.node", "BoundaryNode.dual_gram"),
    "node.energy_split": ("passivebc.node", "BoundaryNode.energy_split"),
    "node.dissipated_power": ("passivebc.node",
                              "BoundaryNode.dissipated_power"),
    "extension.generator_from_contraction": (
        "passivebc.extension", "generator_from_contraction"),
    "extension.dissipativity_residual": ("passivebc.extension",
                                         "dissipativity_residual"),
    "extension.constraint_matrix": ("passivebc.extension",
                                    "constraint_matrix"),
    "verify.run_suite": ("passivebc.verify", "run_suite"),
    "sim.simulate": ("passivebc.sim", "simulate"),
    "sim.consistent_initialization": ("passivebc.sim",
                                      "consistent_initialization"),
    "sim.factor": ("passivebc.sim", "StepSolver.__init__"),
    "sim.step": ("passivebc.sim", "StepSolver.step"),
    "sim.balance_ledger": ("passivebc.sim", "balance_ledger"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.inv": ("numpy.linalg", "inv"),
    "scipy.linalg.svd": ("scipy.linalg", "svd"),
    "scipy.linalg.null_space": ("scipy.linalg", "null_space"),
    "scipy.linalg.eigvalsh": ("scipy.linalg", "eigvalsh"),
    "scipy.linalg.inv": ("scipy.linalg", "inv"),
}

# Per-layer metric -> (kind, span names).  "s" sums the durations of the
# outermost spans of the group, "self_s" sums self times, "calls" counts
# spans.  Other per-layer metrics are computed from the run's objects.
LAYER_METRICS = {
    "sim.balance_ledger.s": ("s", ["sim.balance_ledger"]),
    "node.scattering_slack.s": ("s", ["node.scattering_slack"]),
    "node.scattering_slack.calls": ("calls", ["node.scattering_slack"]),
    "node.dual_gram.calls": ("calls", ["node.dual_gram"]),
    "node.energy_split.calls": ("calls", ["node.energy_split"]),
    "node.dissipated_power.calls": ("calls", ["node.dissipated_power"]),
    "sim.step.s": ("s", ["sim.step"]),
    "sim.step.calls": ("calls", ["sim.step"]),
    "sim.factor.s": ("s", ["sim.factor"]),
    "sim.simulate.self_s": ("self_s", ["sim.simulate"]),
    "cli.write.s": ("self_s", ["cli.run_scenario"]),
    "scenario.load_scenario.s": ("s", ["scenario.load_scenario"]),
    "wave1d.assemble.s": ("s", ["wave1d.assemble"]),
    "hilbert.make_space.s": ("s", ["hilbert.make_space"]),
    "hilbert.make_space.calls": ("calls", ["hilbert.make_space"]),
    "hilbert.helmholtz_projectors.s": ("s", ["hilbert.helmholtz_projectors"]),
    "triplet.extend_adjoint.s": ("s", ["triplet.extend_adjoint"]),
    "triplet.assemble_dual_pair.s": ("s", ["triplet.assemble_dual_pair"]),
    "triplet.lift_second_order.s": ("s", ["triplet.lift_second_order"]),
    "triplet.green_residual.s": ("s", ["triplet.green_residual"]),
    "triplet.green_residual.calls": ("calls", ["triplet.green_residual"]),
    "jet.build_jet.s": ("s", ["jet.build_jet"]),
    "node.build.s": ("s", ["node.impedance_node", "node.scattering_node"]),
    "node.build.calls": ("calls", ["node.impedance_node",
                                   "node.scattering_node"]),
    "node.external_cayley.s": ("s", ["node.external_cayley"]),
    "node.external_cayley.calls": ("calls", ["node.external_cayley"]),
    "extension.generator_from_contraction.s": (
        "s", ["extension.generator_from_contraction"]),
    "extension.generator_from_contraction.calls": (
        "calls", ["extension.generator_from_contraction"]),
    "extension.dissipativity_residual.s": (
        "s", ["extension.dissipativity_residual"]),
    "extension.constraint_matrix.s": ("s", ["extension.constraint_matrix"]),
    "verify.run_suite.s": ("s", ["verify.run_suite"]),
    "linalg.svd.calls": ("calls", ["linalg.svd", "scipy.linalg.svd"]),
    "linalg.null_space.calls": ("calls", ["scipy.linalg.null_space"]),
    "linalg.eigvalsh.calls": ("calls", ["linalg.eigvalsh",
                                        "scipy.linalg.eigvalsh"]),
    "linalg.inv.calls": ("calls", ["linalg.inv", "scipy.linalg.inv"]),
}

# Every per-layer metric the traced run reports, in order, with its unit.
# Besides LAYER_METRICS: sizes computed from the run's objects, the CSV
# size, the fresh-import time of the package and the tracing overhead.
PER_LAYER = {name: ("count" if kind == "calls" else "s")
             for name, (kind, _) in LAYER_METRICS.items()}
PER_LAYER.update({
    "sim.states_bytes": "bytes",
    "sim.step_matrix.dim": "count",
    "sim.step_matrix.nnz": "count",
    "cli.csv_bytes": "bytes",
    "proc.import_s": "s",
    "tracing_overhead_s": "s",
})


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        self.sizes: dict[str, float] = {}
        self.simulated: list = []       # (node, dt) of each simulate call

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        span_name, start, end = self.span_name, self.start, self.end
        parent, stack = self.parent, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return traced

    def dump(self, run_id: str) -> dict:
        return {"run_id": run_id, "names": self.names,
                "span_name": self.span_name, "start": self.start,
                "end": self.end, "parent": self.parent, "sizes": self.sizes}


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "passivebc"
                                  or n.startswith("passivebc."))]


def install(rec: Recorder) -> None:
    """Rebind every traced function wherever the package looks it up.

    A function the package no longer has is skipped, so its metrics read
    0 instead of breaking the traced run after a refactor.
    """
    modules = _package_modules()
    for name, (mod_name, attr) in TRACED.items():
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if callable(getattr(cls, meth, None)):
                setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr, None)
        if not callable(original):
            continue
        wrapped = rec.wrap(name, original)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    _observe_simulate(rec)


def _observe_simulate(rec: Recorder) -> None:
    """Record the step-matrix node and the states array of ``simulate``.

    Only references are kept inside the run; the step matrix is built
    after the run ends so that its cost stays out of every span.
    """
    import passivebc.cli as cli

    traced = getattr(cli, "simulate", None)
    rec.sizes["sim.states_bytes"] = 0
    if traced is None:
        return

    @functools.wraps(traced)
    def observed(node, z_core0, signal, t_final, dt):
        traj = traced(node, z_core0, signal, t_final, dt)
        rec.simulated.append((node, dt))
        states = getattr(traj, "states_ext", None)
        if states is not None:
            rec.sizes["sim.states_bytes"] += int(states.nbytes)
        return traj
    cli.simulate = observed


def _step_matrix_sizes(rec: Recorder) -> None:
    import numpy as np

    def dense(m):
        return m.toarray() if hasattr(m, "toarray") else np.asarray(m)

    dim = nnz = 0
    for node, dt in rec.simulated:
        ahead = np.vstack([dense(node.op.iota) - 0.5 * dt * dense(node.L_eff),
                           dense(node.G_map)])
        dim += ahead.shape[0]
        nnz += int(np.count_nonzero(ahead))
    rec.sizes["sim.step_matrix.dim"] = dim
    rec.sizes["sim.step_matrix.nnz"] = nnz


def _wrapper_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, from a no-op timed both ways."""
    def noop():
        return None
    wrapped = Recorder().wrap("noop", noop)
    clock = time.perf_counter
    best = []
    for fn in (noop, wrapped):
        t0 = clock()
        for _ in range(calls):
            fn()
        best.append(clock() - t0)
    return max(best[1] - best[0], 0.0) / calls


def trace_main(spans_path: str, cli_args: list[str]) -> int:
    clock = time.perf_counter
    t0 = clock()
    import passivebc
    t1 = clock()
    rec = Recorder()
    install(rec)
    root = rec.wrap(ROOT, passivebc.cli.main)
    t2 = clock()
    code = root(cli_args)
    t3 = clock()
    _step_matrix_sizes(rec)
    rec.sizes["proc.import_s"] = t1 - t0
    wrapper_s = _wrapper_cost() * len(rec.start)
    body = json.dumps(rec.dump(os.path.basename(spans_path)))
    phases = {"import_s": t1 - t0, "install_s": t2 - t1,
              "post_s": clock() - t3, "wrapper_s": wrapper_s}
    # The phases are known only once the spans are serialized.
    with open(spans_path, "w") as fh:
        fh.write('{"phases": ' + json.dumps(phases) + ', "trace": ' + body
                 + "}")
    return code


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark process)

def self_times(spans: dict) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    own = list(dur)
    for sid, p in enumerate(spans["parent"]):
        if p >= 0:
            own[p] -= dur[sid]
    return own


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer totals, counts and self times of one traced run."""
    names = spans["names"]
    span_name = [names[i] for i in spans["span_name"]]
    parent = spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for sid, name in enumerate(span_name):
        by_name.setdefault(name, []).append(sid)

    out = {}
    for metric, (kind, group) in LAYER_METRICS.items():
        ids = [sid for name in group for sid in by_name.get(name, [])]
        if kind == "calls":
            out[metric] = len(ids)
        elif kind == "self_s":
            out[metric] = sum(own[i] for i in ids)
        else:
            members = set(group)
            out[metric] = sum(end[i] - start[i] for i in ids
                              if not _inside(i, members, span_name, parent))
    out.update(spans["sizes"])
    return out


def _inside(sid: int, members: set, span_name: list, parent: list) -> bool:
    p = parent[sid]
    while p >= 0:
        if span_name[p] in members:
            return True
        p = parent[p]
    return False


def overhead(phases: dict) -> float:
    """The tracer's own cost in a traced run, in seconds."""
    return phases["install_s"] + phases["post_s"] + phases["wrapper_s"]


def wall_gap(trace: dict, phases: dict, wall_s: float,
             interpreter_s: float) -> float:
    """Traced wall minus what the run's phases and spans account for.

    ``interpreter_s`` is the wall clock of an interpreter's start and of
    its exit with the package loaded.  The root span must be the only root and be ``cli.main``; if not,
    the gap is infinite.
    """
    names = trace["names"]
    roots = [i for i, p in enumerate(trace["parent"]) if p < 0]
    if len(roots) != 1 or names[trace["span_name"][roots[0]]] != ROOT:
        return float("inf")
    r = roots[0]
    root_s = trace["end"][r] - trace["start"][r]
    return wall_s - (interpreter_s + phases["import_s"] + phases["install_s"]
                     + root_s + phases["post_s"])


if __name__ == "__main__":
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracing.py SPANS.json -- <passivebc CLI args>")
    sys.exit(trace_main(argv[0], argv[2:]))
