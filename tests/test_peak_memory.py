"""A run keeps only what it steps.

The node forms ``L_eff`` once, as a CSR array, when it is first read;
``StepSolver`` writes it into its own step matrix and scales it there, so
the two step matrices are a run's only dense copies;
``cli.run_scenario`` lets the assembled system go before the step is
factored.
"""

import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from passivebc import cli, sim, verify, wave1d
from passivebc.extension import generator_from_contraction
from passivebc.node import (BoundaryNode, impedance_node,
                            internal_wellposedness, scattering_node)
from passivebc.sim import InputSignal, StepSolver

from conftest import ROOT, random_wave_system

DT = 1e-3


@pytest.mark.parametrize("name, formulation", [
    ("damped_sine", "position-momentum"),
    ("damped_sine", "strain-momentum"),
    ("jet_standing_wave", "strain-momentum"),
    ("gauss_scattering", "position-momentum"),
])
def test_system_is_released_before_the_step_is_factored(
        name, formulation, monkeypatch, tmp_path, capsys):
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    doc.update(formulation=formulation, out=str(tmp_path / "run.csv"))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    systems, alive = [], []
    build = cli.build_system

    def tracked(sc):
        sys_ = build(sc)
        systems.append(weakref.ref(sys_))
        return sys_

    class Probe(StepSolver):
        def __init__(self, node, dt):
            alive.append(systems[0]() is not None)
            super().__init__(node, dt)

    monkeypatch.setattr(cli, "build_system", tracked)
    monkeypatch.setattr(sim, "StepSolver", Probe)
    assert cli.run_scenario(str(path)) == 0
    assert alive == [False]


def _damped_node(N, rng, build=impedance_node):
    return _damped_node_of(random_wave_system(N, rng), build)


def _damped_node_of(sys_, build=impedance_node):
    p = 0.6 * np.array([[0.6, -0.8], [0.8, 0.6]])
    return build(sys_.op_A, p, sys_.M_map, sys_.D_map)


@pytest.mark.parametrize("dt", [DT, -DT])
def test_step_solver_allocates_its_two_matrices(dt, rng):
    # behind and ahead, ext x ext doubles each, and one NumPy ufunc buffer
    # (np.getbufsize() doubles) for the copy of the C-ordered h into the
    # Fortran-ordered ahead: no copy of L_eff or of its momentum columns,
    # and no finiteness mask of ahead in _factor
    nd = _damped_node(256, rng)     # a mask of ahead would exceed 1 %
    assert nd.M_inv.nnz == len(nd.M_inv.diagonal())  # diagonal: in place
    StepSolver(nd, dt)              # LAPACK lookup and first-call caches
    ext = nd.op.ext_dim
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solver = StepSolver(nd, dt)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert solver._behind.shape == (ext, ext)
    assert peak <= 1.01 * (2 * 8 * ext * ext) + 8 * np.getbufsize()


def test_streamed_run_holds_its_step_matrices_and_one_budget(rng, tmp_path):
    # a 600-step run at N = 512 (ext_dim 1028) writes its CSV block by
    # block: past its two ext x ext step matrices it holds blocks of 15
    # states and their ledger rows, 4.2 BLOCK_BYTES at its peak; blocks of
    # 256 states held 56.8 BLOCK_BYTES
    sys_ = random_wave_system(512, rng)
    nd = _damped_node_of(sys_)
    z0 = wave1d.initial_state(sys_, "gauss")
    signal = InputSignal("sine", weights=np.array([1.0, -0.5]),
                         amplitude=0.3, frequency=2.0)

    def run(t_final):
        blocks = sim.simulate_blocks(nd, z0, signal, t_final, DT)
        return cli._write_csv_atomic(str(tmp_path / "run.csv"),
                                     cli.CSV_COLUMNS,
                                     map(cli._trajectory_table, blocks))
    run(2 * DT)       # the node's ledger factors and LAPACK lookups
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows = run(600 * DT)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    ext = nd.op.ext_dim
    assert rows == 601 and sim._block_steps(ext) == 15
    assert peak - 2 * 8 * ext * ext <= 6 * sim.BLOCK_BYTES, peak


def test_l_eff_forms_no_dense_array(rng):
    # sparse products of L, D and M^{-1}: O(nnz) bytes, far below one
    # dense core x n2 block (4.2 MB at N=512)
    nd = _damped_node(512, rng)
    op = nd.op
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        action = nd.L_eff
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * op.core.dim * op.core_blocks[1] / 32
    assert action.nnz <= op.L.nnz + nd.D.nnz


def test_jet_checks_form_no_dense_kernel_rows():
    # the kernel check forms B_y (I - A N^{-1} A^T W_Y) in row blocks; at
    # N = 1024 the three nx x dim_y arrays and the nx x nx solve of the
    # one-shot form peaked at 51.0 MB traced
    sys_ = wave1d.assemble(wave1d.constant_coefficients(1024))
    sys_.op_A, sys_.op_strain, sys_.jet
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        checks = verify._jet_checks(sys_, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= 8e6


def test_a_main_forms_one_core_square(rng):
    # L[:, :core] is added into L[:, core:] X in place; SciPy's CSR +
    # dense made a second core x core array (16.9 MB traced for an 8.4 MB
    # result at N=512)
    sys_ = random_wave_system(512, rng)
    g = generator_from_contraction(sys_.op_A, 0.6 * np.eye(2))
    g.A_main                        # first-call caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        a_main = g.A_main
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    l, core = sys_.op_A.L, sys_.op_A.core.dim
    assert a_main.tobytes() == (l[:, :core] + l[:, core:] @ g.X).tobytes()
    assert peak <= 1.05 * a_main.nbytes


def test_wellposedness_forms_one_square_next_to_the_generator(
        rng, monkeypatch):
    # sym(W gen) is formed in the array of W gen: W gen, its sum with its
    # transpose and the half held three core x core arrays next to gen
    # (25.3 MB traced for an 8.4 MB generator at N=512)
    sys_ = random_wave_system(512, rng)
    nd = impedance_node(sys_.op_A, 0.5 * np.eye(2), sys_.M_map, sys_.D_map)
    internal_wellposedness(nd)      # L_eff and first-call caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ok, gen = internal_wellposedness(nd)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 2.2 * gen.nbytes
    # the eigensolver reads the bytes of the whole symmetric part
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.append(a.copy()) or eigvalsh(a))
    internal_wellposedness(nd)
    wa = nd.state_space.gram_csr @ gen
    assert seen[0].tobytes() == (0.5 * (wa + wa.T)).tobytes()


def test_l_eff_is_not_a_field():
    assert "L_eff" not in {f.name for f in dataclasses.fields(BoundaryNode)}


@pytest.mark.parametrize("build", [impedance_node, scattering_node])
def test_l_eff_is_built_once_on_read(build, rng):
    nd = _damped_node(16, rng, build)
    assert "L_eff" not in nd.__dict__
    first = nd.L_eff
    assert nd.L_eff is first
    assert first.has_canonical_format
    assert not any(x.flags.writeable
                   for x in (first.data, first.indices, first.indptr))
    assert first.shape == (nd.op.core.dim, nd.op.ext_dim)


def test_a_run_steps_from_the_nodes_one_l_eff(rng, monkeypatch):
    # each step factor writes the node's CSR L_eff, formed once, into its
    # step matrix: a second run forms no second copy
    nd = _damped_node(16, rng)
    formed = []
    build = BoundaryNode.L_eff.func
    monkeypatch.setattr(BoundaryNode.L_eff, "func",
                        lambda node: formed.append(1) or build(node))
    signal = InputSignal("sine", weights=[1.0, 0.5], amplitude=0.3)
    for _ in range(2):
        traj = sim.simulate(nd, np.zeros(nd.op.core.dim), signal, 0.3, DT)
        assert traj.n_steps == 300
    assert formed == [1]
    h = (0.5 * DT) * nd.L_eff.toarray()
    h[:, :len(h)] += np.eye(len(h))
    assert StepSolver(nd, DT)._behind[:len(h)].tobytes() == h.tobytes()
