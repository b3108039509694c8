"""The jet reads a state or a block of one state per row.

``push_state``, ``pull_state``, ``ran_A_defect``, ``inner`` and ``norm``
give, for each row of a block, what they give for that row alone, within
the rounding bound of the products and solves that differ (a block is a
GEMM where a row is a GEMV).  A single state keeps the bytes of the
per-state transport.  ``jet-compare`` evaluates a whole block at once and
matches the per-row loop it replaced (kept here as the oracle) to 1e-12.
A push reads the factor map alone, so a strain-momentum ``simulate``
builds no jet and runs on a system whose normal matrix the jet's rank
gate refuses.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivebc import cli, wave1d
from passivebc.hilbert import inner, norm
from passivebc.jet import pull_state, push_state, ran_A_defect
from passivebc.scenario import (
    build_flavor_node,
    build_initial_state,
    build_signal,
    build_system,
    load_scenario,
)
from passivebc.sim import _block_steps, simulate

from conftest import ROOT, half_width, random_wave_system
from test_band_gates import product_bound
from test_normal_gram import count_normal_grams

EPS = np.finfo(float).eps


def per_state_push(jt, z):
    """The transport of one state before blocks: ``(A z1, z2)``."""
    nx = jt.A_iso.domain.dim
    return np.concatenate([jt.A_iso.matrix @ z[:nx], z[nx:]])


def per_state_coordinates(jt, w1):
    """z1 of one strain part before blocks, by the normal equations."""
    a, y = jt.A_iso.matrix, jt.A_iso.codomain
    return jt.normal_solve(a.T @ (w1 @ y.gram_csr))


def per_state_pull(jt, w):
    dim_y = jt.A_iso.codomain.dim
    return np.concatenate([per_state_coordinates(jt, w[:dim_y]),
                           w[dim_y:]])


def per_state_defect(jt, w1):
    v = w1 - jt.A_iso.matrix @ per_state_coordinates(jt, w1)
    return float(np.sqrt(max(
        v @ (v @ jt.A_iso.codomain.gram_csr), 0.0)))


def form_bound(x, w, y, b):
    """``2 (2n + 2b + 2) eps (|x| |W|) . |y|`` per row: twice the sum of
    ``gamma_{n+2b+1}`` of the product ``x W`` and ``gamma_n`` of its
    pairing with y (Higham, Accuracy and Stability, 2nd ed., sec. 3.1),
    a bound on the gap between two roundings of ``x_i^T W y_i``."""
    n = len(w)
    scale = np.einsum("...i,...i->...", np.abs(x) @ np.abs(w), np.abs(y))
    return 2 * (2 * n + 2 * b + 2) * EPS * scale


def root_gap(q_gap, total):
    """Bound on the gap between two computed roots ``sqrt(a)``,
    ``sqrt(b)`` summing to ``total``, for ``|a - b| <= q_gap``:
    ``|a - b| / (sqrt(a) + sqrt(b))``, at most ``sqrt(|a - b|)``, plus
    the roots' own rounding."""
    return (np.minimum(np.sqrt(q_gap), q_gap / np.maximum(total, 1e-300))
            + 2 * EPS * total)


def solve_gap_bound(jt, rhs_gap, z_a, z_b):
    """Bound on ``||z_a - z_b||`` for two solves on the jet's band
    Cholesky factor C (half-width b) of the normal matrix N whose
    right-hand sides are ``rhs_gap`` apart (2-norm).

    Each solve is exact for ``(C + dC1)(C + dC2)^T`` with ``|dCi| <=
    gamma_{b+1} |C|`` (Higham, Accuracy and Stability, 2nd ed., Thm 8.5),
    and ``|| |C||C^T| ||_2 <= (2b + 1) ||N||_2``, since each entry of the
    band is at most ``||N||`` by Cauchy-Schwarz; so ``||z_a - z_b|| <=
    ||N^{-1}|| rhs_gap + 2 (2b + 1) gamma_{b+1} kappa(N) (||z_a|| +
    ||z_b||)``, doubled for the terms of second order."""
    eigs = np.linalg.eigvalsh(jt.A_iso.normal_gram.toarray())
    b = len(jt.normal_factor) - 1
    gamma = (b + 1) * EPS / (1 - (b + 1) * EPS)
    sizes = np.linalg.norm(z_a, axis=-1) + np.linalg.norm(z_b, axis=-1)
    return 2 * (rhs_gap / eigs[0] + 2 * (2 * b + 1) * gamma
                * (eigs[-1] / eigs[0]) * sizes)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), k=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=24, k=1, seed=0)
@example(n=3, k=1, seed=1)     # N = 3: X_h's band is wide, 4b >= n
def test_block_rows_equal_the_rows_alone(n, k, seed):
    rng = np.random.default_rng(seed)
    sys_ = random_wave_system(n, rng)
    jt, a, y_space = sys_.jet, sys_.A_map.matrix.toarray(), sys_.Y
    ny, nx = a.shape
    z = rng.standard_normal((k, 2 * nx))
    w = rng.standard_normal((k, ny + nx))

    # a single state keeps the bytes of the per-state transport
    for zi, wi in zip(z, w):
        assert push_state(sys_.A_map, zi).tobytes() == \
            per_state_push(jt, zi).tobytes()
        assert pull_state(jt, wi).tobytes() == per_state_pull(jt, wi).tobytes()
        for value in (inner(y_space, wi[:ny], wi[:ny]),
                      norm(y_space, wi[:ny]), ran_A_defect(jt, wi[:ny])):
            assert np.ndim(value) == 0

    pushed = push_state(sys_.A_map, z)
    rows = np.array([push_state(sys_.A_map, zi) for zi in z])
    assert pushed.shape == rows.shape == (k, ny + nx)
    assert np.array_equal(pushed[:, ny:], z[:, nx:])
    assert (np.abs(pushed - rows)[:, :ny]
            <= product_bound(z[:, :nx], a.T, 0)).all()

    for space, x in ((y_space, w[:, :ny]), (sys_.op_A.core, z),
                     (sys_.op_A.core.blocks[0], z[:, :nx]),
                     (sys_.op_strain.core, w)):
        xs = x[::-1]
        got = inner(space, x, xs)
        want = [inner(space, xi, yi) for xi, yi in zip(x, xs)]
        assert got.shape == (k,)
        assert (np.abs(got - want)
                <= form_bound(x, space.gram, xs, half_width(space))).all()
        norms = norm(space, x), np.array([norm(space, xi) for xi in x])
        bound = root_gap(form_bound(x, space.gram, x, half_width(space)),
                         norms[0] + norms[1])
        assert (np.abs(norms[0] - norms[1]) <= bound).all()

    # the right-hand sides (w1 W_Y) A differ by the GEMM's rounding
    w1 = w[:, :ny]
    rhs_gap = np.linalg.norm(2 * (2 * ny + 2) * EPS * (
        np.abs(w1) @ np.abs(y_space.gram) @ np.abs(a)), axis=-1)
    pulled = pull_state(jt, w)
    rows = np.array([pull_state(jt, wi) for wi in w])
    assert pulled.shape == rows.shape == (k, 2 * nx)
    assert np.array_equal(pulled[:, nx:], w[:, ny:])
    z_gap = solve_gap_bound(jt, rhs_gap, pulled[:, :nx], rows[:, :nx])
    assert (np.linalg.norm(pulled - rows, axis=-1) <= z_gap).all()

    # the defect is the W_Y norm of v = w1 - A z1: the block's and the
    # rows' v differ by A times the solves' gap plus the GEMMs' rounding;
    # the squared norms then differ by at most that gap times the sum of
    # the norms, plus the rounding of the two forms
    root_w = np.sqrt(np.abs(y_space.gram).sum(axis=1).max())  # >= ||W||^.5
    z_top = np.maximum(np.abs(pulled), np.abs(rows))[:, :nx]
    v_gap = root_w * (np.linalg.norm(a, 2) * z_gap + np.linalg.norm(
        product_bound(z_top, a.T, 0), axis=-1))
    v = w1 - rows[:, :nx] @ a.T
    v_norm = root_w * np.linalg.norm(v, axis=-1) + v_gap
    q_gap = 2 * v_norm * v_gap + form_bound(v, y_space.gram, v,
                                            half_width(y_space))
    defect = ran_A_defect(jt, w1)
    want = np.array([ran_A_defect(jt, wi) for wi in w1])
    assert defect.shape == (k,)
    assert (np.abs(defect - want) <= root_gap(q_gap, defect + want)).all()


def scenario_file(tmp_path, name, **changes):
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    doc.update(out=str(tmp_path / f"{name}.csv"), **changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def per_row_jet_compare(path):
    """The rows ``(t, ||push z - w||, ran_A_defect(w1))`` of the
    per-row loop ``jet-compare`` ran before blocks, from whole runs."""
    sc = load_scenario(path)
    sys_ = build_system(sc)
    jt, dim_y = sys_.jet, sys_.Y.dim
    z0, signal = build_initial_state(sc, sys_), build_signal(sc)
    runs = [simulate(build_flavor_node(sc, sys_, op), start, signal,
                     sc.t_final, sc.dt)
            for op, start in ((sys_.op_A, z0),
                              (sys_.op_strain, per_state_push(jt, z0)))]
    nc_a, nc_b = sys_.op_A.core.dim, sys_.op_strain.core.dim
    return np.array([
        [t, np.linalg.norm(per_state_push(jt, z) - w),
         per_state_defect(jt, w[:dim_y])]
        for t, z, w in zip(runs[0].times, runs[0].states_ext[:, :nc_a],
                           runs[1].states_ext[:, :nc_b])])


@pytest.mark.parametrize("name, changes", [
    ("damped_sine", {"t_final": 0.3}),
    ("gauss_scattering", {"t_final": 0.3}),
    ("jet_standing_wave", {}),
    ("standing_wave", {"t_final": 0.3}),
    # 2k + 1 steps for k the steps of a block at the strain-momentum
    # ext_dim 3N + 4 = 100, which cuts both runs: the last block holds one
    # row
    ("damped_sine", {"t_final": 0.327}),
])
def test_jet_compare_matches_the_per_row_loop(name, changes, tmp_path,
                                              capsys):
    path = scenario_file(tmp_path, name, **changes)
    out = tmp_path / "jet.csv"
    assert cli.main(["jet-compare", "--scenario", path, "--out",
                     str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["jet-compare", "--scenario", path, "--out",
                     str(out)]) == 0
    assert out.read_bytes() == first
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    want = per_row_jet_compare(path)
    if changes.get("t_final") == 0.327:
        assert len(got) - 1 == 2 * _block_steps(100) + 1
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1:] - want[:, 1:]).max() <= 1e-12


STEEL = {"T": 2e11, "rho": 7850, "a": 1e3, "b": 10}


def test_strain_momentum_simulate_needs_no_jet(tmp_path, monkeypatch):
    # the jet's rank gate refuses this bar's normal matrix (smallest
    # eigenvalue 30 against about 1e12); a push reads A alone
    path = scenario_file(tmp_path, "gauss_scattering", coefficients=STEEL,
                         formulation="strain-momentum", t_final=0.05)
    built = []
    real = wave1d.build_jet
    monkeypatch.setattr(wave1d, "build_jet",
                        lambda A: built.append(A) or real(A))
    formed = count_normal_grams(monkeypatch)
    assert cli.main(["simulate", "--scenario", path]) == 0
    assert built == [] and formed == []
    run = np.loadtxt(tmp_path / "gauss_scattering.csv", delimiter=",",
                     skiprows=1)
    h, residual, slack = run[:, 1], run[1:, 8], run[1:, 9]
    assert h.max() > 1e11
    assert np.abs(residual + 0.5 * slack).max() <= 1e-10 * (1.0 + h.max())


@pytest.mark.parametrize("initial", [
    {"kind": "gauss", "center": 0.4, "width": 0.1},
    {"kind": "standing_wave", "k": 2}, {"kind": "zero"}])
def test_no_strain_momentum_simulate_builds_the_jet(initial, tmp_path,
                                                    monkeypatch):
    path = scenario_file(tmp_path, "jet_standing_wave", initial=initial,
                         formulation="strain-momentum", t_final=0.05)
    built = []
    monkeypatch.setattr(wave1d, "build_jet", built.append)
    assert cli.main(["simulate", "--scenario", path]) == 0
    assert built == []


def test_jet_compare_still_refuses_the_steel_bar(tmp_path, capsys):
    path = scenario_file(tmp_path, "gauss_scattering", coefficients=STEEL,
                         t_final=0.05)
    assert cli.main(["jet-compare", "--scenario", path]) == cli.EXIT_NUMERIC
    assert "RankDeficient" in capsys.readouterr().err
