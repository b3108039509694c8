"""One normal Gram per factor map, and one Green residual per operator.

The factor map forms ``A^T W_Y A`` once, as a CSR array
(``LinearMap.normal_gram``): the lift's core Gram X_h holds it, the jet
factors it by its band and ``verify`` reads it through both.  The jet's banded
solve must agree with a dense solve of the normal equations.  A boundary
operator keeps the Green residual its realization gate evaluated
(``BoundaryOperator.residual``), which ``verify`` reads again.
``cli.jet_compare`` lets the assembled system go before its two runs
factor their steps.
"""

import json
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import passivebc
from passivebc import cli, sim, triplet, verify
from passivebc.hilbert import LinearMap, make_space
from passivebc.jet import build_jet, pull_state, push_state
from passivebc.scenario import load_scenario
from passivebc.sim import StepSolver
from passivebc.triplet import BoundaryOperator, green_residual

from conftest import ROOT, half_width, random_wave_system, wave_system
from test_triplet import synthetic_two_block_pair

SCENARIOS = ("damped_sine", "gauss_scattering", "jet_standing_wave",
             "standing_wave")


def scenario_file(tmp_path, name, **changes):
    """A bundled scenario with ``changes`` applied, written to tmp_path."""
    doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    doc.update(out=str(tmp_path / "run.csv"), **changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def count_normal_grams(monkeypatch) -> list:
    """Record each factor map whose normal band is formed."""
    formed = []
    form = LinearMap.normal_gram.func

    def counted(self):
        formed.append(self)
        return form(self)
    prop = cached_property(counted)
    prop.__set_name__(LinearMap, "normal_gram")
    monkeypatch.setattr(LinearMap, "normal_gram", prop)
    return formed


@pytest.mark.parametrize("name", SCENARIOS)
def test_verify_forms_the_normal_gram_once(name, monkeypatch, tmp_path,
                                           capsys):
    formed = count_normal_grams(monkeypatch)
    assert cli.main(["verify", "--scenario",
                     scenario_file(tmp_path, name)]) == 0
    assert len(formed) == 1
    assert "all 13 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["damped_sine", "jet_standing_wave"])
def test_jet_compare_forms_the_normal_gram_once(name, monkeypatch,
                                                tmp_path):
    formed = count_normal_grams(monkeypatch)
    path = scenario_file(tmp_path, name, t_final=0.05)
    assert cli.main(["jet-compare", "--scenario", path]) == 0
    assert len(formed) == 1


@pytest.mark.parametrize("N", [1, 4, 33])
def test_lift_and_jet_read_one_band(N, rng):
    sys_ = random_wave_system(N, rng)
    band = sys_.A_map.normal_gram
    assert not any(x.flags.writeable
                   for x in (band.data, band.indices, band.indptr))
    assert sys_.A_map.normal_gram is band
    x_h = sys_.op_A.core.blocks[0]
    assert x_h.gram.tobytes() == band.toarray().tobytes()
    factor = sys_.jet.normal_factor
    b = half_width(x_h)
    assert factor.shape == (b + 1, N + 1)
    c = np.zeros((N + 1, N + 1))
    for k in range(b + 1):
        c[np.arange(k, N + 1), np.arange(N + 1 - k)] = factor[k, :N + 1 - k]
    assert np.abs(c @ c.T - band.toarray()).max() <= \
        1e-12 * np.abs(band.data).max()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_normal_gram_is_the_dense_product_to_roundoff(n, seed):
    # a sparse product: each entry sums at most three terms, so it is
    # within 1e-15 of |A|^T |W_Y| |A| of the dense GEMM's entry
    sys_ = random_wave_system(n, np.random.default_rng(seed))
    a, w_y = sys_.A_map.matrix.toarray(), sys_.Y.gram
    gemm = a.T @ w_y @ a
    want = 0.5 * (gemm + gemm.T)
    scale = np.abs(a).T @ np.abs(w_y) @ np.abs(a)
    got = sys_.A_map.normal_gram.toarray()
    assert (np.abs(got - want) <= 1e-15 * scale).all()
    assert np.array_equal(got, got.T)


def test_normal_factor_is_banded_at_scale():
    # a dense factor would hold 2049^2 entries (33.6 MB)
    jt = wave_system(2048).jet
    assert jt.normal_factor.shape == (2, 2049)
    assert jt.normal_factor.size == 2 * 2049


def orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 14), extra=st.integers(0, 5), banded=st.booleans(),
       diagonal_w=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_normal_solve_matches_dense_normal_equations(nx, extra, banded,
                                                     diagonal_w, seed):
    # injective A with singular values in [0.5, 2] (full normal Gram) or
    # a diagonally dominant lower bidiagonal one (banded normal Gram), on
    # a diagonal or tridiagonal W_Y
    rng = np.random.default_rng(seed)
    ny = nx + extra
    if banded:
        a = (np.eye(ny, nx) * rng.uniform(1.0, 2.0, nx)
             + np.eye(ny, nx, -1) * rng.uniform(-0.5, 0.5, nx))
    else:
        s = np.zeros((ny, nx))
        s[np.arange(nx), np.arange(nx)] = rng.uniform(0.5, 2.0, nx)
        a = orthogonal(rng, ny) @ s @ orthogonal(rng, nx)
    w_y = np.diag(rng.uniform(2.0, 3.0, ny))
    if not diagonal_w:
        off = rng.uniform(-0.5, 0.5, ny - 1)
        w_y += np.diag(off, 1) + np.diag(off, -1)
    x_space = make_space(nx, np.diag(rng.uniform(0.5, 2.0, nx)), "X")
    jt = build_jet(LinearMap(a, x_space, make_space(ny, w_y, "Y")))
    normal = a.T @ w_y @ a
    rows, cols = np.nonzero(normal)
    assert jt.normal_factor.shape == (np.abs(rows - cols).max() + 1, nx)
    for rhs in (rng.standard_normal(nx), rng.standard_normal((nx, 3))):
        want = np.linalg.solve(normal, rhs)
        got = jt.normal_solve(rhs)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    z = rng.standard_normal(2 * nx)
    back = pull_state(jt, push_state(jt.A_iso, z))
    assert np.linalg.norm(back - z) <= 1e-12 * np.linalg.norm(z)


def test_residual_is_the_green_residual(rng):
    sys_ = random_wave_system(9, rng)
    dp = synthetic_two_block_pair(rng)
    ops = [sys_.op_A, sys_.op_strain]
    ops += [triplet.lift_second_order(dp), triplet.strain_momentum(dp)]
    for op in ops:
        assert "residual" in op.__dict__      # read by the realize gate
        assert op.residual == green_residual(op)
    # a hand-built operator reports only a residual evaluated on it
    op = ops[0]
    bad = BoundaryOperator(op.core, op.L, op.Gamma0, 2.0 * op.Gamma1,
                           op.bspace)
    assert "residual" not in bad.__dict__
    assert bad.residual == green_residual(bad) > 1e-6


@pytest.mark.parametrize("name", SCENARIOS)
def test_gate_and_verify_share_one_green_residual(name, monkeypatch,
                                                  tmp_path):
    # every binding of green_residual in the package is counted
    evaluated = []
    for module in (passivebc, triplet, verify):
        real = getattr(module, "green_residual", None)
        if real is not None:
            monkeypatch.setattr(
                module, "green_residual",
                lambda op, real=real: evaluated.append(op) or real(op))
    sc = load_scenario(scenario_file(tmp_path, name))
    checks = {c.name: c for c in verify.run_suite(sc, "all")}
    assert len(evaluated) == 2
    lift, strain = evaluated
    assert lift.core_blocks[0] == lift.core_blocks[1]
    assert checks["green_identity"].residual == lift.residual
    assert checks["green_identity_jet_target"].residual == strain.residual


def test_jet_compare_releases_the_system_before_the_step_is_factored(
        monkeypatch, tmp_path):
    path = scenario_file(tmp_path, "jet_standing_wave", t_final=0.05)
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
    assert cli.jet_compare(path) == 0
    assert alive == [False, False]

