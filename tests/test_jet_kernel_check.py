"""``verify``'s ``jet_kernel_annihilated`` check, taken over row blocks.

The check certifies that B_ext on Y annihilates ker A*, so that the
strain-momentum form extends off ran A.  It forms ``B_y (I - A N^{-1} A^T
W_Y)`` a block of ``verify._KERNEL_BLOCK`` rows at a time; a row's entries
do not depend on its block, so the blocked residual is the one-shot one
up to the order in which the norm is summed.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivebc import verify, wave1d
from passivebc.hilbert import LinearMap
from passivebc.scenario import load_scenario

from conftest import ROOT

BLOCK = verify._KERNEL_BLOCK


def one_shot_residual(jt, b_ext):
    """The residual with every row of B_y in one dense nx x dim_y array."""
    a, y_space = jt.A_iso.matrix, jt.A_iso.codomain
    b_y = b_ext[:, :y_space.dim]
    solved = jt.normal_solve((b_y @ a).T.toarray())
    rows = b_y.toarray() - solved.T @ (a.T @ y_space.gram_csr)
    return np.linalg.norm(rows) / (1.0 + np.linalg.norm(b_ext.data))


def test_a_row_off_the_annihilator_fails_the_check(monkeypatch):
    # jet_standing_wave has N = 32, nx = 33 = BLOCK + 1: the row added to
    # B_y's last row is alone in the last block.  v A = 0 (v^T = W_Y k
    # for k in ker A*, W_Y-orthogonal to ran A), so the projector keeps v
    # and the residual is ||v|| / (1 + ||B_ext + v||).
    sc = load_scenario(ROOT / "scenarios" / "jet_standing_wave.json")
    assert sc.N + 1 == BLOCK + 1
    build = verify.build_system
    added = {}

    def build_faulty(sc):
        sound = build(sc)
        sound.op_A, sound.op_strain, sound.jet     # from the sound pair
        dp = sound.dual_pair
        a = dp.A.matrix.toarray()
        v = scipy.linalg.null_space(a.T)[:, 0]
        b = dp.B_ext.matrix.toarray()
        b[-1, :a.shape[0]] += v
        added.update(norm=np.linalg.norm(v), scale=np.linalg.norm(b))
        object.__setattr__(sound, "dual_pair", dataclasses.replace(
            dp, B_ext=LinearMap(b, dp.B_ext.domain, dp.B_ext.codomain)))
        return sound

    monkeypatch.setattr(verify, "build_system", build_faulty)
    checks = {c.name: c for c in verify.run_suite(sc, "jet")}
    kernel = checks.pop("jet_kernel_annihilated")
    assert not kernel.passed
    assert kernel.residual == pytest.approx(
        added["norm"] / (1.0 + added["scale"]), rel=1e-9)
    assert all(c.passed for c in checks.values())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3 * BLOCK), seed=st.integers(0, 2 ** 32 - 1),
       perturbed=st.booleans())
@example(n=BLOCK - 2, seed=0, perturbed=False)    # nx below a multiple
@example(n=BLOCK - 1, seed=1, perturbed=True)     # nx equal to one
@example(n=BLOCK, seed=2, perturbed=True)         # nx one more
@example(n=2 * BLOCK, seed=3, perturbed=False)
def test_blocked_residual_is_the_one_shot_residual(n, seed, perturbed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2))
    sys_ = wave1d.assemble(wave1d.random_coefficients(n, rng),
                           boundary_gram=m @ m.T + 0.1 * np.eye(2))
    b_ext = sys_.dual_pair.B_ext.matrix
    if perturbed:   # O(1) rows off the annihilator, in every block
        b_ext = scipy.sparse.csr_array(
            b_ext + rng.standard_normal(b_ext.shape))
    got = verify._kernel_residual(sys_.jet, b_ext)
    want = one_shot_residual(sys_.jet, b_ext)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
