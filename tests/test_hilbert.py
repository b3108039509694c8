
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passivebc import hilbert
from passivebc.errors import (
    NonFiniteValue,
    NonPositiveGram,
    NonSymmetricGram,
    NotALift,
    RankDeficient,
    ShapeMismatch,
)
from passivebc.hilbert import (
    ContractionParam,
    LinearMap,
    adjoint,
    check_dissipative,
    contraction_norm,
    dual_space,
    euclidean_space,
    inner,
    make_space,
    riesz,
)

from passivebc.jet import build_jet, pull_state, push_state, ran_A_defect
from passivebc.triplet import (
    assemble_dual_pair,
    extend_adjoint,
    lift_second_order,
)

from conftest import wave_system


class TestMakeSpace:
    def test_identity_gram(self):
        sp = make_space(2, np.eye(2), "X")
        assert sp.dim == 2 and sp.eig_min == pytest.approx(1.0)

    def test_diagonal_gram(self):
        sp = make_space(2, np.diag([2.0, 3.0]), "Y")
        assert sp.eig_min == pytest.approx(2.0)
        assert sp.eig_max == pytest.approx(3.0)

    def test_indefinite_gram_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are -1 and 3
        with pytest.raises(NonPositiveGram) as info:
            make_space(2, [[1.0, 2.0], [2.0, 1.0]], "bad")
        assert info.value.min_eig == pytest.approx(-1.0, abs=1e-12)
        assert info.value.max_eig == pytest.approx(3.0, abs=1e-12)

    def test_relative_gate_reports_both_eigenvalues(self):
        # both eigenvalues are positive; the gate is relative to the largest
        with pytest.raises(NonPositiveGram) as info:
            make_space(2, np.diag([2.0, 4e12]), "stiff")
        assert info.value.min_eig == 2.0 and info.value.max_eig == 4e12
        assert str(info.value) == (
            "gram of space 'stiff' is not positive definite (smallest "
            "eigenvalue 2.000e+00 is at most 1e-12 times the largest, "
            "4.000e+12)")

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(NonSymmetricGram):
            make_space(2, [[1.0, 0.1], [0.0, 1.0]], "bad")

    def test_huge_asymmetric_gram_rejected(self):
        # the Frobenius norms of g and g - g^T overflow at entries near
        # 1e200 when summed as squares; the gate takes them by BLAS dnrm2
        with pytest.raises(NonSymmetricGram):
            make_space(2, [[1e200, 1e200], [0.0, 1e200]], "W")
        sp = make_space(2, [[1e200, 5e199], [5e199, 1e200]], "W")
        assert sp.eig_min == pytest.approx(5e199)

    def test_gram_is_frozen(self):
        sp = make_space(2, np.eye(2), "X")
        with pytest.raises(ValueError):
            sp.gram[0, 0] = 5.0


@st.composite
def spd_grams(draw):
    """Random SPD Gram: diagonal, banded (half-width 1 to 3) or dense.

    A banded Gram is ``B^T B + I/10`` with B upper triangular of the same
    half-width, so it is SPD with exactly that band; sizes reach past four
    times the half-width, where ``make_space`` takes the banded route.  The
    shift keeps every Gram clear of the positivity gate, which the
    near-singular test probes on its own.
    """
    kind = draw(st.sampled_from(["diagonal", "banded", "dense"]))
    half = draw(st.integers(1, 3))
    n = draw(st.integers(half + 1 if kind == "banded" else 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        return np.diag(np.exp(rng.uniform(-6.0, 6.0, n)))
    if kind == "banded":
        b = np.diag(rng.uniform(0.2, 3.0, n))
        for k in range(1, half + 1):
            b += np.diag(rng.uniform(-2.0, 2.0, n - k), k)
        return b.T @ b + 0.1 * np.eye(n)
    c = rng.standard_normal((n, n))
    return c @ c.T + 0.1 * np.eye(n)


def _spectrum(g):
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    return eigs[0], eigs[-1]


@settings(max_examples=50, deadline=None)
@given(spd_grams(), st.integers(0, 2**32 - 1))
def test_symmetrized_gram_is_the_mean_with_its_transpose(g, seed):
    # halving before the sum is exact in the normal range, so Grams keep
    # the bytes of 0.5 (g + g^T)
    noise = np.random.default_rng(seed).standard_normal(g.shape)
    g = g + 1e-14 * np.abs(g).max() * noise
    assert make_space(len(g), g, "W").gram.tobytes() == \
        (0.5 * (g + g.T)).tobytes()


class TestStructuredEigenvalueBounds:
    """``make_space`` bounds against dense ``eigvalsh``, relative to the
    largest eigenvalue (the Gram's scale)."""

    @settings(max_examples=150, deadline=None)
    @given(spd_grams())
    def test_bounds_match_eigvalsh(self, g):
        lo, hi = _spectrum(g)
        sp = make_space(len(g), g, "W")
        assert abs(sp.eig_min - lo) <= 1e-12 * hi
        assert abs(sp.eig_max - hi) <= 1e-12 * hi

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(0.0, 1e-13))
    def test_near_singular_rejected(self, g, rel):
        # Shift the spectrum to [rel, 1 + rel] (hi - lo); a clustered
        # spectrum leaves only roundoff after the shift, so it is skipped.
        lo, hi = _spectrum(g)
        assume(len(g) == 1 or hi - lo >= 0.1 * hi)
        shifted = g - (lo - rel * (hi - lo)) * np.eye(len(g))
        with pytest.raises(NonPositiveGram):
            make_space(len(g), shifted, "W")

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(1e-3, 1.0))
    def test_indefinite_rejected_with_smallest_eigenvalue(self, g, frac):
        lo, hi = _spectrum(g)
        shifted = g - (lo + frac * hi) * np.eye(len(g))
        ref_lo, ref_hi = _spectrum(shifted)
        with pytest.raises(NonPositiveGram) as info:
            make_space(len(g), shifted, "W")
        scale = max(abs(ref_lo), abs(ref_hi))
        assert abs(info.value.min_eig - ref_lo) <= 1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(spd_grams(), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.data())
    def test_non_finite_rejected(self, g, bad, data):
        i = data.draw(st.integers(0, len(g) - 1))
        j = data.draw(st.integers(0, len(g) - 1))
        g = g.copy()
        g[i, j] = g[j, i] = bad
        with pytest.raises(NonFiniteValue):
            make_space(len(g), g, "W")


class TestAdjoint:
    def test_euclidean_transpose(self):
        sp = euclidean_space(2, "X")
        f = LinearMap(np.array([[0.0, 1.0], [0.0, 0.0]]), sp, sp)
        assert np.array_equal(adjoint(f).matrix,
                              np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_weighted_identity(self):
        dom = make_space(2, np.diag([2.0, 1.0]), "X")
        cod = euclidean_space(2, "Y")
        f = LinearMap(np.eye(2), dom, cod)
        expected = np.diag([0.5, 1.0])
        assert np.allclose(adjoint(f).matrix, expected, atol=1e-14)
        # pairing identity on basis vectors
        for i in range(2):
            for j in range(2):
                lhs = inner(cod, f.matrix[:, i], np.eye(2)[:, j])
                rhs = inner(dom, np.eye(2)[:, i],
                            adjoint(f).matrix[:, j])
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_involution(self, rng):
        dom = make_space(3, np.diag([2.0, 0.5, 1.5]), "X")
        cod = make_space(2, [[2.0, 0.3], [0.3, 1.0]], "Y")
        f = LinearMap(rng.standard_normal((2, 3)), dom, cod)
        assert np.allclose(adjoint(adjoint(f)).matrix, f.matrix,
                           atol=1e-13)

    def test_pairing_identity_random(self, rng):
        dom = make_space(4, np.diag([1.0, 2.0, 3.0, 0.5]), "X")
        cod = make_space(3, [[2.0, 0.2, 0.0], [0.2, 1.0, 0.1],
                             [0.0, 0.1, 3.0]], "Y")
        f = LinearMap(rng.standard_normal((3, 4)), dom, cod)
        fs = adjoint(f)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(3)
            gap = abs(inner(cod, f(x), y) - inner(dom, x, fs(y)))
            assert gap <= 1e-10 * (1.0 + np.linalg.norm(x)
                                   * np.linalg.norm(y))


class TestRiesz:
    def test_identity(self):
        sp = euclidean_space(2, "X")
        assert np.array_equal(riesz(sp).matrix, np.eye(2))

    def test_diagonal_and_dual_gram(self):
        sp = make_space(2, np.diag([2.0, 3.0]), "X")
        r = riesz(sp)
        assert np.allclose(r.matrix, np.diag([2.0, 3.0]))
        assert np.allclose(r.codomain.gram, np.diag([0.5, 1.0 / 3.0]))

    def test_pairing_reproduces_norm(self, rng):
        sp = make_space(3, [[2.0, 0.4, 0.0], [0.4, 1.0, 0.2],
                            [0.0, 0.2, 5.0]], "X")
        r = riesz(sp)
        for _ in range(100):
            x = rng.standard_normal(3)
            # Euclidean pairing of the covariant image with x
            assert float(r(x) @ x) == pytest.approx(
                inner(sp, x, x), rel=1e-10, abs=1e-10)
            # dual-gram norm of the image equals the primal norm
            assert float(r(x) @ r.codomain.gram @ r(x)) == pytest.approx(
                inner(sp, x, x), rel=1e-10, abs=1e-10)


def _dual_norm_sweep(P, space, samples=20000):
    """Independent oracle: sup of the dual-norm ratio over a dense sweep."""
    w_inv = np.linalg.inv(space.gram)
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    best = 0.0
    for t in thetas:
        v = np.array([np.cos(t), np.sin(t)])
        pv = P @ v
        best = max(best, np.sqrt((pv @ w_inv @ pv) / (v @ w_inv @ v)))
    return best


class TestContractionNorm:
    def test_scalar_scaling(self):
        sp = euclidean_space(2, "G")
        assert contraction_norm(0.5 * np.eye(2), sp) == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 1)])
    def test_wrong_shape_is_shape_mismatch(self, shape):
        sp = euclidean_space(2, "G")
        p = np.full(shape, 0.1)
        with pytest.raises(ShapeMismatch, match=r"P must be 2x2, got \("):
            contraction_norm(p, sp)
        with pytest.raises(ShapeMismatch, match="P must be 2x2"):
            ContractionParam.from_matrix(p, sp)

    def test_weighted_nilpotent(self):
        # W = diag(4, 1): W^{-1/2} P W^{1/2} = [[0, 1/2], [0, 0]]
        sp = make_space(2, np.diag([4.0, 1.0]), "G")
        P = np.array([[0.0, 1.0], [0.0, 0.0]])
        val = contraction_norm(P, sp)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert val == pytest.approx(_dual_norm_sweep(P, sp), abs=1e-6)

    def test_jordan_block_expands(self):
        sp = euclidean_space(2, "G")
        P = np.array([[1.0, 1.0], [0.0, 1.0]])
        val = contraction_norm(P, sp)
        golden = 0.5 * (1.0 + np.sqrt(5.0))
        assert val == pytest.approx(golden, abs=1e-12)
        assert val > 1.0
        assert val == pytest.approx(_dual_norm_sweep(P, sp), abs=1e-6)

    def test_invariant_under_dual_unitary_conjugation(self, rng):
        sp = make_space(2, [[3.0, 0.5], [0.5, 1.0]], "G")
        w_half, w_inv_half = hilbert._sqrt_and_inv_sqrt(sp.gram)
        P = rng.standard_normal((2, 2))
        base = contraction_norm(P, sp)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            u = w_half @ q @ w_inv_half  # unitary on the dual space
            assert contraction_norm(u @ P @ np.linalg.inv(u), sp) == \
                pytest.approx(base, abs=1e-10)


class TestCheckDissipative:
    def test_zero(self):
        sp = euclidean_space(2, "X")
        ok, lam = check_dissipative(LinearMap(np.zeros((2, 2)), sp, sp))
        assert ok and lam == pytest.approx(0.0, abs=1e-15)

    def test_positive_multiple_of_identity(self):
        sp = euclidean_space(2, "X")
        ok, lam = check_dissipative(LinearMap(0.3 * np.eye(2), sp, sp))
        assert ok and lam == pytest.approx(0.3)

    def test_rotation_with_negative_part(self):
        # sym(D) = diag(0, -0.1): quadratic form can be negative
        sp = euclidean_space(2, "X")
        D = LinearMap(np.array([[0.0, 1.0], [-1.0, -0.1]]), sp, sp)
        ok, lam = check_dissipative(D)
        assert not ok
        assert lam == pytest.approx(-0.1, abs=1e-12)


class TestCheckDissipativeStructured:
    """``check_dissipative`` reads the structure-aware extreme eigenvalue."""

    @settings(max_examples=100, deadline=None)
    @given(spd_grams(), st.floats(0.0, 2.0))
    def test_matches_eigvalsh(self, g, shift):
        # diagonal, banded and dense forms with spectra of either sign
        lo, hi = _spectrum(g)
        d = g - shift * hi * np.eye(len(g))
        sp = euclidean_space(len(g), "X")
        ok, lam = check_dissipative(LinearMap(d, sp, sp))
        ref = _spectrum(d)[0]
        assert abs(lam - ref) <= 1e-12 * hi
        assert ok is (lam >= -1e-10)

    # the largest finite value overflows when the form is symmetrized
    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.finfo(float).max])
    def test_non_finite_form_fails_like_eigvalsh(self, bad):
        sp = euclidean_space(3, "X")
        d = np.eye(3)
        d[1, 1] = bad
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError):
            check_dissipative(LinearMap(d, sp, sp))


def lift_of_factor(a, dom, cod):
    """The second-order lift of a dual pair with factor map ``a``.

    B_ext extends -A* by one boundary column on the first X coordinate,
    with the traces the Green identity forces.
    """
    A = LinearMap(a, dom, cod)
    injection = np.eye(dom.dim, 1)
    b_ext = extend_adjoint(A, injection)
    pi1 = np.eye(1, cod.dim + 1, cod.dim)
    dp = assemble_dual_pair(A, b_ext, -injection.T, pi1,
                            euclidean_space(1, "G1"))
    return lift_second_order(dp)


def jet_of_factor(a, dom, cod):
    return build_jet(lift_of_factor(a, dom, cod))


def ker_projector(jt):
    """I - A (A^T W_Y A)^{-1} A^T W_Y from the jet's normal factor."""
    a = jt.A_iso.matrix
    return (np.eye(a.shape[0])
            - a @ jt.normal_solve(a.T @ jt.A_iso.codomain.gram))


class TestHelmholtz:
    """The splitting of the codomain into ran A and ker A* that the jet's
    normal-equation factor carries (``ran_A_defect``, ``pull_state``)."""

    def test_identity(self, rng):
        sp = euclidean_space(2, "Y")
        jt = jet_of_factor(np.eye(2), euclidean_space(2, "X"), sp)
        assert np.allclose(ker_projector(jt), 0.0, atol=1e-14)
        for _ in range(5):
            assert ran_A_defect(jt, rng.standard_normal(2)) <= 1e-14

    def test_coordinate_axis(self):
        dom = euclidean_space(1, "X")
        cod = euclidean_space(2, "Y")
        jt = jet_of_factor(np.array([[1.0], [0.0]]), dom, cod)
        assert np.allclose(ker_projector(jt), np.diag([0.0, 1.0]),
                           atol=1e-14)
        assert ran_A_defect(jt, np.array([3.0, -2.0])) == pytest.approx(
            2.0, rel=1e-14)
        w = push_state(jt, np.array([3.0, 0.5]))
        assert np.allclose(pull_state(jt, w), [3.0, 0.5], atol=1e-14)

    def test_wave_strain_map(self):
        jt = wave_system(4).jet
        p_ker = ker_projector(jt)
        assert np.linalg.norm(p_ker @ p_ker - p_ker) <= 1e-12
        # W_Y self-adjointness of the projector
        w = jt.A_iso.codomain.gram
        assert np.linalg.norm(w @ p_ker - p_ker.T @ w) <= 1e-12
        assert np.linalg.matrix_rank(p_ker) == 9 - 5
        assert np.linalg.norm(p_ker @ jt.A_iso.matrix) <= 1e-12

    def test_rank_deficient_rejected(self):
        # A^T A has eigenvalues 1 and 1e-11: the lift's core Gram passes
        # its 1e-12 SPD gate, the jet's RANK_RTOL = 1e-10 gate refuses it
        a = np.array([[1.0, 0.0], [0.0, 10 ** -5.5], [0.0, 0.0]])
        op = lift_of_factor(a, euclidean_space(2, "X"),
                            euclidean_space(3, "Y"))
        with pytest.raises(RankDeficient):
            build_jet(op)

    def test_jet_target_is_not_a_lift(self):
        jt = wave_system(4).jet
        with pytest.raises(NotALift, match="not the lift"):
            build_jet(jt.target)


def test_dual_space_inverts_gram():
    sp = make_space(2, [[2.0, 0.5], [0.5, 1.0]], "X")
    assert np.allclose(dual_space(sp).gram @ sp.gram, np.eye(2),
                       atol=1e-13)


def test_contraction_param_flag():
    from passivebc.hilbert import ContractionParam
    sp = euclidean_space(2, "G")
    assert ContractionParam.from_matrix(0.9 * np.eye(2), sp).is_contraction
    assert ContractionParam.from_matrix(np.eye(2), sp).is_contraction
    assert not ContractionParam.from_matrix(1.5 * np.eye(2),
                                            sp).is_contraction


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_contraction_param_rejects_non_finite(bad):
    from passivebc.hilbert import ContractionParam
    P = np.zeros((2, 2))
    P[1, 0] = bad
    with pytest.raises(NonFiniteValue):
        ContractionParam.from_matrix(P, euclidean_space(2, "G"))


def test_linear_map_shape_mismatch_rejected():
    dom = euclidean_space(3, "X")
    cod = euclidean_space(2, "Y")
    with pytest.raises(ShapeMismatch, match="does not match map"):
        LinearMap(np.zeros((3, 3)), dom, cod)
