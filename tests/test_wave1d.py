import math

import numpy as np
import pytest

from passivebc.errors import (
    InvalidCoefficients,
    NonConstantCoefficients,
    NonFiniteValue,
    UnknownChoice,
)
from passivebc.triplet import green_residual, minimal_domain
from passivebc.wave1d import (
    analytic_standing_wave,
    assemble,
    constant_coefficients,
    initial_state,
    random_coefficients,
)

from conftest import wave_system


class TestCoefficients:
    def test_positivity_gates(self):
        a = np.ones(5)
        a[2] = 0.0
        with pytest.raises(InvalidCoefficients):
            constant_coefficients(4).__class__(4, 1.0, np.ones(5),
                                               np.ones(4), a, np.zeros(5))
        with pytest.raises(InvalidCoefficients):
            constant_coefficients(4, rho=-1.0)
        with pytest.raises(InvalidCoefficients):
            constant_coefficients(4, b=-0.1)

    @pytest.mark.parametrize("field", ["rho", "T", "a", "b", "length"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gates(self, field, bad):
        from passivebc.wave1d import WaveCoefficients
        args = {"length": 1.0, "rho": np.ones(5), "T": np.ones(4),
                "a": np.ones(5), "b": np.zeros(5)}
        if field == "length":
            args["length"] = bad
        else:
            args[field] = args[field].copy()
            args[field][1] = bad
        with pytest.raises(InvalidCoefficients):
            WaveCoefficients(4, **args)

    def test_shape_gates(self):
        from passivebc.wave1d import WaveCoefficients
        with pytest.raises(InvalidCoefficients):
            WaveCoefficients(4, 1.0, np.ones(4), np.ones(4), np.ones(5),
                             np.zeros(5))

    def test_random_fields_in_range(self, rng):
        c = random_coefficients(16, rng, low=0.5, high=2.0)
        for arr in (c.rho, c.T, c.a):
            assert arr.min() >= 0.5 and arr.max() <= 2.0


class TestAssembly:
    def test_unit_system_exact(self):
        sys = wave_system(4)
        assert sys.op_A.ext_dim == 12
        assert sys.dual_pair.residual <= 1e-12
        assert green_residual(sys.op_A) <= 1e-12

    def test_random_fields_exact(self, rng):
        for _ in range(5):
            sys = assemble(random_coefficients(16, rng))
            assert sys.dual_pair.residual <= 1e-12
            assert green_residual(sys.op_A) <= 1e-12

    def test_energy_gram_is_spd(self):
        sys = wave_system(8)
        w_h = sys.A_map.matrix.T @ sys.Y.gram @ sys.A_map.matrix
        assert np.linalg.eigvalsh(w_h)[0] > 0.0

    def test_integration_by_parts_exact(self, rng):
        # <B_ext y~, x> + <iota_Y y~, A x> = tau_R x_N - tau_L x_0
        sys = assemble(random_coefficients(12, rng))
        dp = sys.dual_pair
        for _ in range(25):
            yt = rng.standard_normal(dp.ext_Y_dim)
            x = rng.standard_normal(13)
            lhs = (float(dp.B_ext(yt) @ sys.X.gram @ x)
                   + float(yt[:sys.Y.dim] @ sys.Y.gram @ sys.A_map(x)))
            rhs = yt[-1] * x[-1] - yt[-2] * x[0]
            scale = 1.0 + np.linalg.norm(yt) * np.linalg.norm(x)
            assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("N", [4, 8, 16, 32])
    def test_minimal_domain_dimension(self, N):
        assert minimal_domain(wave_system(N).op_A).shape[1] == 2 * N

    def test_single_cell_system(self):
        # smallest admissible grid still carries the full structure
        sys = wave_system(1)
        assert sys.op_A.ext_dim == 6
        assert green_residual(sys.op_A) <= 1e-12
        assert minimal_domain(sys.op_A).shape[1] == 2

    def test_weighted_boundary_gram(self, rng):
        # a non-identity boundary Gram reweights the ports but keeps all
        # structural identities and the midpoint ledger exact
        from passivebc.node import impedance_node, internal_wellposedness
        from passivebc.sim import InputSignal, simulate
        from passivebc.wave1d import initial_state

        wg = np.array([[2.0, 0.3], [0.3, 0.5]])
        sys = assemble(constant_coefficients(12, b=0.4),
                       boundary_gram=wg)
        assert np.allclose(sys.op_A.bspace.gram, wg)
        assert sys.dual_pair.residual <= 1e-12
        assert green_residual(sys.op_A) <= 1e-12
        assert green_residual(sys.jet.target) <= 1e-12

        raw = rng.standard_normal((2, 2))
        from passivebc.hilbert import contraction_norm
        p = raw * (0.7 / contraction_norm(raw, sys.op_A.bspace))
        nd = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
        assert internal_wellposedness(nd)[0]
        sig = InputSignal("sine", weights=np.array([1.0, 0.2]),
                          amplitude=0.3, frequency=1.0)
        traj = simulate(nd, initial_state(sys, "gauss"), sig, 0.2, 1e-3)
        led = traj.ledger
        assert led.slack.min() >= -1e-10
        gap = np.abs(led.residual + 0.5 * led.slack)
        assert (gap <= 1e-10 * (1.0 + np.abs(led.H[1:]))).all()

    def test_energy_gram_conditioning_quadratic(self):
        # condition number grows like N^2 (factor-of-2 tolerance on the
        # ratio per doubling)
        conds = {}
        for n in (8, 16, 32, 64):
            sys = wave_system(n)
            w_h = sys.op_A.core.gram[:n + 1, :n + 1]
            conds[n] = np.linalg.cond(w_h)
        for n in (8, 16, 32):
            ratio = conds[2 * n] / conds[n]
            assert 2.0 <= ratio <= 8.0


class TestStandingWaveOracle:
    def test_unit_frequency(self):
        state, omega = analytic_standing_wave(1, constant_coefficients(8))
        assert omega == pytest.approx(math.sqrt(math.pi ** 2 + 1.0))

    def test_initial_momentum_zero(self):
        state, _ = analytic_standing_wave(2, constant_coefficients(8))
        assert not state(0.0)[9:].any()

    def test_pde_residual_second_order(self):
        # centered finite differences of the closed form satisfy the
        # continuous equation to O(h^2)
        rho, t_mod, a = 1.0, 1.0, 1.0
        omega = math.sqrt((t_mod * math.pi ** 2 + a) / rho)

        def residual(n):
            s = np.linspace(0.0, 1.0, n + 1)
            h = 1.0 / n
            t = 0.3
            x = np.cos(math.pi * s) * math.cos(omega * t)
            xtt = -omega ** 2 * x
            lap = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h ** 2
            r = rho * xtt[1:-1] - t_mod * lap + a * x[1:-1]
            return np.abs(r).max()

        r1, r2 = residual(64), residual(128)
        assert r1 / r2 == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("k", [10 ** 300, 10 ** 400],
                             ids=["1e300", "1e400"])
    def test_mode_beyond_float_range_rejected(self, k):
        # omega^2 overflows at 1e300; k pi itself overflows at 1e400
        with pytest.raises(NonFiniteValue, match="beyond the float range"):
            analytic_standing_wave(k, constant_coefficients(8))

    def test_mode_with_wave_number_beyond_float_range_rejected(self):
        # a finite k pi whose quotient by a short length overflows
        coeffs = constant_coefficients(8, length=1e-300)
        with pytest.raises(NonFiniteValue):
            analytic_standing_wave(10 ** 10, coeffs)

    def test_varying_coefficients_rejected(self, rng):
        c = random_coefficients(8, rng)
        with pytest.raises(NonConstantCoefficients):
            analytic_standing_wave(1, c)
        with pytest.raises(NonConstantCoefficients):
            analytic_standing_wave(1, constant_coefficients(8, b=0.5))

    def test_traction_free_at_ends(self):
        # the one-sided flux estimate at the wall vanishes linearly in h
        def edge_flux(n):
            state, _ = analytic_standing_wave(3, constant_coefficients(n))
            z1 = state(0.0)[:n + 1]
            grad = np.diff(z1) * n
            return max(abs(grad[0]), abs(grad[-1]))

        f1, f2 = edge_flux(64), edge_flux(128)
        assert f1 / f2 == pytest.approx(2.0, rel=0.05)
        assert f2 <= (3 * math.pi) ** 2 / 128.0


class TestInitialStates:
    def test_zero(self):
        sys = wave_system(4)
        assert not initial_state(sys, "zero").any()

    def test_standing_wave_matches_oracle(self):
        sys = wave_system(8)
        state, _ = analytic_standing_wave(1, sys.coeffs)
        assert np.array_equal(initial_state(sys, "standing_wave", k=1),
                              state(0.0))

    def test_gauss_has_positive_energy(self):
        sys = wave_system(64)
        z = initial_state(sys, "gauss", center=0.5, width=0.1)
        w = sys.op_A.core.gram
        energy = 0.5 * float(z @ w @ z)
        assert np.isfinite(energy) and energy > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownChoice):
            initial_state(wave_system(4), "sawtooth")
