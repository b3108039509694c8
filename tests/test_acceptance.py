"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
from passivebc.extension import dissipativity_residual, generator_from_contraction
from passivebc.hilbert import LinearMap, contraction_norm
from passivebc.jet import push_state, ran_A_defect
from passivebc.node import (
    _build_node,
    external_cayley,
    impedance_node,
    passivity_residual,
    scattering_node,
)
from passivebc.sim import InputSignal, StepSolver, consistent_initialization, simulate
from passivebc.triplet import green_residual, minimal_domain, skew_on_minimal
from passivebc.wave1d import (
    analytic_standing_wave,
    assemble,
    constant_coefficients,
    initial_state,
    random_coefficients,
)


def report(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def unit_maps(sys):
    eye = np.eye(sys.X.dim)
    return (LinearMap(eye, sys.X, sys.X),
            LinearMap(np.zeros_like(eye), sys.X, sys.X))


def scaled_random(rng, bspace, target):
    raw = rng.standard_normal((2, 2))
    return raw * (target / contraction_norm(raw, bspace))


def test_c1_green_identity():
    # wave systems N in {4, 16, 64}, 20 seeded random coefficient fields
    # each: Green residual <= 1e-12, under 2 s
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 16, 64):
        for _ in range(20):
            sys = assemble(random_coefficients(n, rng))
            worst = max(worst, sys.dual_pair.residual,
                        green_residual(sys.op_A))
    elapsed = time.perf_counter() - start
    report("C1 green identity", worst <= 1e-12 and elapsed < 2.0,
           f"max residual {worst:.3e} (tol 1e-12), {elapsed:.2f} s")


def test_c2_contraction_parameterization():
    # 200 seeded contractions dissipative to 1e-10; 50 expansions with
    # dual norm >= 1.1 give residual > 1e-12; under 5 s
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    op = assemble(constant_coefficients(8)).op_A
    worst = 0.0
    for _ in range(200):
        p = scaled_random(rng, op.bspace, rng.uniform(0.05, 1.0))
        worst = max(worst, dissipativity_residual(
            generator_from_contraction(op, p)))
    weakest = np.inf
    for _ in range(50):
        p = scaled_random(rng, op.bspace, 1.1 + rng.uniform(0.0, 0.9))
        weakest = min(weakest, dissipativity_residual(
            generator_from_contraction(op, p)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and weakest > 1e-12 and elapsed < 5.0
    report("C2 contraction parameterization", ok,
           f"contraction residual {worst:.3e} (tol 1e-10), expansion "
           f"margin {weakest:.3e} (> 1e-12), {elapsed:.2f} s")


def test_c3_scattering_passivity():
    # pointwise residual <= 1e-10 on 100 random consistent states per
    # node for P in {0, +I, -I, random contraction}; equality for
    # orthogonal P with no damping
    rng = np.random.default_rng(303)
    sys = assemble(constant_coefficients(8))
    m, d = unit_maps(sys)
    cases = {
        "P=0": np.zeros((2, 2)),
        "P=+I": np.eye(2),
        "P=-I": -np.eye(2),
        "random": scaled_random(rng, sys.op_A.bspace,
                                rng.uniform(0.1, 1.0)),
    }
    worst = -np.inf
    for label, p in cases.items():
        nd = scattering_node(sys.op_A, p, m, d)
        for _ in range(100):
            z = rng.standard_normal(sys.op_A.ext_dim)
            res = passivity_residual(nd, z, nd.G_map @ z, nd.K_map @ z)
            worst = max(worst, res)
    preserving = scattering_node(sys.op_A, rotation(0.8), m, d)
    eq_worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(sys.op_A.ext_dim)
        res = passivity_residual(preserving, z, preserving.G_map @ z,
                                 preserving.K_map @ z)
        eq_worst = max(eq_worst, abs(res))
    ok = worst <= 1e-10 and eq_worst <= 1e-10
    report("C3 scattering passivity", ok,
           f"max residual {worst:.3e} (tol 1e-10), orthogonal-P "
           f"equality gap {eq_worst:.3e} (tol 1e-10)")


def test_c4_cayley_involution():
    # double transform at beta=1 returns the maps to 1e-14; impedance
    # maps equal the Cayley transform of the scattering maps to 1e-14
    rng = np.random.default_rng(404)
    sys = assemble(constant_coefficients(8, rho=1.3, b=0.4))
    invol = 0.0
    agree = 0.0
    params = [np.eye(2), rotation(0.5),
              scaled_random(rng, sys.op_A.bspace, 0.7)]
    for p in params:
        scat = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
        imp = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
        twice = external_cayley(external_cayley(scat, 1.0), 1.0)
        once = external_cayley(scat, 1.0)
        invol = max(invol,
                    float(np.abs(twice.G_map - scat.G_map).max()),
                    float(np.abs(twice.K_map - scat.K_map).max()))
        agree = max(agree,
                    float(np.abs(once.G_map - imp.G_map).max()),
                    float(np.abs(once.K_map - imp.K_map).max()))
    ok = invol <= 1e-14 and agree <= 1e-14
    report("C4 cayley involution", ok,
           f"involution {invol:.3e}, flavor agreement {agree:.3e} "
           f"(tol 1e-14)")


def test_c5_energy_balance():
    # 1000-step runs, damped and undamped, sine and gauss inputs:
    # impedance residual <= 1e-10 (1+H) per step, scattering slack
    # nonnegative to 1e-10
    sine = InputSignal("sine", weights=np.array([1.0, 0.0]),
                       amplitude=0.3, frequency=1.3)
    gauss = InputSignal("gauss_pulse", weights=np.array([0.0, 1.0]),
                        amplitude=0.5, center=0.3, width=0.08)
    worst_rel = 0.0
    for b in (0.0, 0.5):
        sys = assemble(constant_coefficients(32, b=b))
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        for sig in (sine, gauss):
            traj = simulate(nd, initial_state(sys, "zero"), sig, 1.0,
                            1e-3)
            led = traj.ledger
            rel = np.abs(led.residual) / (1.0 + led.H[1:])
            worst_rel = max(worst_rel, float(rel.max()))

    sys = assemble(constant_coefficients(32, b=0.5))
    rng = np.random.default_rng(505)
    p = scaled_random(rng, sys.op_A.bspace, 0.6)
    nd = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
    slack_min = np.inf
    identity_gap = 0.0
    for sig in (sine, gauss):
        traj = simulate(nd, initial_state(sys, "zero"), sig, 1.0, 1e-3)
        led = traj.ledger
        slack_min = min(slack_min, float(led.slack.min()))
        gap = np.abs(led.residual + 0.5 * led.slack) / (1.0 + led.H[1:])
        identity_gap = max(identity_gap, float(gap.max()))
    ok = worst_rel <= 1e-10 and slack_min >= -1e-10 \
        and identity_gap <= 1e-10
    report("C5 energy balance", ok,
           f"impedance residual {worst_rel:.3e} (tol 1e-10), scattering "
           f"slack min {slack_min:.3e} (>= -1e-10), residual/slack "
           f"identity {identity_gap:.3e}")


def test_c6_conservation_and_reversal():
    # traction-free impedance realization of the unitary case: energy
    # constant to 1e-9 relative over 1000 steps, time reversal to 1e-10
    sys = assemble(constant_coefficients(32))
    m, d = unit_maps(sys)
    nd = impedance_node(sys.op_A, np.eye(2), m, d)
    z0 = initial_state(sys, "standing_wave", k=1)
    traj = simulate(nd, z0, InputSignal.zero(2), 1.0, 1e-3)
    led = traj.ledger
    drift = float(np.abs(led.H - led.H[0]).max() / led.H[0])

    forward, back = StepSolver(nd, 1e-3), StepSolver(nd, -1e-3)
    z = consistent_initialization(nd, z0, np.zeros(2))
    start = z.copy()
    for _ in range(1000):
        z = forward.step(z, np.zeros(2))
    for _ in range(1000):
        z = back.step(z, np.zeros(2))
    reversal = float(np.linalg.norm(z - start))
    ok = drift <= 1e-9 and reversal <= 1e-10
    report("C6 conservation", ok,
           f"relative drift {drift:.3e} (tol 1e-9), reversal gap "
           f"{reversal:.3e} (tol 1e-10)")


def test_c7_jet_equivalence():
    # both formulations agree to 1e-9 per step over 500 steps, with the
    # strain block staying in the factor range to 1e-9
    rng = np.random.default_rng(707)
    scenarios = [
        (constant_coefficients(32), "standing_wave",
         InputSignal.zero(2)),
        (random_coefficients(32, rng, b_max=0.5), "gauss",
         InputSignal("sine", weights=np.array([1.0, 0.0]),
                     amplitude=0.2, frequency=1.1)),
    ]
    worst_dev = 0.0
    worst_defect = 0.0
    for coeffs, init, sig in scenarios:
        sys = assemble(coeffs)
        jt = sys.jet
        nd_a = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        nd_b = _build_node(sys.op_strain, nd_a.P, sys.M_map, sys.D_map,
                           nd_a.flavor)
        z0 = initial_state(sys, init)
        ta = simulate(nd_a, z0, sig, 0.5, 1e-3)
        tb = simulate(nd_b, push_state(jt.A_iso, z0), sig, 0.5, 1e-3)
        nc = sys.op_A.core.dim
        for i in range(ta.n_steps + 1):
            z = ta.states_ext[i][:nc]
            w = tb.states_ext[i][:sys.op_strain.core.dim]
            worst_dev = max(worst_dev, float(np.linalg.norm(
                push_state(jt.A_iso, z) - w)))
            worst_defect = max(worst_defect,
                               ran_A_defect(jt, w[:sys.Y.dim]))
    ok = worst_dev <= 1e-9 and worst_defect <= 1e-9
    report("C7 jet equivalence", ok,
           f"max deviation {worst_dev:.3e}, max range defect "
           f"{worst_defect:.3e} (tol 1e-9)")


def test_c8_convergence():
    # halving (h, dt) from (1/32, 2e-3) twice shrinks the terminal
    # energy-norm error by a factor in [3.5, 4.5]; under 20 s
    start = time.perf_counter()

    def terminal_error(n, dt):
        sys = assemble(constant_coefficients(n))
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        z0 = initial_state(sys, "standing_wave", k=1)
        traj = simulate(nd, z0, InputSignal.zero(2), 0.5, dt)
        state, _ = analytic_standing_wave(1, sys.coeffs)
        gap = traj.states_ext[-1][:sys.op_A.core.dim] \
            - state(traj.times[-1])
        wx = sys.X.gram
        k = n + 1
        return math.sqrt(gap[:k] @ wx @ gap[:k]
                         + gap[k:] @ wx @ gap[k:])

    errors = [terminal_error(32, 2e-3), terminal_error(64, 1e-3),
              terminal_error(128, 5e-4)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.perf_counter() - start
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 20.0
    report("C8 convergence", ok,
           f"errors {errors[0]:.3e} -> {errors[1]:.3e} -> "
           f"{errors[2]:.3e}, ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
           f"(in [3.5, 4.5]), {elapsed:.1f} s")


def test_c9_minimal_domain_and_skew():
    # kernel of the stacked traces has dimension exactly 2N; the minimal
    # restriction is skew to 1e-12 without damping
    dims_ok = True
    for n in (4, 8, 16, 32):
        op = assemble(constant_coefficients(n)).op_A
        dims_ok = dims_ok and minimal_domain(op).shape[1] == 2 * n
    worst = 0.0
    for n in (4, 8, 16):
        worst = max(worst,
                    skew_on_minimal(assemble(
                        constant_coefficients(n)).op_A))
    ok = dims_ok and worst <= 1e-12
    report("C9 minimal domain", ok,
           f"kernel dimension 2N for N in (4, 8, 16, 32): {dims_ok}, "
           f"skew defect {worst:.3e} (tol 1e-12)")
