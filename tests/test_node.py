import dataclasses
import json

import numpy as np
import pytest

from passivebc.errors import (
    DampingNotDissipative,
    InconsistentBoundaryData,
    MassNotSPD,
    NonFiniteValue,
    NonPositiveBeta,
    NotAContraction,
    ShapeMismatch,
    SingularCoreProjection,
)
from passivebc.hilbert import LinearMap
from passivebc.node import (
    external_cayley,
    impedance_node,
    internal_wellposedness,
    passivity_residual,
    scattering_node,
)

from passivebc.sim import InputSignal, simulate
from passivebc.wave1d import initial_state

from conftest import (
    ROOT,
    dense_mass_weight,
    energy_preserving,
    iota,
    random_wave_system,
    wave_system,
)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def identity_maps(sys):
    eye = np.eye(sys.X.dim)
    return (LinearMap(eye, sys.X, sys.X),
            LinearMap(np.zeros_like(eye), sys.X, sys.X))


class TestConstruction:
    def test_zero_parameter_kills_output(self):
        sys = wave_system(4)
        m, d = identity_maps(sys)
        nd = scattering_node(sys.op_A, np.zeros((2, 2)), m, d)
        assert not nd.K_map.any()
        assert internal_wellposedness(nd)[0]

    def test_expansion_rejected(self):
        sys = wave_system(4)
        with pytest.raises(NotAContraction):
            scattering_node(sys.op_A, 1.5 * np.eye(2), sys.M_map,
                            sys.D_map)

    def test_orthogonal_parameter_is_energy_preserving(self):
        sys = wave_system(4)
        m, d = identity_maps(sys)
        nd = scattering_node(sys.op_A, rotation(0.7), m, d)
        assert energy_preserving(nd)

    def test_damped_node_not_energy_preserving(self):
        sys = wave_system(4, b=0.3)
        nd = scattering_node(sys.op_A, rotation(0.7), sys.M_map,
                             sys.D_map)
        assert not energy_preserving(nd)

    def test_impedance_neumann_input(self):
        # P = I: the input map reads the traction trace
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        assert np.allclose(nd.G_map, sys.op_A.Gamma1 @ dense_mass_weight(nd),
                           atol=1e-14)

    def test_impedance_dirichlet_input(self):
        # P = -I: the input map reads the weighted velocity trace
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, -np.eye(2), sys.M_map, sys.D_map)
        expected = (sys.op_A.bspace.gram @ sys.op_A.Gamma0
                    @ dense_mass_weight(nd))
        assert np.allclose(nd.G_map, expected, atol=1e-14)
        # boundary coordinates are invisible to this input map: the node
        # cannot be internally well-posed in extended coordinates
        with pytest.raises(SingularCoreProjection):
            internal_wellposedness(nd)

    def test_weighted_impedance_wellposed(self):
        sys = wave_system(6, rho=1.3, b=0.4)
        nd = impedance_node(sys.op_A, np.zeros((2, 2)), sys.M_map,
                            sys.D_map)
        ok, gen = internal_wellposedness(nd)
        assert ok
        wa = nd.state_space.gram @ gen
        assert np.linalg.eigvalsh(0.5 * (wa + wa.T))[-1] <= 1e-10

    def test_mass_gates(self):
        sys = wave_system(4)
        bad = LinearMap(-np.eye(5), sys.X, sys.X)
        with pytest.raises(MassNotSPD):
            impedance_node(sys.op_A, np.eye(2), bad, sys.D_map)
        skew = LinearMap(np.eye(5) + 0.5 * (np.eye(5, 5, 1)
                                            - np.eye(5, 5, -1)),
                         sys.X, sys.X)
        with pytest.raises(MassNotSPD):
            impedance_node(sys.op_A, np.eye(2), skew, sys.D_map)

    def test_huge_asymmetric_mass_rejected_as_mass(self):
        # the Frobenius norms of W M overflow at entries near 1e200
        sys = wave_system(4)
        huge = LinearMap(1e200 * (np.eye(5) + 0.5 * np.eye(5, 5, 1)),
                         sys.X, sys.X)
        with pytest.raises(MassNotSPD):
            impedance_node(sys.op_A, np.eye(2), huge, sys.D_map)

    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_huge_damping_not_energy_preserving(self, scale):
        sys = wave_system(4)
        m, _ = identity_maps(sys)
        d = LinearMap(scale * np.eye(5), sys.X, sys.X)
        assert not energy_preserving(scattering_node(sys.op_A, rotation(0.7),
                                                     m, d))

    def test_damping_gate(self):
        sys = wave_system(4)
        bad = LinearMap(-0.1 * np.eye(5), sys.X, sys.X)
        with pytest.raises(DampingNotDissipative):
            impedance_node(sys.op_A, np.eye(2), sys.M_map, bad)

    @pytest.mark.parametrize("builder", [scattering_node, impedance_node])
    @pytest.mark.parametrize("which", ["M", "D"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mass_or_damping_named(self, builder, which, bad):
        # these ended in the mass gate's LinAlgError
        sys = wave_system(4, b=0.2)
        maps = {"M": sys.M_map.matrix.copy(), "D": sys.D_map.matrix.copy()}
        maps[which][2, 2] = bad
        m, d = (LinearMap(maps[k], sys.X, sys.X) for k in ("M", "D"))
        with pytest.raises(NonFiniteValue, match=f"map_{which} holds NaN"):
            builder(sys.op_A, 0.5 * np.eye(2), m, d)

    @pytest.mark.parametrize("builder", [scattering_node, impedance_node])
    @pytest.mark.parametrize("p", [0.5 * np.eye(3), np.zeros((2, 3)), 0.5])
    def test_wrong_shape_parameter_named(self, builder, p):
        sys = wave_system(4)
        with pytest.raises(ShapeMismatch, match="P must be 2x2, got"):
            builder(sys.op_A, p, sys.M_map, sys.D_map)

    def test_diagonal_gates_run_no_dense_eigensolver(self, monkeypatch):
        # the mass and damping forms of a wave system are diagonal
        sys = wave_system(16, b=0.3)

        def refused(*args, **kwargs):
            raise AssertionError("dense eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        for builder in (scattering_node, impedance_node):
            builder(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
        with pytest.raises(MassNotSPD):
            impedance_node(sys.op_A, np.eye(2),
                           LinearMap(-np.eye(17), sys.X, sys.X), sys.D_map)
        with pytest.raises(DampingNotDissipative):
            impedance_node(sys.op_A, np.eye(2), sys.M_map,
                           LinearMap(-0.1 * np.eye(17), sys.X, sys.X))

    def test_dual_gram_inverted_once_and_read_only(self):
        sys = wave_system(4)
        nd = scattering_node(sys.op_A, 0.5 * rotation(0.3), sys.M_map,
                             sys.D_map)
        wd = nd.dual_gram()
        assert np.array_equal(wd, np.linalg.inv(nd.op.bspace.gram))
        assert not wd.flags.writeable
        assert nd.dual_gram() is wd


class TestCayley:
    def test_formula_at_beta_one(self):
        sys = wave_system(4)
        nd = scattering_node(sys.op_A, rotation(0.3), sys.M_map,
                             sys.D_map)
        out = external_cayley(nd, 1.0)
        assert out.flavor == "impedance"
        assert np.allclose(out.G_map,
                           (nd.G_map + nd.K_map) / np.sqrt(2.0),
                           atol=1e-15)
        assert np.allclose(out.K_map,
                           (nd.G_map - nd.K_map) / np.sqrt(2.0),
                           atol=1e-15)

    def test_involution(self):
        sys = wave_system(6)
        nd = scattering_node(sys.op_A, rotation(1.1), sys.M_map,
                             sys.D_map)
        back = external_cayley(external_cayley(nd, 1.0), 1.0)
        assert np.abs(back.G_map - nd.G_map).max() <= 1e-15 * (
            1.0 + np.abs(nd.G_map).max())
        assert np.abs(back.K_map - nd.K_map).max() <= 1e-14

    def test_matches_impedance_maps(self, rng):
        sys = wave_system(6, rho=1.4, b=0.2)
        for _ in range(5):
            raw = rng.standard_normal((2, 2))
            p = raw / (np.linalg.norm(raw, 2) + 1e-9)
            scat = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
            imp = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
            once = external_cayley(scat, 1.0)
            assert np.abs(once.G_map - imp.G_map).max() <= 1e-14
            assert np.abs(once.K_map - imp.K_map).max() <= 1e-14

    def test_general_beta_formula(self):
        # an impedance node's maps go by the forward map at any beta
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.zeros((2, 2)), sys.M_map,
                            sys.D_map)
        out = external_cayley(nd, 2.5)
        scale = 1.0 / np.sqrt(5.0)
        assert np.allclose(out.G_map,
                           scale * (2.5 * nd.G_map + nd.K_map),
                           atol=1e-15)
        assert np.allclose(out.K_map,
                           scale * (2.5 * nd.G_map - nd.K_map),
                           atol=1e-15)
        assert out.flavor != nd.flavor

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("flavor", ["scattering", "impedance"])
    def test_ledger_closes_and_round_trip_at_any_beta(self, flavor, beta):
        # the transformed node's supply is the node's, so the ledger closes
        # (residual = -slack/2) from either flavor
        sys = random_wave_system(16, np.random.default_rng(0))
        builder = scattering_node if flavor == "scattering" \
            else impedance_node
        nd = builder(sys.op_A, 0.5 * rotation(0.7), sys.M_map, sys.D_map)
        out = external_cayley(nd, beta)
        sig = InputSignal("sine", weights=np.array([1.0, 0.5]),
                          amplitude=0.3, frequency=1.3)
        led = simulate(out, initial_state(sys, "zero"), sig, 0.2,
                       1e-3).ledger
        assert led.slack.max() > 1e-8    # the contraction is not unitary
        assert np.abs(led.residual + 0.5 * led.slack).max() <= 1e-12 * (
            1.0 + led.H.max())
        back = external_cayley(out, beta)
        assert back.flavor == flavor
        for got, want in ((back.G_map, nd.G_map), (back.K_map, nd.K_map)):
            assert np.abs(got - want).max() <= 1e-15 * (
                1.0 + np.abs(want).max())

    def test_nonpositive_beta_rejected(self):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        for beta in (0.0, -1.0):
            with pytest.raises(NonPositiveBeta):
                external_cayley(nd, beta)


class TestWellposedness:
    def test_zeroed_input_map_not_surjective(self):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        broken = dataclasses.replace(nd, G_map=np.zeros_like(nd.G_map))
        ok, gen = internal_wellposedness(broken)
        assert not ok and gen is None

    def test_unitary_impedance_generator_skew(self):
        # zero impedance input is the traction/velocity combination that
        # carries no power, so the kernel dynamics is skew for unitary P
        sys = wave_system(6)
        m, d = identity_maps(sys)
        nd = impedance_node(sys.op_A, rotation(0.9), m, d)
        ok, gen = internal_wellposedness(nd)
        assert ok
        wa = nd.state_space.gram @ gen
        assert np.linalg.norm(0.5 * (wa + wa.T)) <= 1e-10

    def test_unitary_scattering_generator_radiates(self):
        # zero scattering input still lets energy exit through the output
        # port: the kernel generator is dissipative but not skew
        sys = wave_system(6)
        m, d = identity_maps(sys)
        nd = scattering_node(sys.op_A, rotation(0.9), m, d)
        ok, gen = internal_wellposedness(nd)
        assert ok
        wa = nd.state_space.gram @ gen
        sym = np.linalg.eigvalsh(0.5 * (wa + wa.T))
        assert sym[-1] <= 1e-10
        assert sym[0] < -1e-6


class TestLazySetUp:
    """The lift, the strain-momentum form and the jet are each built on
    first read, and only then; well-posedness only when
    ``internal_wellposedness`` is called."""

    @staticmethod
    def _count(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def test_position_momentum_set_up_builds_neither(self, monkeypatch):
        from passivebc import node as node_mod
        from passivebc import scenario, wave1d
        calls = {}
        self._count(monkeypatch, wave1d, "build_jet", calls)
        self._count(monkeypatch, node_mod, "_restrict_to_kernel", calls)
        sc = scenario.load_scenario(ROOT / "scenarios" / "damped_sine.json")
        assert sc.formulation == "position-momentum"
        sys = scenario.build_system(sc)
        nd = scenario.build_node(sc, sys)
        external_cayley(nd, 2.0)
        assert calls == {}

        jt = sys.jet
        assert sys.jet is jt
        assert calls == {"build_jet": 1}

        ok, gen = internal_wellposedness(nd)
        assert calls == {"build_jet": 1, "_restrict_to_kernel": 1}
        assert ok and gen.shape == (nd.op.core.dim, nd.op.core.dim)

    def _count_realizations(self, monkeypatch):
        from passivebc import wave1d
        calls = {}
        for name in ("lift_second_order", "strain_momentum", "build_jet"):
            self._count(monkeypatch, wave1d, name, calls)
        return calls

    @staticmethod
    def _scenario(tmp_path, formulation):
        doc = json.loads((ROOT / "scenarios" / "damped_sine.json").read_text())
        doc.update(formulation=formulation, out=str(tmp_path / "run.csv"))
        path = tmp_path / f"{formulation}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_strain_momentum_run_builds_no_lift(self, monkeypatch,
                                                tmp_path, capsys):
        from passivebc import cli
        calls = self._count_realizations(monkeypatch)
        path = self._scenario(tmp_path, "strain-momentum")
        assert cli.run_scenario(path) == 0
        # a push reads the factor map alone: no strain run builds the jet
        assert calls == {"strain_momentum": 1}

    def test_position_momentum_run_builds_only_the_lift(self, monkeypatch,
                                                        tmp_path, capsys):
        from passivebc import cli
        calls = self._count_realizations(monkeypatch)
        path = self._scenario(tmp_path, "position-momentum")
        assert cli.run_scenario(path) == 0
        assert calls == {"lift_second_order": 1}

    def test_verify_all_builds_each_once(self, monkeypatch, capsys):
        from passivebc import cli
        calls = self._count_realizations(monkeypatch)
        path = ROOT / "scenarios" / "damped_sine.json"
        assert cli.verify_suite(str(path), "all") == 0
        assert "all 13 checks passed" in capsys.readouterr().out
        assert calls == {"lift_second_order": 1, "strain_momentum": 1,
                         "build_jet": 1}

    @pytest.mark.parametrize("flavor", ["scattering", "impedance"])
    def test_strain_momentum_node_built_once(self, monkeypatch, tmp_path,
                                             flavor):
        # on the jet target directly, equal bit for bit to a node built
        # there from the position-momentum node's P, M and D
        from passivebc import node as node_mod
        from passivebc import scenario
        doc = json.loads((ROOT / "scenarios" / "damped_sine.json").read_text())
        doc.update(formulation="strain-momentum", flavor=flavor,
                   P=[[0.3, 0.1], [-0.2, 0.4]])
        path = tmp_path / "strain.json"
        path.write_text(json.dumps(doc))
        sc = scenario.load_scenario(path)
        sys = scenario.build_system(sc)
        calls = {}
        self._count(monkeypatch, node_mod, "_build_node", calls)
        nd = scenario.build_node(sc, sys)
        assert calls == {"_build_node": 1}
        assert nd.op is sys.op_strain and nd.flavor == flavor
        src = scenario.build_flavor_node(sc, sys, sys.op_A)
        ref = node_mod._build_node(sys.op_strain, src.P, sys.M_map,
                                   sys.D_map,
                                   src.flavor)
        for got, want in ((nd.G_map, ref.G_map), (nd.K_map, ref.K_map),
                          (nd.L_eff.toarray(), ref.L_eff.toarray()),
                          (nd.M_inv.toarray(), ref.M_inv.toarray()),
                          (nd.P.matrix, ref.P.matrix),
                          (nd.state_space.gram, ref.state_space.gram)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [0.0, 0.4])
    @pytest.mark.parametrize("flavor", ["scattering", "impedance"])
    @pytest.mark.parametrize("name", ["I", "-I", "0", "rotation"])
    def test_wellposedness_values_unchanged(self, b, flavor, name):
        # values of the former eager computation at node build
        P = {"I": np.eye(2), "-I": -np.eye(2), "0": np.zeros((2, 2)),
             "rotation": rotation(0.7)}[name]
        sys = wave_system(6, rho=1.3, b=b)
        builder = scattering_node if flavor == "scattering" \
            else impedance_node
        nd = builder(sys.op_A, P, sys.M_map, sys.D_map)
        # the beta = 2 transform of scattering P = -I has the kernel of
        # impedance P = -I, whose core projection is singular
        for x in (nd, external_cayley(nd, 2.0)):
            if x.flavor == "impedance" and name == "-I":
                with pytest.raises(SingularCoreProjection):
                    internal_wellposedness(x)
            else:
                assert internal_wellposedness(x)[0] is True


class TestPassivityResidual:
    def test_kernel_states_dissipate(self, rng):
        sys = wave_system(6, b=0.4)
        nd = scattering_node(sys.op_A, 0.5 * rotation(0.2), sys.M_map,
                             sys.D_map)
        import scipy.linalg
        kernel = scipy.linalg.null_space(nd.G_map, rcond=1e-10)
        for _ in range(20):
            z = kernel @ rng.standard_normal(kernel.shape[1])
            u = np.zeros(2)
            y = nd.K_map @ z
            res = passivity_residual(nd, z, u, y)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(z) ** 2)

    def test_random_states_all_contractions(self, rng):
        sys = wave_system(6, b=0.3)
        for _ in range(10):
            raw = rng.standard_normal((2, 2))
            p = raw * rng.uniform(0.05, 1.0) / np.linalg.norm(raw, 2)
            nd = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
            for _ in range(10):
                z = rng.standard_normal(sys.op_A.ext_dim)
                res = passivity_residual(nd, z, nd.G_map @ z,
                                         nd.K_map @ z)
                assert res <= 1e-10 * (1.0 + np.linalg.norm(z) ** 2)

    def test_unitary_no_damping_preserves(self, rng):
        sys = wave_system(6)
        m, d = identity_maps(sys)
        nd = scattering_node(sys.op_A, rotation(0.4), m, d)
        for _ in range(50):
            z = rng.standard_normal(sys.op_A.ext_dim)
            res = passivity_residual(nd, z, nd.G_map @ z, nd.K_map @ z)
            assert abs(res) <= 1e-10 * (1.0 + np.linalg.norm(z) ** 2)

    def test_impedance_equals_scattering_balance(self, rng):
        # the two flavors account the same physical power
        sys = wave_system(6, b=0.2)
        p = 0.6 * rotation(0.5)
        scat = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
        imp = impedance_node(sys.op_A, p, sys.M_map, sys.D_map)
        for _ in range(20):
            z = rng.standard_normal(sys.op_A.ext_dim)
            rs = passivity_residual(scat, z, scat.G_map @ z,
                                    scat.K_map @ z)
            ri = passivity_residual(imp, z, imp.G_map @ z, imp.K_map @ z)
            assert rs == pytest.approx(ri, abs=1e-10 * (1 + abs(rs)))

    def test_inconsistent_data_rejected(self, rng):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        z = rng.standard_normal(sys.op_A.ext_dim)
        u = nd.G_map @ z + np.array([0.5, 0.0])
        with pytest.raises(InconsistentBoundaryData):
            passivity_residual(nd, z, u, nd.K_map @ z)

    def test_huge_inconsistent_state_is_named(self, rng):
        # entries of 1e200: norms that sum squares overflow on both sides
        # of the consistency gate, which then let u pass, off by 1e200
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        z = 1e200 * rng.standard_normal(sys.op_A.ext_dim)
        u = nd.G_map @ z + np.array([1e200, 0.0])
        with pytest.raises(InconsistentBoundaryData):
            passivity_residual(nd, z, u, nd.K_map @ z)

    def test_overflowing_energy_is_named(self, rng):
        # a consistent state of 1e200 entries: its power overflows
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        z = 1e200 * rng.standard_normal(sys.op_A.ext_dim)
        with pytest.raises(NonFiniteValue, match="passivity defect"):
            passivity_residual(nd, z, nd.G_map @ z, nd.K_map @ z)

    def test_residual_equals_minus_slack_minus_dissipation(self, rng):
        sys = wave_system(6, b=0.25)
        p = 0.4 * rotation(0.8)
        nd = scattering_node(sys.op_A, p, sys.M_map, sys.D_map)
        for _ in range(20):
            z = rng.standard_normal(sys.op_A.ext_dim)
            res = passivity_residual(nd, z, nd.G_map @ z, nd.K_map @ z)
            expected = -nd.scattering_slack(z[None])[0] \
                - 2.0 * nd.dissipated_power(z[None])[0]
            assert res == pytest.approx(expected,
                                        abs=1e-10 * (1 + abs(expected)))


class TestPassivityResidualShapes:
    """A state or port sample of the wrong length is a ``ShapeMismatch``,
    not a NumPy broadcasting error."""

    @staticmethod
    def consistent(rng):
        sys = wave_system(4)
        nd = impedance_node(sys.op_A, 0.5 * np.eye(2), sys.M_map, sys.D_map)
        z = rng.standard_normal(sys.op_A.ext_dim)
        return nd, z, nd.G_map @ z, nd.K_map @ z

    @pytest.mark.parametrize("length", ["short", "long"])
    def test_state_of_wrong_length(self, rng, length):
        nd, z, u, y = self.consistent(rng)
        bad = z[:-1] if length == "short" else np.append(z, 0.0)
        with pytest.raises(ShapeMismatch, match="state"):
            passivity_residual(nd, bad, u, y)

    @pytest.mark.parametrize("which", ["input", "output"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_port_sample_of_wrong_length(self, rng, which, length):
        nd, z, u, y = self.consistent(rng)
        bad = np.ones(length)
        args = (bad, y) if which == "input" else (u, bad)
        with pytest.raises(ShapeMismatch, match=which):
            passivity_residual(nd, z, *args)

    def test_matching_shapes_still_evaluate(self, rng):
        nd, z, u, y = self.consistent(rng)
        assert np.isfinite(passivity_residual(nd, z, u, y))


class TestAlgebraicInvariants:
    def test_polarization_identity(self, rng):
        sys = wave_system(8)
        op = sys.op_A
        wg = op.bspace.gram
        wd = np.linalg.inv(wg)
        for _ in range(100):
            z = rng.standard_normal(op.ext_dim)
            a = wg @ op.Gamma0 @ z
            b = op.Gamma1 @ z
            lhs = 2.0 * float(a @ wd @ b)
            rhs = 0.5 * float((a + b) @ wd @ (a + b)) \
                - 0.5 * float((a - b) @ wd @ (a - b))
            scale = 1.0 + abs(lhs)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_weighted_green_identity(self):
        # traces composed with the mass weight still satisfy the Green
        # identity with respect to the inverse-mass core Gram
        sys = wave_system(6, rho=1.7)
        nd = impedance_node(sys.op_A, np.eye(2), sys.M_map, sys.D_map)
        op = sys.op_A
        w = dense_mass_weight(nd)
        l_m = op.L.toarray() @ w
        g0 = op.Gamma0 @ w
        g1 = op.Gamma1 @ w
        wl = nd.state_space.gram @ l_m
        defect = (iota(op).T @ wl + wl.T @ iota(op)
                  - g1.T @ g0 - g0.T @ g1)
        assert np.linalg.norm(defect) / (1.0 + np.linalg.norm(wl)) \
            <= 1e-12
