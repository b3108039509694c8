"""``verify``'s two Cayley checks measure their gaps relative to the maps.

The port maps of a node carry the units of its coefficients: a guitar
string (rho = 0.005, T = 100) has entries up to 200, where one rounding
is 2.8e-14, so an absolute gap held to 1e-14 failed a valid scenario.
Each gap is divided by ``max(1, largest |entry| of the maps compared)``;
the tolerance stays 1e-14.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivebc import cli
from passivebc import node as node_mod
from passivebc.errors import NonPositiveGram
from passivebc.scenario import load_scenario
from passivebc.verify import run_suite

from conftest import ROOT

CAYLEY = ("cayley_involution", "cayley_matches_impedance")
GUITAR = {"rho": 0.005, "T": 100.0, "a": 1.0, "b": 0.01}


def scenario_file(tmp_path, coefficients, length=1.0, N=32):
    doc = json.loads((ROOT / "scenarios" / "damped_sine.json").read_text())
    doc.update(coefficients=coefficients, length=length, N=N)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def cayley_checks(path):
    return {c.name: c for c in run_suite(load_scenario(path), "cayley")}


def test_a_guitar_string_passes_every_check(tmp_path, capsys):
    path = scenario_file(tmp_path, GUITAR, length=0.65)
    assert cli.main(["verify", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    for name in CAYLEY:
        assert f"PASS {name}: relative residual " in out
    checks = cayley_checks(path)
    assert all(c.kind == "relative residual" and c.tol == 1e-14
               for c in checks.values())


def test_a_perturbed_impedance_map_fails(tmp_path, monkeypatch):
    path = scenario_file(tmp_path, GUITAR, length=0.65)
    build = node_mod.impedance_node

    def perturbed(*args):
        nd = build(*args)
        k = np.array(nd.K_map)
        k[0, 0] += 1e-12 * np.abs(k).max()
        return dataclasses.replace(nd, K_map=k)
    monkeypatch.setattr(node_mod, "impedance_node", perturbed)
    checks = cayley_checks(path)
    assert checks["cayley_involution"].passed
    assert not checks["cayley_matches_impedance"].passed


BASES = {"guitar": (GUITAR, 0.65),
         "damped": ({"rho": 1.2, "T": 1.0, "a": 0.8, "b": 0.5}, 1.0)}


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), k=st.integers(-40, 40))
@example(base="guitar", k=-16)
@example(base="damped", k=-19)
@example(base="damped", k=15)
def test_verdicts_do_not_depend_on_the_units(tmp_path_factory, base, k):
    # rho, T, a and b times one power of two: the same equation
    coefficients, length = BASES[base]
    directory = tmp_path_factory.mktemp("units")
    want = cayley_checks(scenario_file(directory, coefficients, length, 8))
    scaled = {name: value * 2.0 ** k for name, value in coefficients.items()}
    try:
        got = cayley_checks(scenario_file(directory, scaled, length, 8))
    except NonPositiveGram:
        # the state Gram's blocks scale as 2^k and 2^-k: from |k| = 16 on
        # their ratio fails the 1e-12 positivity gate, before any check
        assert abs(k) >= 16
        return
    assert {n: c.passed for n, c in got.items()} == \
        {n: c.passed for n, c in want.items()} == dict.fromkeys(CAYLEY, True)


@pytest.mark.parametrize("name", ["damped_sine", "gauss_scattering",
                                  "jet_standing_wave", "standing_wave"])
def test_bundled_scenarios_keep_their_verdicts(name):
    checks = run_suite(load_scenario(ROOT / "scenarios" / f"{name}.json"),
                       "cayley")
    assert [c.name for c in checks] == list(CAYLEY)
    assert all(c.passed for c in checks)
