"""A space holds its Gram as CSR; the dense Gram is built per read.

``HilbertSpaceSpec.gram`` must give the bytes the dense validation stores
(``dense_gram_oracle``), read-only, on every read.  What a node keeps must
grow linearly in N, and no per-block or per-row loop may read ``.gram``:
a run reads it as often for one block (or one row) as for many.  A builder
given an operator of the wrong shape, an unknown name, a width or mode
number that is not positive or a zero or NaN step names the fault with a
``PassivebcError``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passivebc import cli, node, verify, wave1d
from passivebc.errors import (
    InvalidTimeGrid,
    NonFiniteValue,
    NonPositiveParameter,
    PassivebcError,
    ShapeMismatch,
    UnknownChoice,
)
from passivebc.hilbert import (
    HilbertSpaceSpec,
    LinearMap,
    check_dissipative,
    euclidean_space,
    make_space,
)
from passivebc.jet import pull_state, push_state, ran_A_defect
from passivebc.node import impedance_node, scattering_node
from passivebc.scenario import load_scenario
from passivebc.sim import InputSignal, StepSolver, _block_steps
from passivebc.triplet import extend_adjoint

import dense_gram_oracle as oracle
from conftest import ROOT, half_width, wave_system
from test_hilbert import spd_grams
from test_stream import random_scenario


@settings(max_examples=150, deadline=None)
@given(spd_grams())
def test_gram_has_the_oracle_bytes_and_is_read_only(g):
    sp = make_space(len(g), g, "W")
    ref = oracle.make_space(len(g), g, "W")
    first, second = sp.gram, sp.gram
    assert first is not second
    assert first.tobytes() == second.tobytes() == ref.gram.tobytes()
    assert sp.gram_csr.has_canonical_format and sp.gram_csr.data.all()
    for stored in (first, sp.gram_csr.data, sp.gram_csr.indices,
                   sp.gram_csr.indptr):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored.flat[0] = 5


def test_zero_dimensional_space():
    sp = make_space(0, np.zeros((0, 0)), "E")
    assert sp.gram_csr.shape == (0, 0) and half_width(sp) == 0
    assert sp.gram.shape == (0, 0) and not sp.gram.flags.writeable
    assert LinearMap(np.zeros((0, 3)), euclidean_space(3, "X"),
                     sp).matrix.shape == (0, 3)


def reachable_spaces(root):
    """Every ``HilbertSpaceSpec`` reachable from ``root`` through dataclass
    fields and tuples, once each."""
    seen, spaces, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, HilbertSpaceSpec):
            spaces.append(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name)
                         for f in dataclasses.fields(obj))
        elif isinstance(obj, tuple):
            stack.extend(obj)
    return spaces


def test_node_grams_grow_linearly():
    # a dense Gram of the state space alone is 8.4 MB at N=512
    total = {}
    for N in (64, 512):
        sys_ = wave1d.assemble(wave1d.random_coefficients(
            N, np.random.default_rng(N)))
        nd = impedance_node(sys_.op_A, np.eye(2), sys_.M_map, sys_.D_map)
        spaces = reachable_spaces((sys_, nd))
        assert {sp.label for sp in spaces} >= {"X", "Y", "Y~", "G",
                                               "X_h(+)X", "X_h(+)X_M"}
        total[N] = sum(x.nbytes for sp in spaces for x in (
            sp.gram_csr.data, sp.gram_csr.indices, sp.gram_csr.indptr))
    assert total[512] < 1_000_000
    assert total[512] < 8.5 * total[64], total


@pytest.fixture
def gram_reads(monkeypatch):
    """Labels of the spaces whose ``gram`` is read, in order."""
    reads = []
    dense = HilbertSpaceSpec.gram.fget

    def counted(space):
        reads.append(space.label)
        return dense(space)
    monkeypatch.setattr(HilbertSpaceSpec, "gram", property(counted))
    return reads


@pytest.mark.parametrize("command, strain", [("simulate", False),
                                             ("simulate", True),
                                             ("jet-compare", False)])
def test_gram_reads_do_not_grow_with_the_run(tmp_path, capsys, gram_reads,
                                             command, strain):
    counts = []
    # one block, and three or more: three at the smallest ext_dim, 2N + 4
    for n_steps in (1, 3 * _block_steps(2 * 16 + 4) - 10):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(random_scenario(
            n_steps, "impedance", strain, seed=3, N=16)))
        gram_reads.clear()
        assert cli.main([command, "--scenario", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 0
        counts.append(list(gram_reads))
    capsys.readouterr()
    assert counts[0] and counts[0] == counts[1]


BUILDERS = ("linear_map", "check_dissipative", "mass", "damping",
            "injection", "gram")


def build_with_wrong_shape(which, N, wrong):
    """Call one builder with an operator whose size is ``wrong`` where the
    system of N cells needs N + 1."""
    sys_ = wave_system(N)
    n = N + 1
    v = euclidean_space(wrong, "V")
    if which == "linear_map":
        return LinearMap(np.zeros((wrong, n)), sys_.X, sys_.X)
    if which == "check_dissipative":
        return check_dissipative(LinearMap(np.zeros((n, wrong)), v, sys_.X))
    if which in ("mass", "damping"):
        square = LinearMap(np.eye(wrong), v, v)
        m, d = ((square, sys_.D_map) if which == "mass"
                else (sys_.M_map, square))
        return scattering_node(sys_.op_A, np.eye(2), m, d)
    if which == "injection":
        return extend_adjoint(sys_.A_map, np.zeros((wrong, 2)))
    return make_space(n, np.eye(wrong), "W")


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(BUILDERS), N=st.integers(1, 6),
       wrong=st.integers(0, 9))
def test_wrong_shape_raises_a_named_error(which, N, wrong):
    assume(wrong != N + 1)
    with pytest.raises(PassivebcError) as info:
        build_with_wrong_shape(which, N, wrong)
    assert info.type is ShapeMismatch


def names_other_than(*known):
    return st.text(max_size=12).filter(lambda s: s not in known)


def small_node(flavor):
    sys_ = wave_system(2)
    return node._build_node(sys_.op_A, np.eye(2), sys_.M_map, sys_.D_map,
                            flavor)


def jet_transport(call):
    """``push_state`` (of the factor map), ``pull_state`` or
    ``ran_A_defect`` (index ``call[0]``) of the N = 2 jet on
    ``call[1](n)``, where n is the width it expects: 6, 8 and 5."""
    fn, length = ((push_state, 6), (pull_state, 8), (ran_A_defect, 5))[call[0]]
    jt = wave_system(2).jet
    return fn(jt.A_iso if fn is push_state else jt, call[1](length))


# a block of rows of width n is a valid argument; one of another width or
# of another rank is not
WRONG_LENGTH = st.tuples(
    st.integers(0, 2),
    st.sampled_from([lambda n: np.zeros(n - 1), lambda n: np.zeros(n + 1),
                     lambda n: np.zeros((2, n + 1)),
                     lambda n: np.zeros((1, 1, n)), lambda n: 0.0]))
NOT_FINITE = st.tuples(
    st.integers(0, 2),
    st.sampled_from([math.nan, math.inf, -math.inf]).map(
        lambda v: lambda n: np.append(np.ones(n - 1), v)))

NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)

# fault: (bad values, a call that passes one, the error it must raise)
ARGUMENT_FAULTS = {
    "input kind": (names_other_than("zero", "sine", "gauss_pulse"),
                   lambda kind: InputSignal(kind, weights=np.ones(2)),
                   UnknownChoice),
    "pulse width": (NON_POSITIVE,
                    lambda w: InputSignal("gauss_pulse", weights=np.ones(2),
                                          width=w),
                    NonPositiveParameter),
    "step": (st.sampled_from([0.0, -0.0, math.nan]),
             lambda dt: StepSolver(small_node(node.IMPEDANCE), dt),
             InvalidTimeGrid),
    "mode number": (st.integers(max_value=0),
                    lambda k: wave1d.analytic_standing_wave(
                        k, wave_system(2).coeffs),
                    NonPositiveParameter),
    "gauss width": (NON_POSITIVE | st.just(math.nan),
                    lambda w: wave1d.initial_state(wave_system(2), "gauss",
                                                   width=w),
                    NonPositiveParameter),
    "initial kind": (names_other_than("zero", "standing_wave", "gauss"),
                     lambda kind: wave1d.initial_state(wave_system(2), kind),
                     UnknownChoice),
    "flavor": (names_other_than(node.SCATTERING, node.IMPEDANCE), small_node,
               UnknownChoice),
    "jet transport length": (WRONG_LENGTH, jet_transport, ShapeMismatch),
    "jet transport value": (NOT_FINITE, jet_transport, NonFiniteValue),
    "suite": (names_other_than(*verify.SUITES),
              lambda suite: verify.run_suite(load_scenario(
                  ROOT / "scenarios" / "standing_wave.json"), suite),
              UnknownChoice),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fault=st.sampled_from(sorted(ARGUMENT_FAULTS)))
def test_bad_argument_raises_a_named_error(data, fault):
    values, call, error = ARGUMENT_FAULTS[fault]
    with pytest.raises(PassivebcError) as info:
        call(data.draw(values))
    assert info.type is error
