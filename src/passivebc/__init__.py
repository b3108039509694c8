"""Boundary triplets, passive boundary nodes and energy-exact simulation.

The library realizes second-order evolution systems over weighted
finite-dimensional Hilbert spaces: factor maps with exact discrete Green
identities, contraction-parameterized dissipative restrictions, scattering
and impedance boundary nodes related by the external Cayley transform, the
strain-momentum equivalence transform, a staggered-grid 1-D wave instance
and an implicit-midpoint simulator whose energy ledgers close to machine
precision.
"""

from . import (extension, hilbert, jet, node, scenario, sim, triplet, verify,
               wave1d)
from .errors import PassivebcError
from .extension import (
    GeneratorRealization,
    constraint_matrix,
    dissipativity_residual,
    generator_from_contraction,
)
from .hilbert import (
    ContractionParam,
    HilbertSpaceSpec,
    LinearMap,
    check_dissipative,
    contraction_norm,
    euclidean_space,
    make_space,
)
from .jet import JetTransform, build_jet, push_state, ran_A_defect
from .node import (
    BoundaryNode,
    EnergyLedger,
    external_cayley,
    impedance_node,
    internal_wellposedness,
    passivity_residual,
    scattering_node,
)
from .sim import (
    InputSignal,
    Trajectory,
    consistent_initialization,
    simulate,
    simulate_blocks,
)
from .triplet import (
    BoundaryOperator,
    DualPairTriplet,
    assemble_dual_pair,
    green_residual,
    lift_second_order,
    minimal_domain,
    skew_on_minimal,
    strain_momentum,
)
from .wave1d import (
    WaveCoefficients,
    WaveSystem,
    analytic_standing_wave,
    assemble,
    constant_coefficients,
    initial_state,
    random_coefficients,
)

__version__ = "0.1.0"
