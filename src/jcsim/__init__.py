"""Lossy Jaynes-Cummings dynamics with dressed-jump and photon-loss generators."""

from .analytic import bell_micro, bell_phen, rabi_micro, rabi_micro_density, rabi_phen
from .bath import (
    BathSpec,
    FlatSpectrum,
    LorentzianSpectrum,
    OhmicSpectrum,
    occupation,
    rate,
)
from .generators import (
    Superoperator,
    dressed_approx_generator,
    eigenoperators,
    microscopic_channels,
    microscopic_generator,
    phenomenological_generator,
    single_excitation_generator,
)
from .hilbert import (
    DensityMatrix,
    StateSpace,
    atomic_operators,
    build_space,
    density_diagnostics,
    excitation_number,
    ladder_operators,
    pure_state,
)
from .jcmodel import (
    DressedState,
    JCParams,
    complete_eigensystem,
    dressed_states,
    hamiltonian,
)
from .observables import ObservableSet, population
from .scenario import ConfigError, Scenario, parse_config, scenario_from_config, serialize_config
from .solver import (
    DampingBasis,
    DampingBasisError,
    KernelMultiplicityError,
    StepSizeError,
    TimeSeries,
    damping_basis,
    dominant_frequency,
    evolve_ode,
    evolve_spectral,
    steady_state,
)

__version__ = "0.1.0"
