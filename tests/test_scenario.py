from dataclasses import replace

import numpy as np
import pytest

from jcsim.bath import FlatSpectrum
from jcsim.jcmodel import hamiltonian
from jcsim.scenario import (
    ConfigError,
    parse_config,
    scenario_from_config,
    scenario_from_mapping,
)

MICRO_TEXT = """
# figure scenario
model = micro
omega0 = 1.0
rabi = 0.2          # coupling
nmax = 2
bath.kind = flat
bath.temperature = 0.0
bath.gamma0 = 0.04
initial = fock:0,e
tau_max = 40.0
steps = 200
observables = pop_0g,atomic_ground
solver = spectral
"""

PHEN_TEXT = """
model = phen
omega0 = 1.0
rabi = 0.2
nmax = 3
gamma0 = 0.04
nbar = 0.0
initial = dressed:1,+
tau_max = 40.0
steps = 200
observables = atomic_ground
solver = ode
dt = 2.0e-3
"""


def test_parse_config_strips_comments_and_blanks():
    mapping = parse_config(MICRO_TEXT)
    assert mapping["model"] == "micro"
    assert mapping["rabi"] == "0.2"
    assert "figure" not in " ".join(mapping)


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("model micro\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty"):
        parse_config("a =\n")


def test_micro_scenario_construction():
    scenario = scenario_from_config(MICRO_TEXT)
    assert scenario.model == "micro"
    assert scenario.bath.temperature == 0.0
    assert isinstance(scenario.bath.spectrum, FlatSpectrum)
    assert scenario.initial == ("fock", 0, "e")
    assert scenario.observables.names == ("pop_0g", "atomic_ground")
    tau = scenario.tau_grid()
    assert tau[0] == 0.0 and tau[-1] == 40.0 and tau.size == 200
    assert np.allclose(scenario.time_grid(), tau / 0.4)
    liouvillian = scenario.generator()
    assert liouvillian.dim == 6
    rho0 = scenario.initial_state()
    assert rho0.matrix[1, 1] == pytest.approx(1.0)


def test_ground_is_the_fock_state_0_g():
    ground = scenario_from_config(MICRO_TEXT.replace("initial = fock:0,e", "initial = ground"))
    assert ground.initial == ("fock", 0, "g")
    assert ground.initial_state().matrix[0, 0] == 1.0


def test_phen_scenario_construction():
    scenario = scenario_from_config(PHEN_TEXT)
    assert scenario.solver == "ode" and scenario.dt == pytest.approx(2e-3)
    rho0 = scenario.initial_state()
    space = scenario.space()
    assert rho0.matrix[space.index(1, "g"), space.index(1, "g")] == pytest.approx(0.5)


@pytest.mark.parametrize("mutation,match", [
    ({"model": "bogus"}, "model"),
    ({"steps": "0"}, "at least 2"),
    ({"steps": "1"}, "at least 2"),
    ({"tau_max": "-1"}, "tau_max"),
    ({"nmax": "1"}, "spare photon levels"),
    ({"initial": "fock:1,q"}, "initial"),
    ({"initial": "dressed:0,+"}, "initial|dressed"),
    ({"omega0": "0"}, "omega0"),
    ({"solver": "ode"}, "dt"),
    ({"rabi": "nonsense"}, "bad value"),
    ({"model": "single"}, "model"),  # the one-excitation sector is micro's, not a model
])
def test_scenario_validation_errors(mutation, match):
    mapping = parse_config(MICRO_TEXT)
    mapping.update(mutation)
    with pytest.raises(ConfigError, match=match):
        scenario_from_mapping(mapping)


def test_unknown_and_missing_keys():
    mapping = parse_config(MICRO_TEXT)
    mapping["mystery"] = "1"
    with pytest.raises(ConfigError, match="unknown config keys"):
        scenario_from_mapping(mapping)
    mapping = parse_config(MICRO_TEXT)
    del mapping["omega0"]
    with pytest.raises(ConfigError, match="missing required"):
        scenario_from_mapping(mapping)


def test_micro_requires_bath_and_phen_requires_rates():
    mapping = parse_config(MICRO_TEXT)
    for key in list(mapping):
        if key.startswith("bath."):
            del mapping[key]
    with pytest.raises(ConfigError, match="bath"):
        scenario_from_mapping(mapping)

    mapping = parse_config(PHEN_TEXT)
    del mapping["gamma0"]
    with pytest.raises(ConfigError, match="gamma0"):
        scenario_from_mapping(mapping)


def test_dressed_headroom_counts_photons():
    mapping = parse_config(PHEN_TEXT)
    mapping["initial"] = "dressed:2,-"
    with pytest.raises(ConfigError, match="spare photon levels"):
        scenario_from_mapping(mapping)
    mapping["nmax"] = "4"
    assert scenario_from_mapping(mapping).n_max == 4


def test_structured_bath_blocks():
    mapping = parse_config(MICRO_TEXT)
    mapping.update({
        "bath.kind": "ohmic",
        "bath.alpha": "0.1",
        "bath.cutoff": "2.0",
        "bath.temperature": "0.2",
    })
    del mapping["bath.gamma0"]
    scenario = scenario_from_mapping(mapping)
    assert scenario.bath.spectrum.alpha == pytest.approx(0.1)
    assert scenario.generator().dim == 6

    mapping.update({
        "bath.kind": "lorentzian",
        "bath.gamma0": "0.05",
        "bath.center": "1.0",
        "bath.halfwidth": "0.3",
    })
    del mapping["bath.alpha"], mapping["bath.cutoff"]
    scenario = scenario_from_mapping(mapping)
    assert scenario.bath.spectrum.halfwidth == pytest.approx(0.3)

    mapping["bath.kind"] = "square"
    with pytest.raises(ConfigError, match="bath.kind"):
        scenario_from_mapping(mapping)
    mapping["bath.kind"] = "ohmic"  # lorentzian keys left over, alpha missing
    with pytest.raises(ConfigError, match="invalid bath block"):
        scenario_from_mapping(mapping)


def test_with_model_revalidates():
    scenario = scenario_from_config(MICRO_TEXT)
    with pytest.raises(ConfigError, match="gamma0"):
        replace(scenario, model="phen")


@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_lindblad_terms_hand_back_the_channels_of_their_jumps(model):
    scenario = replace(scenario_from_config(MICRO_TEXT), model=model, gamma0=0.04, nbar=0.0)
    h, jumps, channels = scenario.lindblad_terms()
    assert np.array_equal(h, hamiltonian(scenario.params, scenario.space()))
    if model == "phen":
        assert channels is None
        return
    fresh = scenario.lindblad_terms()[2]
    assert len(channels) == len(fresh) == len(jumps)
    for (omega, op, g), (fresh_omega, fresh_op, fresh_g), jump in zip(channels, fresh, jumps):
        assert jump[0] is op and jump[1] == g
        assert (omega, g, op.dim) == (fresh_omega, fresh_g, fresh_op.dim)
        for field in ("rows", "cols", "values"):
            assert np.array_equal(getattr(op, field), getattr(fresh_op, field))
