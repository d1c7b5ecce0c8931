"""Acceptance battery: runs every criterion at its stated tolerance.

One pass/fail line per criterion is printed (visible with `pytest -s`,
or through `jcsim verify`, which drives the same checks).
"""

from dataclasses import replace

import numpy as np
import pytest

from jcsim import acceptance, generators, scenario, solver
from jcsim.acceptance import RABI, run_all_criteria
from jcsim.bath import BathSpec, FlatSpectrum
from jcsim.hilbert import build_space
from jcsim.jcmodel import JCParams


@pytest.fixture(scope="module")
def results():
    return run_all_criteria()


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    result = results[number - 1]
    print(f"{'PASS' if result.passed else 'FAIL'}  criterion {result.number}: {result.name}")
    for line in result.lines:
        print(f"      {line}")
    assert result.passed, f"criterion {number} ({result.name}) failed:\n" + "\n".join(result.lines)


def test_shared_runs_are_solved_before_any_criterion(monkeypatch):
    solved = []

    def recording(scenario):
        solved.append((scenario.model, scenario.n_max, scenario.solver))
        return run_trajectory(scenario)

    run_trajectory = acceptance.run_trajectory
    monkeypatch.setattr(acceptance, "run_trajectory", recording)
    runs = acceptance._SharedRuns()
    routes = [(key, solver) for key in ("micro_rabi", "phen_rabi", "phen_bell")
              for solver in ("spectral", "ode")]
    assert list(runs.runs) == list(runs.runtimes) == routes  # micro_rabi spectral first
    assert solved == [(model, n_max, solver) for model, n_max in
                      (("micro", 2), ("phen", 2), ("phen", 3)) for solver in ("spectral", "ode")]
    solved.clear()
    assert all(acceptance.run_criterion(n, runs).passed for n in range(1, 11))
    assert solved == []


def test_battery_solves_only_on_the_reached_states(monkeypatch):
    def refuse(self):
        raise AssertionError("the battery solves on the states rho0 reaches, as evolve does")

    solves = []

    def counting(liouvillian):
        solves.append(liouvillian.dim)
        return damping_basis(liouvillian)

    def dense(self):
        raise AssertionError("the battery forms no dense Liouvillian")

    damping_basis = acceptance.damping_basis
    monkeypatch.setattr(scenario.Scenario, "generator", refuse)
    monkeypatch.setattr(generators.Superoperator, "matrix", property(dense))
    for module in (acceptance, scenario):
        monkeypatch.setattr(module, "damping_basis", counting)
    assert [r.number for r in run_all_criteria() if not r.passed] == []
    # three spectral runs, criterion 4's sweep over the 2 gammas no shared run solves x 2
    # models, and criterion 5's Ohmic bath; its flat bath is micro_rabi's
    assert len(solves) == 8


def test_criteria_4_and_5_read_the_shared_bases_a_fresh_solve_gives():
    runs = acceptance._SharedRuns()
    for key, changes in (("micro_rabi", {"bath": BathSpec(0.0, FlatSpectrum(0.1 * 2.0 * RABI))}),
                         ("phen_rabi", {"gamma0": 0.1 * 2.0 * RABI})):
        reused, rho0 = acceptance._basis(runs, key, **changes)
        assert reused is runs.get(key).basis and rho0 is runs.get(key).rho0
        scenario = replace(acceptance._SCENARIOS[key], **changes)
        h, jumps, _ = scenario.lindblad_terms()
        liouvillian, fresh_rho0, _ = generators.restricted_lindblad(
            h, jumps, scenario.initial_state().matrix)
        fresh = solver.damping_basis(liouvillian)
        assert np.array_equal(reused.eigenvalues, fresh.eigenvalues)
        assert len(reused.groups) == len(fresh.groups)
        for got, want in zip(reused.groups, fresh.groups):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert (solver.dominant_frequency(reused, rho0)
                == solver.dominant_frequency(fresh, fresh_rho0))


def test_micro_and_dressed_generators_are_equal_bit_for_bit_at_criterion_6s_point():
    # a flat bath at T = 0, rabi 0.2, gamma0 0.04, nmax 4
    params, space, gamma0 = JCParams(acceptance.OMEGA0, 0.2), build_space(4), 0.04
    micro = generators.microscopic_generator(params, space, BathSpec(0.0, FlatSpectrum(gamma0)))
    dressed = generators.dressed_approx_generator(params, space, gamma0, 0.0)
    for field in ("rows", "cols", "values"):
        assert getattr(micro, field).tobytes() == getattr(dressed, field).tobytes(), field


@pytest.fixture(scope="module")
def runs():
    return acceptance._SharedRuns()


def _moved_value(gen):
    values = gen.values.copy()
    values[7] += 1e-9
    return replace(gen, values=values)


def _dropped_entry(gen):
    return replace(gen, rows=gen.rows[1:], cols=gen.cols[1:], values=gen.values[1:])


@pytest.mark.parametrize("corrupt, shown", [(_moved_value, "1.000e-09"), (_dropped_entry, "inf")])
def test_criterion_6_fails_on_a_corrupted_dressed_generator(monkeypatch, runs, corrupt, shown):
    build = acceptance.dressed_approx_generator
    monkeypatch.setattr(acceptance, "dressed_approx_generator",
                        lambda *args: corrupt(build(*args)))
    result = acceptance.run_criterion(6, runs)
    assert not result.passed
    assert result.lines == [f"FAIL micro vs dressed, every generator entry: {shown} < 1.000e-12"]


def test_criterion_6_reads_exactly_zero_so_only_a_zero_tolerance_fails_it(runs):
    assert acceptance.run_criterion(6, runs).lines == [
        "ok   micro vs dressed, every generator entry: 0.000e+00 < 1.000e-12"]
    # the deviation is exactly 0, so it stays below any positive threshold, here 1e-20
    assert acceptance.run_criterion(6, runs, tolerance_scale=1e-8).passed
    assert not acceptance.run_criterion(6, runs, tolerance_scale=0.0).passed
