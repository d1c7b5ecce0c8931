"""Acceptance battery: runs every criterion at its stated tolerance.

One pass/fail line per criterion is printed (visible with `pytest -s`,
or through `jcsim verify`, which drives the same checks).
"""

import pytest

from jcsim import acceptance, generators, scenario
from jcsim.acceptance import run_all_criteria


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
    # three spectral runs, criterion 4's sweep over 3 gammas x 2 models, criterion 5's 2 baths
    assert len(solves) == 11
