"""Command-line front end: evolve, compare, steady, spectrum, verify.

All numeric output except the three-digit advisory comment lines goes
through the shortest round-trip decimal representation (up to 17
significant digits), CSV files are written atomically (temp file +
rename) with LF line endings and the umask's mode, and repeated runs
on one machine and BLAS kernel produce byte-identical files.

``evolve`` and ``compare``, like the battery behind ``verify``, solve
each trajectory with :func:`jcsim.scenario.run_trajectory` on the states
S its initial state can reach (the whole space once absorption is live).
``steady`` and ``spectrum`` are statements about the whole generator and
solve all of it.

Exit codes: 0 success, 1 configuration error, 2 numerical or
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .acceptance import run_all_criteria
from .generators import microscopic_channels, secular_margin
from .hilbert import DensityMatrix
from .scenario import ConfigError, Scenario, Trajectory, run_trajectory, scenario_from_config
from .solver import (DampingBasisError, KernelMultiplicityError, StepSizeError, damping_basis,
                     dominant_frequency, rk4_step_limit, steady_state)


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the float (17 significant digits max)."""
    return repr(float(value))


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)  # mkstemp creates 0600; give the file the mode open() would
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jcsim-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:  # e.g. a missing or unwritable directory
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _csv(header: list[str], rows) -> str:
    """Header and rows, each value as :func:`_fmt` writes it: repr of the list, re-separated."""
    body = repr(np.asarray(rows, dtype=float).tolist())[2:-2]
    return ",".join(header) + "\n" + body.replace("], [", "\n").replace(", ", ",") + "\n"


def _three_digits(value: float, up: bool) -> float:
    """``value`` rounded up (or down) to 3 significant digits: its decimal parses at or above
    (at or below) ``value``."""
    sign = 1 if up else -1
    scale = 10.0 ** (np.floor(np.log10(value)) - 2)
    steps = sign * np.ceil(sign * value / scale)
    while sign * float(f"{steps * scale:.3g}") < sign * value:  # the decimal may parse past value
        steps += sign
    return float(f"{steps * scale:.3g}")


def _ode_step_bound(diagonal: np.ndarray) -> str:
    """:func:`rk4_step_limit` of a generator's diagonal, rounded down to 3 significant digits."""
    return f"{_three_digits(rk4_step_limit(diagonal), up=False):.3g}"


def run_evolve(scenario: Scenario, out_path: str) -> Trajectory:
    """Write 'tau,<observables>' CSV for one scenario and return its trajectory.

    A damping basis that fails on the spectral route names the RK4 route
    and a step the full generator accepts; the route is never switched
    silently.
    """
    try:
        run = run_trajectory(scenario)
    except DampingBasisError as exc:
        bound = _ode_step_bound(scenario.generator().diagonal())
        raise DampingBasisError(f"{exc}; rerun with --solver ode --dt {bound}") from exc
    tau = scenario.tau_grid()
    header = ["tau"] + list(scenario.observables.names)
    columns = [tau] + [run.observables[n] for n in scenario.observables.names]
    _write_atomic(out_path, _csv(header, np.column_stack(columns)))
    return run


def _reduced(scenario: Scenario) -> tuple[dict[str, np.ndarray], float]:
    """A run's observables and dominant frequency; its states and basis are freed on return."""
    try:
        run = run_trajectory(scenario)
        basis = run.basis or damping_basis(run.liouvillian)  # the ode route solves it for this only
    except (DampingBasisError, StepSizeError) as exc:
        note = ("; compare reads each model's frequency from its damping basis on either route"
                if isinstance(exc, DampingBasisError) else "")
        raise type(exc)(f"model {scenario.model}: {exc}{note}") from exc
    return run.observables, dominant_frequency(basis, run.rho0)


def run_compare(scenario_a: Scenario, scenario_b: Scenario, out_path: str) -> dict:
    """Run two scenarios that differ only in model, as :func:`main` builds them; CSV and summary.

    The CSV is written last, so a run that fails writes none.
    """
    if scenario_a.model == scenario_b.model:
        raise ConfigError(f"compare needs two different models, got {scenario_a.model!r} twice")
    (observables_a, freq_a), (observables_b, freq_b) = _reduced(scenario_a), _reduced(scenario_b)
    shift = abs(freq_a - freq_b)
    reference = max(abs(freq_a), abs(freq_b))
    names = scenario_a.observables.names
    summary = {
        "max_abs_delta": {
            name: float(np.abs(observables_a[name] - observables_b[name]).max())
            for name in names
        },
        f"frequency_{scenario_a.model}": freq_a,
        f"frequency_{scenario_b.model}": freq_b,
        "frequency_shift": shift,
        "relative_frequency_shift": shift / reference if reference > 0 else 0.0,
    }

    header, columns = ["tau"], [scenario_a.tau_grid()]
    for name in names:
        header += [f"{name}_{scenario_a.model}", f"{name}_{scenario_b.model}", f"delta_{name}"]
        va, vb = observables_a[name], observables_b[name]
        columns += [va, vb, va - vb]
    _write_atomic(out_path, _csv(header, np.column_stack(columns)))
    return summary


def run_spectrum(scenario: Scenario, out_path: str) -> None:
    """Write 're,im' CSV of Liouvillian eigenvalues, (Re desc, Im asc)."""
    lam = damping_basis(scenario.generator()).eigenvalues
    if not np.isfinite(lam).all():
        raise DampingBasisError(f"non-finite Liouvillian eigenvalue {lam[~np.isfinite(lam)][0]}")
    _write_atomic(out_path, _csv(["re", "im"], np.column_stack([lam.real, lam.imag])))


def run_steady(scenario: Scenario, out_path: str) -> DensityMatrix:
    """Write the stationary density matrix as 'row,col,re,im' CSV and return it."""
    rho = steady_state(scenario.generator())
    col, row = np.indices((rho.dim, rho.dim)).reshape(2, -1)  # column-major, as vec
    values = rho.matrix[row, col]
    _write_atomic(out_path, _csv(["row", "col", "re", "im"],
                                 np.column_stack([row, col, values.real, values.imag])))
    return rho


def run_verify() -> int:
    """Run the acceptance suite, print one line per criterion, return exit code."""
    results = run_all_criteria()
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  criterion {result.number}: {result.name}")
        for line in result.lines:
            print(f"      {line}")
    if failed:
        first = failed[0]
        print(f"FAILED at criterion {first.number}: {first.name}")
        return 2
    print(f"all {len(results)} criteria passed")
    return 0


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if not args.config:
        raise ConfigError("--config is required")
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    scenario = scenario_from_config(text)
    overrides = {}
    if args.model and "," in args.model and args.command != "compare":
        raise ConfigError(f"--model takes a pair only with compare, got {args.model!r}")
    if args.model and "," not in args.model:
        overrides["model"] = args.model
    for field in ("n_max", "tau_max", "steps", "solver", "dt"):
        if getattr(args, field) is not None:
            overrides[field] = getattr(args, field)
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario


def _merges_into_zero(scenario: Scenario, freq_tol: float) -> bool:
    """Whether the micro channels at ``freq_tol`` hit the zero-frequency rejection."""
    try:
        microscopic_channels(scenario.params, scenario.space(), scenario.bath, freq_tol)
    except ValueError as exc:
        if "zero-frequency" in str(exc):
            return True
        raise
    return False


def _print_advisories(scenario: Scenario, channels: list, reached: np.ndarray) -> None:
    """The secular margin of a micro or dressed run's channels over the states S it reaches."""
    spacing_ratio, omega_ratio, pair = secular_margin(channels, reached)
    # judged as printed: rounding makes 0.082/0.82 come out as 0.10000000000000002
    verdict = "ok"
    if float(f"{spacing_ratio:.3g}") > 0.1:
        # freq_tol groups them from their spacing on (rounded up here), and not below it
        remedy = _three_digits(pair[1] - pair[0], up=True)
        verdict = f"NOT satisfied: omega = {pair[0]:.4g} and {pair[1]:.4g} are closest;"
        if scenario.model == "micro" and _merges_into_zero(scenario, remedy):
            nearest = min(abs(omega) for omega, _, _ in channels)
            verdict += (
                f" micro cannot merge them: freq_tol >= {remedy:.3g} also merges"
                f" omega = {nearest:.3g} and {-nearest:.3g} into omega = 0"
            )
        else:
            verdict += f" merging them takes freq_tol >= {remedy:.3g}"
    print(
        f"# secular margin: max rate / min Bohr spacing = {spacing_ratio:.3g} ({verdict}),"
        f" max rate / min |omega| = {omega_ratio:.3g}"
    )


def _print_edge_population(scenario: Scenario, diagonal: np.ndarray, basis: np.ndarray) -> None:
    """The cutoff check: the largest top Fock level population of state diagonals (..., n) held
    on ``basis`` (0 off it), small at or below 1e-10."""
    space = scenario.space()
    top = np.flatnonzero(np.isin(basis, [space.index(scenario.n_max, s) for s in ("g", "e")]))
    edge = float(diagonal[..., top].real.sum(axis=-1).max())
    print(
        f"# top Fock level population = {_fmt(edge)}"
        f" ({'ok' if edge <= 1e-10 else 'NOT small'})"
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsim",
        description="Lossy atom-cavity dynamics: evolve, compare, steady, spectrum, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("evolve", "compare", "steady", "spectrum"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to key=value config file")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--model", help="override model (compare: pair 'a,b')")
        cmd.add_argument("--nmax", dest="n_max", metavar="NMAX", type=int)
        cmd.add_argument("--tau-max", dest="tau_max", type=float)
        cmd.add_argument("--steps", type=int)
        cmd.add_argument("--solver", choices=("spectral", "ode"))
        cmd.add_argument("--dt", type=float)
    sub.add_parser("verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify()
        scenario = _load_scenario(args)
        if args.command == "evolve":
            run = run_evolve(scenario, args.out)
            if run.channels is not None:  # phen's jumps a and a† involve no secular approximation
                _print_advisories(scenario, run.channels, run.reached)
            _print_edge_population(scenario, run.series.diagonal(), run.reached)
        elif args.command == "compare":
            if not args.model or "," not in args.model:
                raise ConfigError("compare needs --model <model_a>,<model_b>")
            model_a, model_b = (m.strip() for m in args.model.split(",", 1))
            summary = run_compare(
                replace(scenario, model=model_a), replace(scenario, model=model_b), args.out
            )
            for key, value in summary.items():
                if isinstance(value, dict):
                    for name, v in value.items():
                        print(f"{key} {name} = {_fmt(v)}")
                else:
                    print(f"{key} = {_fmt(value)}")
        elif args.command == "steady":
            rho = run_steady(scenario, args.out)
            _print_edge_population(scenario, np.diagonal(rho.matrix), np.arange(rho.dim))
        elif args.command == "spectrum":
            run_spectrum(scenario, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DampingBasisError, KernelMultiplicityError, StepSizeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
