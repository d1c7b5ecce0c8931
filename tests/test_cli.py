import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jcsim import acceptance, analytic, cli, hilbert, solver
from jcsim.acceptance import (_SCENARIOS, DT, CriterionResult, _SharedRuns, run_all_criteria,
                              run_criterion)
from jcsim.analytic import rabi_micro
from jcsim.bath import BathSpec, FlatSpectrum, occupation, rate
from jcsim.generators import (Superoperator, eigenoperators, microscopic_channels, model_terms,
                              restricted_lindblad)
from jcsim.hilbert import build_space
from jcsim.jcmodel import Eigensystem, JCParams
from jcsim.scenario import MODELS, ConfigError, run_trajectory, scenario_from_config

BASE = """
model = micro
omega0 = 1.0
rabi = 0.2
nmax = 2
bath.kind = flat
bath.temperature = 0.0
bath.gamma0 = 0.04
gamma0 = 0.04
nbar = 0.0
initial = fock:0,e
tau_max = 60.0
steps = 400
observables = pop_0g,atomic_ground
solver = spectral
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BELL = BASE.replace("initial = fock:0,e", "initial = dressed:1,+").replace(
    "nmax = 2", "nmax = 3"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        data = np.loadtxt(handle, delimiter=",")
    return header, data


def test_evolve_writes_oracle_accurate_csv(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "rabi.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == ["tau", "pop_0g", "atomic_ground"]
    tau = data[:, 0]
    t = tau / (2.0 * 0.2)
    p0g, _, pg = rabi_micro(t, 0.04, 0.04, 0.2)
    assert np.abs(data[:, 1] - p0g).max() < 1e-8
    assert np.abs(data[:, 2] - pg).max() < 1e-8


def test_evolve_phen_matches_closed_form(tmp_path):
    from jcsim.analytic import rabi_phen

    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "phen.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out),
                     "--model", "phen"]) == 0
    _, data = _read_csv(out)
    t = data[:, 0] / (2.0 * 0.2)
    p0g, _, pg = rabi_phen(t, 0.04, 0.2)
    assert np.abs(data[:, 1] - p0g).max() < 1e-6
    assert np.abs(data[:, 2] - pg).max() < 1e-6


def test_evolve_dressed_model_tracks_micro_for_white_noise(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out_micro, out_dressed = tmp_path / "m.csv", tmp_path / "d.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out_micro)]) == 0
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out_dressed),
                     "--model", "dressed"]) == 0
    _, micro = _read_csv(out_micro)
    _, dressed = _read_csv(out_dressed)
    assert np.abs(micro - dressed).max() < 1e-10


def test_evolve_output_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["evolve", "--config", str(cfg), "--out", str(out_a)])
    cli.main(["evolve", "--config", str(cfg), "--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_written_files_follow_the_umask(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "rabi.csv"
    previous = os.umask(0o022)
    try:
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644


OK_MARGIN = ("# secular margin: max rate / min Bohr spacing = 0.1 (ok),"
             " max rate / min |omega| = 0.139")
EDGE = "# top Fock level population = "
NO_EDGE = EDGE + "0.0 (ok)"  # the states rho0 reaches exclude the top Fock level


@pytest.mark.parametrize("model", ["micro", "dressed"])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_secular_margin_on_bundled_configs(tmp_path, capsys, config, model):
    # only the (1, +-) -> ground channels at 0.59 and 1.41 are reached
    assert cli.main(["evolve", "--config", str(CONFIGS / config), "--model", model,
                     "--steps", "10", "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().out.splitlines() == [OK_MARGIN, NO_EDGE]


@pytest.mark.parametrize("model, ratio, pair, freq_tol", [
    # the live (2,+) -> (3,-) channel at 0.29 carries micro into manifold 3
    ("micro", "2.08", "0.8302 and 0.8697", "0.0396"),
    ("dressed", "0.341", "1.17 and 1.41", "0.241"),
])
def test_secular_margin_fails_beyond_one_excitation(tmp_path, capsys, model, ratio, pair,
                                                    freq_tol):
    text = (BASE.replace("rabi = 0.2", "rabi = 0.41").replace("0.04", "0.082")
            .replace("nmax = 2", "nmax = 3").replace("fock:0,e", "fock:1,e"))
    cfg = _write(tmp_path, "f1e.cfg", text)
    assert cli.main(["evolve", "--config", str(cfg), "--model", model,
                     "--out", str(tmp_path / "x.csv")]) == 0
    # micro's ±0.0102 channels of (1, +)/(2, -) would merge into omega = 0 at that freq_tol
    remedy = {
        "micro": f"micro cannot merge them: freq_tol >= {freq_tol} also merges"
                 " omega = 0.0102 and -0.0102 into omega = 0",
        "dressed": f"merging them takes freq_tol >= {freq_tol}",
    }[model]
    margin, edge = capsys.readouterr().out.splitlines()
    assert margin == (
        f"# secular margin: max rate / min Bohr spacing = {ratio} (NOT satisfied: "
        f"omega = {pair} are closest; {remedy}), max rate / min |omega| = 8.06"
    )
    if model == "dressed":  # its jumps never raise the excitation number
        assert edge == NO_EDGE
    else:  # past the (2,+)/(3,-) crossing micro reaches the top level
        assert edge.startswith(EDGE) and edge.endswith(" (NOT small)")
        assert float(edge[len(EDGE):].split(" ")[0]) == pytest.approx(1.1725e-3, rel=1e-4)


@pytest.mark.parametrize("model, freq_tol, code", [("micro", "0.0396", 2), ("dressed", "0.241", 0)])
def test_secular_remedy_is_offered_only_where_the_build_takes_it(tmp_path, capsys, model,
                                                                 freq_tol, code):
    text = (BASE.replace("rabi = 0.2", "rabi = 0.41").replace("0.04", "0.082")
            .replace("nmax = 2", "nmax = 3").replace("fock:0,e", "fock:1,e"))
    cfg = _write(tmp_path, "f1e.cfg", text + f"freq_tol = {freq_tol}\n")
    assert cli.main(["evolve", "--config", str(cfg), "--model", model,
                     "--out", str(tmp_path / "x.csv")]) == code
    captured = capsys.readouterr()
    if code:
        assert "zero-frequency jump channel" in captured.err
    else:  # the pair the advisory named now shares one channel
        assert "omega = 1.17 and 1.41 are closest" not in captured.out


def test_secular_remedy_merges_the_pair_it_names(capsys):
    # the spacing 0.052500000000000005 lies a few ulps above the decimal 0.0525
    energies = np.array([0.0, 0.100095, 0.152595])
    eigensystem = Eigensystem(energies, np.eye(3), ["ground", (1, -1), (1, +1)])
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[0, 2] = 1.0
    channels = [(omega, op, 0.03) for omega, op in eigenoperators(coupling, eigensystem, 1e-9)]
    assert [omega for omega, _, _ in channels] == [0.100095, 0.152595]
    scenario = replace(scenario_from_config(BASE), model="dressed")
    cli._print_advisories(scenario, channels, np.arange(3))
    margin = capsys.readouterr().out
    assert "merging them takes freq_tol >= 0.0526)" in margin
    assert float("0.0526") >= 0.152595 - 0.100095
    assert len(eigenoperators(coupling, eigensystem, float("0.0526"))) == 1


def test_secular_margin_skips_phen_and_reads_zero_without_loss(tmp_path, capsys):
    cfg = _write(tmp_path, "rabi.cfg", BASE.replace("\ngamma0 = 0.04", "\ngamma0 = 0.0"))
    out = str(tmp_path / "x.csv")
    assert cli.main(["evolve", "--config", str(cfg), "--model", "phen", "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [NO_EDGE]
    assert cli.main(["evolve", "--config", str(cfg), "--model", "dressed", "--out", out]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "# secular margin: max rate / min Bohr spacing = 0 (ok), max rate / min |omega| = 0",
        NO_EDGE,
    ]


def test_evolve_flag_overrides(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "short.csv"
    code = cli.main([
        "evolve", "--config", str(cfg), "--out", str(out),
        "--steps", "50", "--tau-max", "10.0",
    ])
    assert code == 0
    _, data = _read_csv(out)
    assert data.shape[0] == 50
    assert data[-1, 0] == pytest.approx(10.0)


def test_a_bath_too_cold_for_exp_runs_without_a_warning(tmp_path, capsys):
    # at T = 0.002 some micro channels have omega/T > 709.8, where exp(omega/T) overflows
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text()
    cfg = _write(tmp_path, "cold.cfg", text.replace("bath.temperature = 0.0",
                                                    "bath.temperature = 0.002"))
    for command in ("evolve", "steady"):
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / f"{command}.csv")]) == 0
        assert capsys.readouterr().err == ""


def test_config_errors_exit_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out)]) == 1
    bad = _write(tmp_path, "bad.cfg", BASE.replace("steps = 400", "steps = 0"))
    assert cli.main(["evolve", "--config", str(bad), "--out", str(out)]) == 1
    capsys.readouterr()
    single = _write(tmp_path, "single.cfg", BASE.replace("model = micro", "model = single"))
    assert cli.main(["steady", "--config", str(single), "--out", str(out)]) == 1
    assert "config error: model must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("initial", ["fock:x,g", "fock:1.5,g", "dressed:x,+", "fock:,e"])
def test_non_integer_initial_level_is_a_config_error(tmp_path, capsys, initial):
    cfg = _write(tmp_path, "bad.cfg", BASE.replace("initial = fock:0,e", f"initial = {initial}"))
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: initial must be 'ground', 'fock:<n>,<g|e>' or 'dressed:<N>,<+|->', "
        f"got {initial!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "0.0"])
@pytest.mark.parametrize("model", MODELS)
def test_non_positive_freq_tol_is_a_config_error(tmp_path, capsys, model, value):
    cfg = _write(tmp_path, "bad.cfg", BASE + f"freq_tol = {value}\n")
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--model", model, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: freq_tol must be positive, got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "steady"])
@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("taken", "Is a directory"),  # the temp file is written, then cannot replace a directory
])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command, target, reason):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    (tmp_path / "taken").mkdir()
    out = tmp_path / target
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rabi.cfg", "taken"]
    assert not any((tmp_path / "taken").iterdir())


_OHMIC = BASE.replace("bath.kind = flat", "bath.kind = ohmic").replace(
    "bath.gamma0 = 0.04", "bath.alpha = 0.04\nbath.cutoff = 2.0")
_LORENTZIAN = BASE.replace("bath.kind = flat", "bath.kind = lorentzian").replace(
    "bath.gamma0 = 0.04", "bath.gamma0 = 0.04\nbath.center = 1.0\nbath.halfwidth = 0.25")
# every float key of the config format: a config that holds it, and a model that reads it
_FLOAT_KEYS = {
    "omega0": (BASE, "phen"), "rabi": (BASE, "phen"), "tau_max": (BASE, "phen"),
    "dt": (BASE, "phen"), "gamma0": (BASE, "phen"), "nbar": (BASE, "dressed"),
    "freq_tol": (BASE, "micro"), "bath.temperature": (BASE, "micro"),
    "bath.gamma0": (BASE, "micro"), "bath.alpha": (_OHMIC, "micro"),
    "bath.cutoff": (_OHMIC, "micro"), "bath.center": (_LORENTZIAN, "micro"),
    "bath.halfwidth": (_LORENTZIAN, "micro"),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", list(_FLOAT_KEYS))
def test_non_finite_number_is_a_config_error(tmp_path, capsys, key, value):
    base, model = _FLOAT_KEYS[key]
    lines = [line for line in base.splitlines() if not line.startswith(f"{key} =")]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(lines + [f"{key} = {value}"]))
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--model", model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key.removeprefix("bath.") in err
    assert not out.exists()


@pytest.mark.parametrize("base, stray", [
    (BASE, "bath.alpha = 5.0\nbath.halfwidth = 3"), (_OHMIC, "bath.gamma0 = 0.04"),
    (_LORENTZIAN, "bath.cutoff = 2.0")], ids=["flat", "ohmic", "lorentzian"])
def test_bath_key_its_kind_does_not_take_is_a_config_error(tmp_path, capsys, base, stray):
    cfg = _write(tmp_path, "bad.cfg", base + stray)
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    kind = next(line for line in base.splitlines() if line.startswith("bath.kind"))
    keys = ", ".join(line.split(" =")[0] for line in stray.splitlines())
    assert err == f"config error: {kind} takes no {keys}\n"
    assert not out.exists()


@pytest.mark.parametrize("model", MODELS)
def test_bath_key_without_a_kind_is_a_config_error(tmp_path, capsys, model):
    cfg = _write(tmp_path, "bad.cfg", BASE.replace("bath.kind = flat\n", ""))
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), "--model", model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: bath.temperature, bath.gamma0 set without bath.kind\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, key", [("--tau-max", "tau_max"), ("--dt", "dt")])
def test_non_finite_override_is_a_config_error(tmp_path, capsys, flag, key, value):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(cfg), flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {key} must be finite, got {value}\n"
    assert not out.exists()


def test_solver_failure_exits_2(tmp_path):
    # RK4 step far beyond the stability guard
    text = BASE.replace("solver = spectral", "solver = ode\ndt = 0.5")
    cfg = _write(tmp_path, "stiff.cfg", text)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("dt, shown, count", [("1e-20", "1.000e-20", "1.829e+20"),
                                              ("1e-310", "1.000e-310", "inf")])
def test_rk4_substep_count_past_2_to_the_53_exits_2(tmp_path, capsys, dt, shown, count):
    # span / dt = 1.83 / dt substeps would overflow the int64 count into one RK4 step of the span
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", "--config", str(CONFIGS / "rabi_joint_ground.cfg"), "--solver",
                     "ode", "--dt", dt, "--steps", "2", "--tau-max", "1.5",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"solver failure: dt = {shown} needs {count} RK4 "
                                       "substeps on one grid interval, more than 2**53\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["evolve"], ["evolve", "--solver", "ode", "--dt", "1e-3"],
                                  ["compare", "--model", "micro,phen"]])
@pytest.mark.parametrize("tau_max, rabi", [(1.7e308, 0.41), (100.0, 1e-310)])
def test_overflowing_time_grid_is_a_config_error(tmp_path, capsys, argv, tau_max, rabi):
    # both are finite, but t = tau/(2*rabi) is not
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text()
    text = text.replace("rabi = 0.41", f"rabi = {rabi!r}").replace(
        "tau_max = 100.0", f"tau_max = {tau_max!r}")
    cfg, out = _write(tmp_path, "huge.cfg", text), tmp_path / "x.csv"
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: t = tau/(2*rabi) overflows at "
                                       f"tau_max = {tau_max} and rabi = {rabi}\n")
    assert not out.exists()


def _unresolved_message(largest: str, step: str, rabi: str) -> str:
    return ("config error: the largest Bohr frequency 2*(omega0*(nmax+1) + rabi*sqrt(nmax+1)) = "
            f"{largest} is not resolved to freq_tol = 1e-09 (one float step there is {step}) at "
            f"omega0 = 1.0, rabi = {rabi} and nmax = 2\n")


@pytest.mark.parametrize("command", ["steady", "evolve", "spectrum"])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_overflowing_energy_scale_is_a_config_error(tmp_path, capsys, command, model):
    # rabi is finite, but the largest Bohr frequency is not, and one float step of inf is inf
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", "rabi = 1e308")
    cfg, out = _write(tmp_path, "huge.cfg", text), tmp_path / "x.csv"
    assert cli.main([command, "--model", model, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == _unresolved_message("inf", "inf", "1e+308")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "evolve", "steady"])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_unresolved_energy_scale_fails_a_gate(tmp_path, capsys, command, model):
    # the Bohr frequencies are finite at rabi 5e307, but one float step there is 2e292; micro's
    # channel means used to overflow and phen's and dressed's pairing residuals to come out nan
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", "rabi = 5e307")
    cfg, out = _write(tmp_path, "huge.cfg", text), tmp_path / "x.csv"
    assert cli.main([command, "--model", model, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == _unresolved_message("1.73205e+308", "2e+292", "5e+307")
    assert not out.exists()


@pytest.mark.parametrize("rabi, largest, step, channels", [
    ("4e15", "1.38564e+16", "2", 16), ("1e16", "3.4641e+16", "4", 10)])
@pytest.mark.parametrize("model", ["micro", "phen", "dressed"])
def test_bohr_frequencies_finer_than_a_float_step_are_a_config_error(
        tmp_path, capsys, model, rabi, largest, step, channels):
    # far below overflow, rounding already decides which Bohr frequencies merge: at nmax 2 the
    # micro build finds 16 channels at rabi 4e15 (as at 0.41) but 10 at 1e16
    params = JCParams(1.0, float(rabi))
    assert len(microscopic_channels(params, build_space(2), BathSpec(0.0, FlatSpectrum(0.082)))) == channels
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", f"rabi = {rabi}")
    cfg, out = _write(tmp_path, "fine.cfg", text), tmp_path / "x.csv"
    assert cli.main(["evolve", "--model", model, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == _unresolved_message(largest, step, f"{float(rabi)}")
    assert not out.exists()


@pytest.mark.parametrize("rabi, freq_tol, resolved", [
    (2e6, None, True), (3e6, None, False), (3e6, 1e-8, True)])
def test_resolution_check_compares_one_float_step_with_freq_tol(rabi, freq_tol, resolved):
    # at nmax 2 the largest Bohr frequency is 2(3 + rabi sqrt(3)); one float step of it stays
    # below the default 1e-9 up to 2**23 (rabi ~ 2.4e6), and below 1e-8 up to 2**26
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", f"rabi = {rabi}")
    if freq_tol is not None:
        text += f"freq_tol = {freq_tol}\n"
    if resolved:
        scenario_from_config(text)
    else:
        with pytest.raises(ConfigError, match=r"is not resolved to freq_tol = 1e-09 \(one float "
                                              r"step there is 1\.86e-09\)"):
            scenario_from_config(text)


@pytest.mark.parametrize("rabi", ["1.0", "1e3"])
@pytest.mark.parametrize("command", ["evolve", "steady", "spectrum"])
@pytest.mark.parametrize("model", ["micro", "dressed"])
def test_a_crossed_ground_level_is_a_config_error(tmp_path, capsys, model, command, rabi):
    # at rabi >= omega0 the dressed level (1,-) at omega0/2 - rabi lies at or below |0,g>;
    # micro's build used to fail on a zero-frequency channel at rabi 1.0, and to exit 0 with a
    # plausible wrong curve at rabi 1e3
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", f"rabi = {rabi}")
    cfg, out = _write(tmp_path, "crossed.cfg", text), tmp_path / "x.csv"
    assert cli.main([command, "--model", model, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: model = {model} needs rabi < omega0: at rabi = {float(rabi)} and "
        "omega0 = 1.0 the dressed level (1,-) lies at or below |0,g>, so the excitation "
        "manifolds cross\n")
    assert not out.exists()


@pytest.mark.parametrize("rabi", [1.0, 1e3])
def test_phen_runs_past_a_crossed_ground_level(tmp_path, rabi):
    # phen's jumps are a and a†, no dressed-level channels, so it needs no ordering of levels
    text = (CONFIGS / "rabi_joint_ground.cfg").read_text().replace("rabi = 0.41", f"rabi = {rabi}")
    cfg, out = _write(tmp_path, "crossed.cfg", text), tmp_path / "x.csv"
    assert cli.main(["evolve", "--model", "phen", "--config", str(cfg), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    p0g, _, _ = analytic.rabi_phen(data[:, 0] / (2.0 * rabi), 0.082, rabi)
    assert np.abs(data[:, 1] - p0g).max() < 1e-8


def test_spectrum_refuses_a_non_finite_eigenvalue(tmp_path, capsys, monkeypatch):
    basis = solver.DampingBasis(np.array([0.0, complex(-1.0, np.inf)]), ())
    monkeypatch.setattr(cli, "damping_basis", lambda liouvillian: basis)
    out = tmp_path / "x.csv"
    argv = ["spectrum", "--config", str(CONFIGS / "rabi_joint_ground.cfg"), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "solver failure: non-finite Liouvillian eigenvalue (-1+infj)\n"
    assert not out.exists()


def _thermal(tmp_path, config):
    """A bundled config at T = 0.22, where absorption lets rho0 reach every state."""
    nbar = float(occupation(1.0, 0.22))
    text = (CONFIGS / config).read_text().replace("temperature = 0.0", "temperature = 0.22")
    text = text.replace("nbar = 0.0", f"nbar = {nbar!r}")
    return _write(tmp_path, config, text)


def test_ill_conditioned_damping_basis_names_cond(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for argv, cfg in (
        # spectrum solves the whole generator, so the wall stands at T = 0
        (["spectrum"], CONFIGS / "rabi_joint_ground.cfg"),
        # the RK4 trajectories pass; the frequency summary's damping basis fails
        (["compare", "--model", "micro,phen", "--solver", "ode", "--dt", "5e-4",
          "--tau-max", "0.01", "--steps", "2"], _thermal(tmp_path, "rabi_joint_ground.cfg")),
    ):
        assert cli.main(argv + ["--config", str(cfg), "--nmax", "13", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cond(R)" in err and "cluster" in err
        assert "--solver ode" not in err  # both still need the damping basis
        assert not out.exists()


_PAIRING = "left/right pairing failed in decoupled block 0 of "
_EITHER_ROUTE = "; compare reads each model's frequency from its damping basis on either route\n"


@pytest.mark.parametrize("models, nmax, route, start, end", [
    ("micro,phen", 12, [], "model micro: " + _PAIRING, _EITHER_ROUTE),
    ("micro,phen", 12, ["--solver", "ode", "--dt", "7e-4"], "model micro: " + _PAIRING,
     _EITHER_ROUTE),
    # phen is the second model; dressed passes at nmax 11
    ("dressed,phen", 11, [], "model phen: " + _PAIRING, _EITHER_ROUTE),
    ("micro,phen", 12, ["--solver", "ode", "--dt", "1e-3"],
     "model micro: dt = 1.000e-03 exceeds 0.01/max|diag L| = 7.690e-04\n", ""),
], ids=["spectral", "ode", "second-model", "ode-step"])
def test_compare_failure_names_the_model(tmp_path, capsys, models, nmax, route, start, end):
    cfg, out = _thermal(tmp_path, "rabi_joint_ground.cfg"), tmp_path / "c.csv"
    argv = ["compare", "--config", str(cfg), "--model", models, "--nmax", str(nmax),
            "--tau-max", "0.01", "--steps", "2", "--out", str(out)]
    assert cli.main(argv + route) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("solver failure: " + start) and captured.err.endswith(end)


def test_spectral_failure_names_the_rk4_remedy(tmp_path, capsys):
    cfg, out = _thermal(tmp_path, "bell_atomic_ground.cfg"), tmp_path / "e.csv"
    argv = ["evolve", "--config", str(cfg), "--model", "phen", "--nmax", "13", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "cond(R)" in err and not out.exists()
    liouvillian = replace(scenario_from_config(cfg.read_text()), model="phen", n_max=13).generator()
    limit = solver.rk4_step_limit(np.diag(liouvillian.matrix))
    bound = cli._ode_step_bound(np.diag(liouvillian.matrix))
    assert err.rstrip().endswith(f"; rerun with --solver ode --dt {bound}")
    assert 0.99 * limit <= float(bound) <= limit
    assert cli.main(argv + ["--solver", "ode", "--dt", bound]) == 0


def test_ode_step_is_held_to_the_full_generator(tmp_path, capsys):
    # the states rho0 reaches alone would accept a step several times longer
    cfg = CONFIGS / "bell_atomic_ground.cfg"
    scenario = replace(scenario_from_config(cfg.read_text()), n_max=13)
    h, jumps, _ = scenario.lindblad_terms()
    restricted, _, _ = restricted_lindblad(h, jumps, scenario.initial_state().matrix)
    dt = 2.0 * solver.rk4_step_limit(np.diag(scenario.generator().matrix))
    assert dt < solver.rk4_step_limit(np.diag(restricted.matrix))
    assert cli.main(["evolve", "--config", str(cfg), "--nmax", "13", "--solver", "ode",
                     "--dt", repr(dt), "--steps", "3", "--out", str(tmp_path / "x.csv")]) == 2
    assert "exceeds 0.01/max|diag L|" in capsys.readouterr().err


@pytest.mark.parametrize("ode_step, limit",
                         [(0.001, 0.001), (0.000769, 0.01 / 13), (0.00333, 0.01 / 3)])
def test_ode_step_bound_rounds_down(ode_step, limit):
    diagonal = np.array([0.0, -0.01 / limit, 0.0, 0.0])
    assert cli._ode_step_bound(diagonal) == repr(ode_step)
    assert float(cli._ode_step_bound(diagonal)) <= solver.rk4_step_limit(diagonal)
    # the secular remedy rounds the other way, and its decimal parses at or above the value
    assert limit <= cli._three_digits(limit, up=True) <= 1.01 * limit


_PHEN_ORACLES = {"fock": analytic.rabi_phen, "dressed": analytic.bell_phen}
_POPULATIONS = ("pop_0g", "pop_1g", "atomic_ground")


@pytest.mark.parametrize("nmax", [12, 16])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_phen_ode_route_meets_the_closed_forms_beyond_the_damping_basis(tmp_path, config, nmax):
    # from one excitation at T = 0 the phen closed forms hold at any nmax
    scenario = replace(scenario_from_config((CONFIGS / config).read_text()),
                       model="phen", n_max=nmax)
    dt = cli._ode_step_bound(np.diag(scenario.generator().matrix))
    out = tmp_path / "phen.csv"
    assert cli.main(["evolve", "--config", str(CONFIGS / config), "--model", "phen",
                     "--nmax", str(nmax), "--solver", "ode", "--dt", dt, "--out", str(out)]) == 0
    header, data = _read_csv(out)
    oracle = _PHEN_ORACLES[scenario.initial[0]](data[:, 0] / (2.0 * scenario.rabi),
                                                 scenario.gamma0, scenario.rabi)
    for column, name in enumerate(header[1:], start=1):
        assert np.abs(data[:, column] - oracle[_POPULATIONS.index(name)]).max() < 1e-6


_NEXT_MODEL = {"micro": "phen", "phen": "dressed", "dressed": "micro"}


@pytest.mark.parametrize("route", ["spectral", "ode"])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_evolve_and_compare_match_the_full_generator(tmp_path, capsys, config, route):
    # the CLI solves on the states rho0 reaches; the reference solves the whole space
    nmax, steps = 12, 200
    base = replace(scenario_from_config((CONFIGS / config).read_text()), n_max=nmax, steps=steps)
    scenarios = {model: replace(base, model=model) for model in MODELS}
    generators = {model: scenario.generator() for model, scenario in scenarios.items()}
    dt = min((cli._ode_step_bound(np.diag(full.matrix)) for full in generators.values()), key=float)
    expected, frequencies = {}, {}
    for model, scenario in scenarios.items():
        full, rho0, times = generators[model], scenario.initial_state(), scenario.time_grid()
        basis = solver.damping_basis(full)
        if route == "ode":
            series = solver.evolve_ode(full, rho0, times, float(dt))
        else:
            series = solver.evolve_spectral(basis, rho0, times)
        expected[model] = scenario.observables.evaluate(series, scenario.space())
        frequencies[model] = solver.dominant_frequency(basis, rho0)
    grid = ["--nmax", str(nmax), "--steps", str(steps), "--solver", route, "--dt", dt]
    names = base.observables.names
    for model in MODELS:
        out = tmp_path / f"{model}.csv"
        assert cli.main(["evolve", "--config", str(CONFIGS / config), "--model", model,
                         "--out", str(out)] + grid) == 0
        header, data = _read_csv(out)
        for column, name in enumerate(header[1:], start=1):
            assert np.abs(data[:, column] - expected[model][name]).max() <= 1e-13
        other = _NEXT_MODEL[model]
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(CONFIGS / config), "--model",
                         f"{model},{other}", "--out", str(out)] + grid) == 0
        header, data = _read_csv(out)
        for k, name in enumerate(names):
            for column, m in ((1 + 3 * k, model), (2 + 3 * k, other)):
                assert header[column] == f"{name}_{m}"
                assert np.abs(data[:, column] - expected[m][name]).max() <= 1e-13
        summary = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        for m in (model, other):
            assert float(summary[f"frequency_{m}"]) == pytest.approx(frequencies[m], rel=1e-13)


_MICRO_ORACLES = {"fock": lambda t, g, rabi: analytic.rabi_micro(t, g, g, rabi),
                  "dressed": lambda t, g, rabi: analytic.bell_micro(t, g)}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_compare_meets_the_closed_forms_at_nmax_30(tmp_path, capsys, config):
    # at T = 0 the runs stay on |0,g>, |0,e> and |1,g>, so the cutoff no longer matters
    scenario = scenario_from_config((CONFIGS / config).read_text())
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--config", str(CONFIGS / config), "--model", "micro,phen",
                     "--nmax", "30", "--out", str(out)]) == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    t = data[:, 0] / (2.0 * scenario.rabi)
    kind = scenario.initial[0]
    for oracles, model in ((_MICRO_ORACLES, "micro"), (_PHEN_ORACLES, "phen")):
        pops = oracles[kind](t, scenario.gamma0, scenario.rabi)
        for name in scenario.observables.names:
            column = header.index(f"{name}_{model}")
            assert np.abs(data[:, column] - pops[_POPULATIONS.index(name)]).max() < 1e-8


def test_no_command_builds_the_dense_generator(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the dense dim^2 x dim^2 generator was built")

    monkeypatch.setattr(Superoperator, "matrix", property(refuse))
    config, out = str(CONFIGS / "rabi_joint_ground.cfg"), str(tmp_path / "x.csv")
    ode = ["--solver", "ode", "--dt", "1e-3", "--tau-max", "2", "--steps", "20"]
    for argv in (["steady"], ["spectrum"], ["evolve"], ["evolve"] + ode,
                 ["compare", "--model", "micro,phen"], ["compare", "--model", "micro,phen"] + ode):
        assert cli.main(argv + ["--config", config, "--out", out]) == 0, argv
    for model in ("phen", "dressed"):
        for argv in (["steady"], ["spectrum"], ["evolve"], ["evolve"] + ode):
            assert cli.main(argv + ["--config", config, "--model", model, "--out", out]) == 0


def test_main_reuses_one_parser(tmp_path, capsys):
    config = str(CONFIGS / "bell_atomic_ground.cfg")
    calls = [
        ["evolve", "--config", config, "--nmax", "4", "--steps", "30"],
        ["evolve", "--config", config, "--model", "dressed"],
        ["steady", "--config", config, "--nmax", "5"],
        ["compare", "--config", config, "--model", "micro,phen", "--steps", "40"],
        ["evolve", "--config", config, "--solver", "ode", "--dt", "1e-3", "--tau-max", "1",
         "--steps", "5"],
        ["evolve", "--config", config],
        ["spectrum", "--config", config, "--model", "phen"],
        ["steady", "--config", config, "--model", "compare,phen"],  # exit 1
    ]

    def run(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        out = tmp_path / "x.csv"
        if out.exists():
            out.unlink()
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    in_a_row = [run(argv, fresh=False) for argv in calls]
    assert [result[0] for result in in_a_row] == [0] * 7 + [1]
    assert in_a_row == [run(argv, fresh=True) for argv in calls]
    assert cli._parser() is cli._parser()
    for argv, code in ((["--help"], 0), (["evolve", "--help"], 0), ([], 2), (["bogus"], 2),
                       (["evolve", "--config", config], 2), (["evolve", "--nmax", "x"], 2)):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == code
    capsys.readouterr()
    assert run(calls[0], fresh=False) == in_a_row[0]


def test_csv_writes_each_value_as_its_repr():
    values = np.array([[-0.0, 5e-324, 1e16], [1e-5, 0.1 + 0.2, 1.0 / 3.0],
                       [-2.5e-300, 123456789.125, np.nextafter(1.0, 2.0)]])
    col, row = np.indices((4, 4)).reshape(2, -1)  # the row/col indices steady writes
    for header, rows in ((["a", "b", "c"], values), (["row", "col"], np.column_stack([row, col]))):
        reference = "".join(",".join(repr(float(v)) for v in line) + "\n" for line in rows)
        assert cli._csv(header, rows) == ",".join(header) + "\n" + reference


def _count_entry_diagnostics(monkeypatch) -> list:
    """The shape of the entries each jcsim module hands to entry_diagnostics.

    A trajectory's entries are (steps, nnz); a single state's are (nnz,).
    """
    calls = []
    entries = hilbert.entry_diagnostics

    def counting(states, positions, dim):
        calls.append(np.shape(states))
        return entries(states, positions, dim)

    for module in [m for name, m in sys.modules.items() if name.startswith("jcsim.")]:
        if getattr(module, "entry_diagnostics", None) is entries:
            monkeypatch.setattr(module, "entry_diagnostics", counting)
    return calls


def test_evolve_runs_diagnostics_once_per_pass(tmp_path, monkeypatch, capsys):
    calls = _count_entry_diagnostics(monkeypatch)
    text = BASE.replace("observables = pop_0g,atomic_ground",
                        "observables = trace_defect,herm_defect,min_eigenvalue")
    cfg = _write(tmp_path, "diag.cfg", text)
    for route in ([], ["--solver", "ode", "--dt", "2e-3"]):
        calls.clear()
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]
                        + route) == 0
        # the trajectory's validation, on the 5 entries of the population block of |S| = 3;
        # the columns read its defects
        assert calls == [(400, 5)]


def test_verify_runs_diagnostics_once_per_shared_run(monkeypatch):
    calls = _count_entry_diagnostics(monkeypatch)
    assert all(result.passed for result in run_all_criteria())
    # three battery scenarios on two routes, each on its 5 entries, which criterion 9 reads;
    # and criterion 7's two steady states at nmax 20, each on its 82 nonzero entries
    assert sorted(calls) == [(82,)] * 2 + [(2000, 5)] * 6
    runs = _SharedRuns()  # solves the six shared runs
    calls.clear()
    assert run_criterion(9, runs).passed and calls == []


def test_steady_runs_diagnostics_once_on_its_entries(tmp_path, monkeypatch, capsys):
    calls = _count_entry_diagnostics(monkeypatch)
    cfg = _write(tmp_path, "thermal.cfg", BASE.replace("bath.temperature = 0.0",
                                                       "bath.temperature = 0.25"))
    assert cli.main(["steady", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    # one state, on its 10 nonzeros: |0,g>, the 2x2 blocks of manifolds 1 and 2, and |2,e>
    assert calls == [(10,)]


@pytest.mark.parametrize("argv, solves", [
    (["compare", "--model", "micro,phen"], 2),
    (["compare", "--model", "micro,phen", "--solver", "ode", "--dt", "2e-3",
      "--tau-max", "5", "--steps", "50"], 2),  # for the frequency summary only
    (["evolve", "--solver", "ode", "--dt", "2e-3", "--tau-max", "5", "--steps", "50"], 0),
])
def test_one_damping_basis_per_generator(tmp_path, monkeypatch, capsys, argv, solves):
    calls = []

    def counting(liouvillian):
        calls.append(liouvillian.dim)
        return damping_basis(liouvillian)

    damping_basis = solver.damping_basis
    monkeypatch.setattr(solver, "damping_basis", counting)
    monkeypatch.setattr(cli, "damping_basis", counting)
    monkeypatch.setattr("jcsim.scenario.damping_basis", counting)
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("model, builds", [("micro", 1), ("dressed", 1), ("phen", 0)])
def test_evolve_builds_its_channels_once(tmp_path, monkeypatch, capsys, model, builds):
    calls = []

    def counting(model, *args):
        terms = model_terms(model, *args)
        if terms[2] is not None:
            calls.append(model)
        return terms

    monkeypatch.setattr("jcsim.scenario.model_terms", counting)
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    assert cli.main(["evolve", "--config", str(cfg), "--model", model,
                     "--out", str(tmp_path / "c.csv")]) == 0
    # the one build gives the run's jumps and its secular margin; phen has neither
    assert calls == [model] * builds
    assert ("# secular margin" in capsys.readouterr().out) == (builds == 1)
    run = run_trajectory(replace(scenario_from_config(BASE), model=model))
    assert (run.channels is None) == (model == "phen")


def test_compare_ode_route_matches_spectral(tmp_path, capsys):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    grid = ["--tau-max", "5", "--steps", "50"]
    results = {}
    for route in (["--solver", "spectral"], ["--solver", "ode", "--dt", "2e-3"]):
        out = tmp_path / f"{route[1]}.csv"
        assert cli.main(["compare", "--config", str(cfg), "--model", "micro,phen",
                         "--out", str(out)] + grid + route) == 0
        frequencies = [line for line in capsys.readouterr().out.splitlines()
                       if "frequency" in line]
        results[route[1]] = (_read_csv(out), frequencies)
    (header_s, data_s), freq_s = results["spectral"]
    (header_o, data_o), freq_o = results["ode"]
    assert header_s == header_o and data_s.shape == data_o.shape == (50, 7)
    assert np.abs(data_s - data_o).max() < 1e-8
    assert len(freq_s) == 4 and freq_s == freq_o


def test_compare_bell_contrast(tmp_path, capsys):
    cfg = _write(tmp_path, "bell.cfg", BELL)
    out = tmp_path / "bell.csv"
    assert cli.main(["compare", "--config", str(cfg), "--model", "micro,phen",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    header, data = _read_csv(out)
    assert header[:4] == ["tau", "pop_0g_micro", "pop_0g_phen", "delta_pop_0g"]
    tau = data[:, 0]
    pg_micro = data[:, 4]
    pg_phen = data[:, 5]
    # dressed-jump decay is monotone and purely exponential; the photon-loss
    # curve carries Rabi-frequency oscillations on top of the same trend
    assert np.all(np.diff(pg_micro) > -1e-12)

    def residual(pg):
        slope, intercept = np.polyfit(tau, np.log(1.0 - pg), 1)
        return pg - (1.0 - np.exp(intercept + slope * tau))

    assert np.abs(residual(pg_micro)).max() < 1e-8
    wiggle = residual(pg_phen)
    assert np.abs(wiggle).max() > 5e-3
    assert (wiggle > 0).any() and (wiggle < 0).any()
    assert np.abs(data[:, 6] - (pg_micro - pg_phen)).max() < 1e-15


def test_compare_reports_frequency_shift(tmp_path, capsys):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--config", str(cfg), "--model", "micro,phen",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    summary = {}
    for line in printed.splitlines():
        if "=" in line:
            key, value = line.rsplit("=", 1)
            summary[key.strip()] = float(value)
    rabi, gamma = 0.2, 0.04
    assert summary["frequency_micro"] == pytest.approx(2.0 * rabi, abs=1e-10)
    expected_phen = np.sqrt(16.0 * rabi**2 - gamma**2) / 2.0
    assert summary["frequency_phen"] == pytest.approx(expected_phen, abs=1e-10)
    assert summary["relative_frequency_shift"] == pytest.approx(
        (gamma / rabi) ** 2 / 32.0, rel=1e-2
    )


def test_compare_rejects_equal_models(tmp_path, monkeypatch, capsys):
    # equal models would write two columns of one name and one frequency line
    def unsolved(scenario):
        raise AssertionError("compare solved a scenario")

    monkeypatch.setattr(cli, "run_trajectory", unsolved)
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    out = tmp_path / "same.csv"
    for models, model in (("micro,micro", "micro"), ("phen, phen", "phen")):
        assert cli.main(["compare", "--config", str(cfg), "--model", models,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: compare needs two different models, got {model!r} twice\n")
        assert not out.exists()


def test_compare_requires_model_pair(tmp_path):
    cfg = _write(tmp_path, "rabi.cfg", BASE)
    assert cli.main(["compare", "--config", str(cfg), "--out",
                     str(tmp_path / "x.csv")]) == 1


def test_spectrum_single_excitation_closed_form(tmp_path):
    # micro's one-excitation sector, |0,g>, |0,e> and |1,g>, contributes 9 of the 36 modes;
    # an Ohmic bath gives its two sideband channels unequal rates
    text = BASE.replace("bath.kind = flat", "bath.kind = ohmic\nbath.alpha = 0.15").replace(
        "bath.gamma0 = 0.04", "bath.cutoff = 2.0")
    cfg = _write(tmp_path, "ohmic.cfg", text)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == ["re", "im"] and data.shape == (36, 2)
    got = data[:, 0] + 1j * data[:, 1]
    bath = scenario_from_config(text).bath
    gamma_a, gamma_b = rate(0.8, bath), rate(1.2, bath)
    expected = np.array([
        0.0,
        -gamma_a / 2.0, -gamma_b / 2.0,
        1j * 0.8 - gamma_a / 4.0, -1j * 0.8 - gamma_a / 4.0,
        1j * 1.2 - gamma_b / 4.0, -1j * 1.2 - gamma_b / 4.0,
        2j * 0.2 - (gamma_a + gamma_b) / 4.0, -2j * 0.2 - (gamma_a + gamma_b) / 4.0,
    ])
    assert np.abs(got[None, :] - expected[:, None]).min(axis=1).max() < 1e-10


@pytest.mark.parametrize("model", MODELS)
def test_no_model_is_limited_to_some_subcommands(model, tmp_path):
    for command in ("evolve", "steady", "spectrum"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", str(CONFIGS / "rabi_joint_ground.cfg"),
                         "--model", model, "--nmax", "3", "--out", str(out)]) == 0
        assert out.exists()


def test_spectrum_unitary_limit_is_imaginary(tmp_path):
    text = BASE.replace("model = micro", "model = phen").replace(
        "\ngamma0 = 0.04", "\ngamma0 = 0.0"
    )
    cfg = _write(tmp_path, "unitary.cfg", text)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert np.abs(data[:, 0]).max() < 1e-12


def test_spectrum_thermal_has_unique_zero(tmp_path):
    text = BASE.replace("bath.temperature = 0.0", "bath.temperature = 0.25")
    cfg = _write(tmp_path, "thermal.cfg", text)
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    moduli = np.hypot(data[:, 0], data[:, 1])
    assert (moduli < 1e-10).sum() == 1


def test_steady_csv_is_a_density_matrix(tmp_path):
    text = BASE.replace("bath.temperature = 0.0", "bath.temperature = 0.25")
    cfg = _write(tmp_path, "thermal.cfg", text)
    out = tmp_path / "steady.csv"
    assert cli.main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header == ["row", "col", "re", "im"]
    dim = int(np.sqrt(data.shape[0]))
    rho = np.zeros((dim, dim), dtype=complex)
    for i, j, re, im in data:
        rho[int(i), int(j)] = re + 1j * im
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-12


@pytest.mark.parametrize("nmax, temperature, verdict", [(3, 0.5, "NOT small"), (8, 0.25, "ok")])
def test_steady_reports_top_fock_level_population(tmp_path, capsys, nmax, temperature, verdict):
    # phen relaxes to Gibbs(H_free): the top level holds (1 - q) q^nmax / (1 - q^(nmax+1))
    q = np.exp(-1.0 / temperature)
    nbar = q / (1.0 - q)
    text = (BASE.replace("model = micro", "model = phen")
            .replace("nmax = 2", f"nmax = {nmax}")
            .replace("nbar = 0.0", f"nbar = {float(nbar)!r}"))
    cfg = _write(tmp_path, "phen.cfg", text)
    out = tmp_path / "steady.csv"
    assert cli.main(["steady", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    prefix = "# top Fock level population = "
    assert line.startswith(prefix) and line.endswith(f" ({verdict})")
    edge = float(line[len(prefix):].split(" ")[0])
    expected = (1.0 - q) * q**nmax / (1.0 - q ** (nmax + 1))
    assert edge == pytest.approx(expected, rel=1e-6, abs=1e-15)


def test_verify_reporting_and_exit_codes(monkeypatch, capsys):
    passing = [
        CriterionResult(1, "alpha", True, ["ok   measured vs threshold"]),
        CriterionResult(2, "beta", True, []),
    ]
    monkeypatch.setattr(cli, "run_all_criteria", lambda: passing)
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS  criterion 1: alpha" in out
    assert "all 2 criteria passed" in out

    failing = [
        CriterionResult(1, "alpha", True, []),
        CriterionResult(2, "beta", False, ["FAIL measured vs threshold"]),
    ]
    monkeypatch.setattr(cli, "run_all_criteria", lambda: failing)
    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  criterion 2: beta" in out
    assert "FAILED at criterion 2: beta" in out


PHEN_RABI = """
model = phen
omega0 = 1.0
rabi = 0.41
nmax = 2
gamma0 = 0.082
nbar = 0.0
initial = fock:0,e
tau_max = 100.0
steps = 2000
observables = pop_0g,pop_1g,atomic_ground
"""


@pytest.mark.parametrize("route", ["spectral", "ode"])
def test_evolve_writes_the_curves_verify_checks(tmp_path, route):
    text = PHEN_RABI + (f"solver = ode\ndt = {DT!r}\n" if route == "ode" else "")
    battery = _SharedRuns()
    expected = _SCENARIOS["phen_rabi"]
    if route == "ode":
        expected = replace(expected, solver="ode", dt=DT)
    assert scenario_from_config(text) == expected
    out = tmp_path / "phen_rabi.csv"
    assert cli.main(["evolve", "--config", str(_write(tmp_path, "p.cfg", text)),
                     "--out", str(out)]) == 0
    header, data = _read_csv(out)
    observables = battery.get("phen_rabi", route).observables
    assert header == ["tau"] + list(observables)
    for k, name in enumerate(observables, start=1):
        assert np.array_equal(data[:, k], observables[name]), name


def test_tolerance_corruption_hook(monkeypatch):
    # the hook must be able to push a healthy criterion into failure; both calls share one
    # solve of the six shared runs
    solved = []
    solve = acceptance.run_trajectory
    monkeypatch.setattr(acceptance, "run_trajectory",
                        lambda scenario: solved.append(scenario) or solve(scenario))
    runs = _SharedRuns()
    assert run_criterion(8, runs).passed
    assert not run_criterion(8, runs, tolerance_scale=1e-8).passed
    assert len(solved) == 6
