"""Command-line driver: exit codes, config layering, reproducible output.

Conventions under test: exit 0 on success, 1 on argument or configuration
problems, 2 on numerical failures (with the violated check named on stderr);
outputs are byte-identical across reruns and thread counts.
"""

import argparse
import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gaugeqed import ParityBands, ParityBlocks, cli, experiments, particle1d
from gaugeqed.cli import COMMANDS, build_parser, main

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.ini"
TINY_SWEEP = ["rabi-sweep", "--eta-max", "0.1", "--eta-step", "0.05",
              "--levels", "3", "--models", "D,Ccorr"]


def run(argv, tmp_path, extra=()):
    return main(argv + ["--outdir", str(tmp_path)] + list(extra))


# ---------------------------------------------------------------------------
# parser surface
# ---------------------------------------------------------------------------

def test_import_leaves_mpmath_out():
    # mpmath is a test-only dependency; the package must not import it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = "import sys, gaugeqed, gaugeqed.cli; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_export_list_resolves():
    # a stale entry in __all__ would break `from gaugeqed import *`
    import gaugeqed
    names = gaugeqed.__all__
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(gaugeqed, n)] == []


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "gaugeqed" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


def test_bad_flag_value_exits_1(capsys):
    # argparse's native exit code 2 is reserved for numerical failures
    assert main(["rabi-sweep", "--eta-max", "abc"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["rabi-sweep", "--frequency", "2"]) == 1


def test_unknown_model_exits_1(capsys):
    assert main(["rabi-sweep", "--models", "D,Q"]) == 1
    assert "unknown model" in capsys.readouterr().err


def test_every_command_has_help(capsys):
    parser = build_parser()
    for name in COMMANDS:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--outdir" in out and "--config" in out


def test_help_shows_each_registry_default_once(capsys):
    # flags default to None so that the config file can fill them; the help
    # must show the registry default, once, and never that None
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, (opts, _) in COMMANDS.items():
        with pytest.raises(SystemExit):
            parser.parse_args([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in text, name
        helps = {a.dest: a.help for a in sub.choices[name]._actions}
        for opt in cli._COMMON + opts:
            assert helps[opt.key].count("(default:") <= 1, (name, opt.key)
            if opt.default is not None:
                assert helps[opt.key].endswith(
                    f"(default: {cli._fmt_default(opt.default)})"), (name, opt.key)
        assert text.count("(default:") == sum(h.count("(default:")
                                               for h in helps.values()), name


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_rabi_sweep_tiny(tmp_path, capsys):
    assert run(TINY_SWEEP, tmp_path) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    csv = (tmp_path / "rabi_sweep.csv").read_text()
    assert csv.startswith("# energies in units of omega_c")
    assert "model,eta,cutoff,converged,t1,t2,t3" in csv
    rows = [l for l in csv.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 6  # 2 models x 3 grid points


def test_sweep_byte_identical_across_threads(tmp_path):
    run(TINY_SWEEP, tmp_path, ["--out", "a.csv", "--threads", "1"])
    run(TINY_SWEEP, tmp_path, ["--out", "b.csv", "--threads", "2"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # the sweep is deterministic, so there is no --seed flag to pass
    assert run(TINY_SWEEP, tmp_path, ["--out", "c.csv", "--seed", "7"]) == 1


def test_sweep_emit_plots(tmp_path):
    assert run(TINY_SWEEP, tmp_path, ["--emit-plots"]) == 0
    gp = (tmp_path / "rabi_sweep.gp").read_text()
    assert "strcol(1) eq 'D'" in gp


def test_dicke_sweep_tiny(tmp_path):
    argv = ["dicke-sweep", "--eta-max", "0.1", "--eta-step", "0.05",
            "--levels", "3", "--n-dipoles", "2"]
    assert run(argv, tmp_path) == 0
    assert (tmp_path / "dicke_sweep.csv").exists()


def test_repeated_sweep_model_exits_1(tmp_path, capsys):
    argv = ["rabi-sweep", "--models", "D,D", "--eta-max", "0.05"]
    assert run(argv, tmp_path) == 1
    assert "repeated model in D,D" in capsys.readouterr().err
    assert not (tmp_path / "rabi_sweep.csv").exists()


def test_cutoff_ceiling_exit_2(tmp_path, capsys):
    argv = ["rabi-sweep", "--eta-max", "1.0", "--eta-step", "1.0",
            "--levels", "3", "--models", "D",
            "--cutoff0", "4", "--cutoff-cap", "8", "--conv-tol", "1e-12"]
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "CutoffCeiling" in err
    # unconverged rows are still written, flagged 0
    csv = (tmp_path / "rabi_sweep.csv").read_text()
    assert ",8,0," in csv


def test_parity_error_exit_2(tmp_path, capsys, monkeypatch):
    # a full model of a mirror-symmetric well is written as parity blocks;
    # a term that couples matter levels 0 and 1 alone flips the mirror parity
    terms = particle1d._full_D_terms

    def broken(model, basis, cutoff, a0, m, omega_c):
        flip = np.zeros((m, m))
        flip[0, 1] = flip[1, 0] = 1.0
        return terms(model, basis, cutoff, a0, m, omega_c) + [(flip, np.eye(cutoff + 1))]

    monkeypatch.setattr(particle1d, "_full_D_terms", broken)
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2", "--cutoff", "8"]
    assert run(argv, tmp_path) == 2
    assert "ParityError: term 4 leaves the parity blocks" in capsys.readouterr().err


@pytest.mark.parametrize("defect,error", [("nan", "LinalgError: parity block 1 has a "
                                                   "non-finite entry"),
                                          ("asymmetric", "NonHermitianError: parity "
                                                         "block 1 is not symmetric")])
def test_broken_block_exit_2(tmp_path, capsys, monkeypatch, defect, error):
    build = experiments.RABI_MODELS["Ccorr"]

    def broken(eta, detuning, cutoff, n):
        even, odd = (block.copy() for block in build(eta, detuning, cutoff, n).blocks)
        odd[2, 1] = np.nan if defect == "nan" else odd[2, 1] + 1e-6
        return ParityBlocks((even, odd))

    monkeypatch.setitem(experiments.RABI_MODELS, "Ccorr", broken)
    assert run(TINY_SWEEP, tmp_path) == 2
    assert error in capsys.readouterr().err


def test_non_finite_band_exit_2(tmp_path, capsys, monkeypatch):
    build = experiments.RABI_MODELS["D"]

    def broken(eta, detuning, cutoff, n):
        even, odd = (chain.copy() for chain in build(eta, detuning, cutoff, n).chains)
        odd[1, 3] = np.nan
        return ParityBands((even, odd))

    monkeypatch.setitem(experiments.RABI_MODELS, "D", broken)
    assert run(TINY_SWEEP, tmp_path) == 2
    err = capsys.readouterr().err
    assert "LinalgError" in err and "non-finite" in err


# ---------------------------------------------------------------------------
# config file and environment
# ---------------------------------------------------------------------------

def write_config(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    return str(cfg)


def test_config_supplies_defaults(tmp_path):
    cfg = write_config(tmp_path, f"""
[common]
outdir = {tmp_path / "from_config"}
[rabi-sweep]
eta_max = 0.1
eta_step = 0.05
levels = 3
models = D
""")
    assert main(["rabi-sweep", "--config", cfg]) == 0
    assert (tmp_path / "from_config" / "rabi_sweep.csv").exists()


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, f"""
[common]
outdir = {tmp_path / "from_config"}
[rabi-sweep]
eta_max = 0.1
eta_step = 0.05
levels = 3
models = D
out = cfg_named.csv
""")
    flagdir = tmp_path / "from_flag"
    assert main(["rabi-sweep", "--config", cfg, "--outdir", str(flagdir),
                 "--out", "flag_named.csv"]) == 0
    assert (flagdir / "flag_named.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_env_outdir_fallback(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("GAUGEQED_OUTDIR", str(envdir))
    assert main(TINY_SWEEP) == 0
    assert (envdir / "rabi_sweep.csv").exists()
    # an explicit flag still wins over the environment
    flagdir = tmp_path / "flag_wins"
    assert main(TINY_SWEEP + ["--outdir", str(flagdir)]) == 0
    assert (flagdir / "rabi_sweep.csv").exists()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "[rabi-sweep]\nfrequency = 2\n")
    assert main(["rabi-sweep", "--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_unknown_config_section_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "[rabi]\neta_max = 1\n")
    assert main(["rabi-sweep", "--config", cfg]) == 1
    assert "unknown config section" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["rabi-sweep", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_example_config_resolves():
    # the README points users to the shipped config: every section in it
    # must resolve, with its values taking the place of the defaults
    cp = configparser.ConfigParser()
    assert cp.read(EXAMPLE_CONFIG)
    commands = [s for s in cp.sections() if s != "common"]
    assert sorted(commands) == ["alpha-check", "dicke-sweep", "fluxonium", "rabi-sweep"]
    for command in commands:
        rc = cli.resolve(build_parser().parse_args([command, "--config", str(EXAMPLE_CONFIG)]))
        assert (rc.command, rc.outdir, rc.threads, rc.emit_plots) == (command, "runs", 1, True)
        kinds = {o.key: o.kind for o in COMMANDS[command][0]}
        for key, raw in cp.items(command):
            assert rc.params[key] == cli._parse_str(kinds[key], raw, key), (command, key)


def test_common_key_in_command_section_ok(tmp_path):
    cfg = write_config(tmp_path, f"""
[rabi-sweep]
outdir = {tmp_path / "nested"}
eta_max = 0.05
eta_step = 0.05
levels = 2
models = D
""")
    assert main(["rabi-sweep", "--config", cfg]) == 0
    assert (tmp_path / "nested" / "rabi_sweep.csv").exists()


# ---------------------------------------------------------------------------
# studies and reports
# ---------------------------------------------------------------------------

def test_taylor_study_quick(tmp_path, capsys):
    argv = ["taylor-study", "--orders", "2", "--eta-max", "0.2",
            "--eta-step", "0.05", "--cutoff", "40", "--levels", "3"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    assert re.search(r"order 2: eta_star = ", out)
    assert (tmp_path / "taylor_study.csv").exists()


def test_repeated_taylor_order_exits_1(tmp_path, capsys):
    argv = ["taylor-study", "--orders", "2,2", "--eta-max", "0.1", "--cutoff", "40",
            "--levels", "3"]
    assert run(argv, tmp_path) == 1
    assert "repeated order in 2,2" in capsys.readouterr().err
    assert not (tmp_path / "taylor_study.csv").exists()


def test_repeated_alpha_exits_1(tmp_path, capsys):
    argv = ["alpha-check", "--alphas", "0,0,1", "--levels", "3"]
    assert run(argv, tmp_path) == 1
    assert "repeated alpha in 0,0,1" in capsys.readouterr().err
    assert not (tmp_path / "alpha_check.csv").exists()


def test_alpha_check_passes(tmp_path, capsys):
    argv = ["alpha-check", "--alphas", "0,0.5,1", "--eta", "0.3,0.6",
            "--levels", "3"]
    assert run(argv, tmp_path) == 0
    assert "PASS" in capsys.readouterr().out


def test_alpha_negative_control(tmp_path, capsys):
    argv = ["alpha-check", "--alphas", "0,1", "--eta", "0.8", "--levels", "3",
            "--negative-control"]
    assert run(argv, tmp_path) == 0
    assert "as it must" in capsys.readouterr().out
    # an absurd break threshold turns the control into a failure
    assert run(argv, tmp_path, ["--break-min", "10"]) == 2
    assert "negative control failed" in capsys.readouterr().err


def test_negative_control_without_alpha_one_exits_1(tmp_path, capsys):
    # only the alpha=1 member is swapped for the naive model; with none in
    # the list there is no control, which is an argument error, not a
    # numerical failure
    argv = ["alpha-check", "--alphas", "0,0.5", "--negative-control"]
    assert run(argv, tmp_path) == 1
    assert "alphas must include 1" in capsys.readouterr().err
    assert not (tmp_path / "alpha_check.csv").exists()


def test_repeated_alpha_eta_exits_1(tmp_path, capsys):
    argv = ["alpha-check", "--eta", "0.5,0.5", "--levels", "3"]
    assert run(argv, tmp_path) == 1
    assert "repeated eta in 0.5,0.5" in capsys.readouterr().err
    assert not (tmp_path / "alpha_check.csv").exists()


@pytest.mark.parametrize("cutoffs", ["20,20", "40,20"])
def test_gauge_theorem_cutoffs_must_ascend(tmp_path, capsys, cutoffs):
    # the verdict is read at the last cutoff
    argv = ["gauge-theorem", "--eta", "0.3", "--cutoffs", cutoffs]
    assert run(argv, tmp_path) == 1
    assert f"cutoffs must be strictly ascending, got {cutoffs}" in capsys.readouterr().err
    assert not (tmp_path / "gauge_theorem.csv").exists()


def test_gauge_theorem_passes(tmp_path, capsys):
    argv = ["gauge-theorem", "--eta", "0.3", "--cutoffs", "40,60"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    text = (tmp_path / "gauge_theorem.csv").read_text()
    assert text.startswith("# unit convention: hbar = 1")


def test_gauge_theorem_failure_exit_2(tmp_path, capsys):
    argv = ["gauge-theorem", "--eta", "0.8", "--cutoffs", "20",
            "--tol", "1e-14"]
    assert run(argv, tmp_path) == 2
    assert "gauge theorem violated" in capsys.readouterr().err


def test_fluxonium_quick(tmp_path, capsys):
    argv = ["fluxonium", "--basis-size", "60", "--cutoff", "30",
            "--levels", "2", "--n-keep", "4"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    assert "omega_10" in out
    assert (tmp_path / "fluxonium.csv").exists()


def test_fluxonium_levels_validation(tmp_path, capsys):
    argv = ["fluxonium", "--levels", "6", "--n-keep", "4",
            "--basis-size", "60", "--cutoff", "20"]
    assert run(argv, tmp_path) == 1
    assert "levels must be < n_keep" in capsys.readouterr().err


def test_fluxonium_basis_too_small_exit_2(tmp_path, capsys):
    argv = ["fluxonium", "--e-j", "40", "--basis-size", "40",
            "--cutoff", "20", "--levels", "2", "--n-keep", "4"]
    assert run(argv, tmp_path) == 2
    assert "BasisTooSmall" in capsys.readouterr().err


def test_particle_demo_coarse_table_exit_2(tmp_path, capsys):
    x = [f"{-8 + 0.016 * i:.6f}" for i in range(1001)]
    table = tmp_path / "coarse.dat"
    table.write_text("\n".join(
        f"{xi} {(-1.2 * float(xi) ** 2 + 0.25 * float(xi) ** 4):.9f}"
        for xi in x) + "\n")
    argv = ["particle-demo", "--potential-table", str(table)]
    assert run(argv, tmp_path) == 2
    assert "GridTooCoarse" in capsys.readouterr().err


def test_full_model_harmonic_quick(tmp_path, capsys):
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,4",
            "--cutoff", "20", "--levels", "3"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    assert "gap ratio" in out
    assert (tmp_path / "full_model.csv").exists()


def record_solvers(monkeypatch):
    """Log (dtype, rows) of every eigvalsh input and every eig_banded call."""
    seen, banded = [], []
    eigvalsh, eig_banded = np.linalg.eigvalsh, scipy.linalg.eig_banded

    def record(a, *args, **kwargs):
        seen.append((a.dtype, a.shape[0]))
        return eigvalsh(a, *args, **kwargs)

    def record_banded(*args, **kwargs):
        banded.append(args)
        return eig_banded(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    monkeypatch.setattr(scipy.linalg, "eig_banded", record_banded)
    return seen, banded


def test_full_model_solves_parity_blocks(tmp_path, monkeypatch):
    seen, banded = record_solvers(monkeypatch)
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,4",
            "--cutoff", "8"]
    assert run(argv, tmp_path) == 0
    # D then C at m=2 (dim 18), then at m=4 (dim 36): two real half blocks each
    assert seen == [(np.float64, 9)] * 4 + [(np.float64, 18)] * 4
    assert banded == []


def test_full_model_tilted_well_stays_dense(tmp_path, monkeypatch):
    x = np.linspace(-10.0, 10.0, 2001)
    table = tmp_path / "tilted.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    model = particle1d.model_from_table(table, eigen_count=6)
    monkeypatch.setattr(cli, "_named_model", lambda p: model)
    seen, _ = record_solvers(monkeypatch)
    argv = ["full-model", "--m-levels", "2,4", "--cutoff", "8"]
    assert run(argv, tmp_path) == 0
    assert seen == [(np.complex128, 18)] * 2 + [(np.complex128, 36)] * 2


@pytest.mark.parametrize("m_levels", ["32,2", "4,2,4", "2,2"])
def test_full_model_m_levels_must_ascend(tmp_path, capsys, m_levels):
    # the verdict compares the first and last gaps
    argv = ["full-model", "--model", "harmonic", "--m-levels", m_levels, "--cutoff", "8"]
    assert run(argv, tmp_path) == 1
    assert f"m_levels must be strictly ascending, got {m_levels}" in capsys.readouterr().err
    assert not (tmp_path / "full_model.csv").exists()


def test_full_model_bad_m_levels(tmp_path, capsys):
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,64",
            "--cutoff", "10", "--levels", "2"]
    assert run(argv, tmp_path) == 1
    assert "exceeds solved levels" in capsys.readouterr().err


def test_unknown_named_model(tmp_path, capsys):
    argv = ["full-model", "--model", "cubic"]
    assert run(argv, tmp_path) == 1
    assert "unknown model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documentation sync
# ---------------------------------------------------------------------------

def flags_of(text):
    found = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    return {f for f in found if not f.startswith("--no-")}


def test_readme_documents_every_flag(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    doc = readme.read_text()
    documented = flags_of(doc)
    parser = build_parser()
    in_help = set()
    for name in COMMANDS:
        with pytest.raises(SystemExit):
            parser.parse_args([name, "--help"])
        in_help |= flags_of(capsys.readouterr().out)
        assert name in doc, f"command {name} missing from README"
    in_help.discard("--help")
    missing = in_help - documented
    stale = documented - in_help - {"--version"}
    assert not missing, f"flags not documented in README: {sorted(missing)}"
    assert not stale, f"README documents unknown flags: {sorted(stale)}"
