"""Command-line driver: exit codes, config layering, reproducible output.

Conventions under test: exit 0 on success, 1 on argument or configuration
problems, 2 on numerical failures (with the violated check named on stderr);
outputs are byte-identical across reruns and thread counts.
"""

import argparse
import configparser
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugeqed import (ParityBands, ParityBlocks, cli, experiments, fluxonium, linalg,
                      particle1d, qops)
from gaugeqed.cli import COMMANDS, build_parser, main
from gaugeqed.qops import fock_factors

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


def test_import_leaves_scipy_linalg_and_sparse_out():
    # the package loads scipy's LAPACK extension alone, not scipy.linalg's
    # Python layer nor scipy.sparse
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys, gaugeqed, gaugeqed.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         check=True, capture_output=True, text=True).stdout
    assert out == "['scipy.linalg._flapack']\n"


def test_later_scipy_linalg_reuses_the_loaded_extension():
    # the package registers scipy's LAPACK extension under its own name, so
    # scipy.linalg imported afterwards binds the same module and wrappers
    # instead of loading the extension a second time
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys; from gaugeqed import linalg; import scipy.linalg; "
            "ext = sys.modules['scipy.linalg._flapack']; "
            "print(linalg._LAPACK is ext, scipy.linalg.lapack._flapack is ext, "
            "scipy.linalg.lapack.dsyevr is linalg._LAPACK.dsyevr)")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         check=True, capture_output=True, text=True).stdout
    assert out == "True True True\n"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(code, **preset):
    """Run ``code`` in a fresh interpreter that imports gaugeqed from src,
    with none of the BLAS thread variables set except ``preset``; returns
    its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          check=True, capture_output=True, text=True).stdout


SHOW_THREAD_VARS = ("import os, gaugeqed; "
                    "print([os.environ.get(v) for v in %r])" % (BLAS_THREAD_VARS,))


# scipy's LAPACK extension loaded by file location, without scipy.linalg,
# as gaugeqed.linalg loads it
LOAD_FLAPACK_ALONE = (
    "import importlib.machinery as m, importlib.util as u, os, sys; "
    "s = m.PathFinder.find_spec('scipy.linalg._flapack', [os.path.join("
    "u.find_spec('scipy').submodule_search_locations[0], 'linalg')]); "
    "sys.modules[s.name] = u.module_from_spec(s); s.loader.exec_module(sys.modules[s.name]); ")


@pytest.mark.parametrize("first, preset, seen", [
    ("", {}, ["1", None, None]),
    ("", {"OPENBLAS_NUM_THREADS": "3"}, ["3", None, None]),
    ("", {"OMP_NUM_THREADS": "2"}, [None, None, "2"]),
    # numpy's OpenBLAS has read its thread count, but scipy's, which runs the
    # package's solves, loads later with scipy's LAPACK extension and still
    # reads it
    ("import numpy; ", {}, ["1", None, None]),
    # once scipy.linalg is loaded both have read it, so the variable would
    # do nothing and is left unset
    ("import scipy.linalg; ", {}, [None, None, None]),
    # so it is once the extension is loaded, with or without scipy.linalg
    ("import scipy.linalg._flapack; ", {}, [None, None, None]),
    (LOAD_FLAPACK_ALONE, {}, [None, None, None]),
])
def test_import_sets_one_blas_thread_unless_preset(first, preset, seen):
    assert fresh_python(first + SHOW_THREAD_VARS, **preset) == f"{seen}\n"


def test_suite_runs_under_the_thread_policy():
    # conftest imports gaugeqed before numpy, so the in-process tests and
    # cli.main runs get one OpenBLAS thread as the CLI does
    tests = str(Path(__file__).parent)
    code = f"import sys; sys.path.insert(0, {tests!r}); import conftest; " + SHOW_THREAD_VARS
    assert fresh_python(code) == "['1', None, None]\n"


def test_import_keeps_eigvalsh_loops_on_one_core():
    # a second OpenBLAS thread busy-waits between small solves: at dim 201
    # it about doubles the CPU time of the loop on two or more cores
    code = """if True:
        import time
        import gaugeqed
        import numpy as np
        a = np.random.default_rng(0).standard_normal((201, 201))
        a = a + a.T
        np.linalg.eigvalsh(a)
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(200):
            np.linalg.eigvalsh(a)
        print(time.process_time() - cpu, time.perf_counter() - wall)
    """
    cpu, wall = map(float, fresh_python(code).split())
    assert cpu < 1.3 * wall, (cpu, wall)


def test_import_keeps_block_solve_loops_on_one_core():
    # scipy bundles its own OpenBLAS, which the parity block solve (?syevr)
    # runs on; importing gaugeqed sets its thread count before it loads too
    code = """if True:
        import time
        import gaugeqed
        import numpy as np
        a = np.random.default_rng(0).standard_normal((201, 201))
        blocks = gaugeqed.ParityBlocks((a + a.T, a.T + a))
        gaugeqed.parity_eigvalsh(blocks, 6)
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(100):
            gaugeqed.parity_eigvalsh(blocks, 6)
        print(time.process_time() - cpu, time.perf_counter() - wall)
    """
    cpu, wall = map(float, fresh_python(code).split())
    assert cpu < 1.3 * wall, (cpu, wall)


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
    for name, (opts, *_) in COMMANDS.items():
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


@pytest.mark.parametrize("argv", [
    ["taylor-study", "--orders", "2,3,10", "--eta-max", "0.6", "--eta-step", "0.05",
     "--cutoff", "40", "--levels", "3"],
    ["alpha-check", "--eta", "0.4,0.8", "--levels", "3"],
], ids=lambda argv: argv[0])
def test_studies_byte_identical_across_threads(tmp_path, argv):
    run(argv, tmp_path, ["--out", "a.csv", "--threads", "1"])
    run(argv, tmp_path, ["--out", "b.csv", "--threads", "3"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_threaded_sweep_leaves_no_process(tmp_path):
    # the pool is joined on success and on the exit-2 path alike
    assert run(TINY_SWEEP, tmp_path, ["--threads", "2"]) == 0
    assert multiprocessing.active_children() == []
    unconverged = ["--threads", "2", "--cutoff0", "4", "--cutoff-cap", "8",
                   "--conv-tol", "1e-15"]
    assert run(TINY_SWEEP, tmp_path, unconverged) == 2
    assert multiprocessing.active_children() == []


def test_killed_worker_exits_2_and_leaves_no_process(tmp_path):
    """A worker killed mid-task by SIGKILL, as the OOM killer sends it,
    breaks the pool: the sweep exits 2 on WorkerLostError inside the time
    limit instead of waiting for the lost task, writes no table, and leaves
    no process."""
    code = f"""if True:
        import multiprocessing, os, signal
        from gaugeqed import cli, experiments
        parent, solve = os.getpid(), experiments.lowest_transitions

        def dying(H, levels):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(H, levels)

        experiments.lowest_transitions = dying
        rc = cli.main({TINY_SWEEP + ["--threads", "2", "--outdir", str(tmp_path)]!r})
        print(rc, multiprocessing.active_children())
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout == "2 []\n", out.stderr
    assert "numerical failure: WorkerLostError: a worker process died mid-task" in out.stderr
    assert list(tmp_path.iterdir()) == []


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
    terms = particle1d.terms_full_H_D

    def broken(model, basis, cutoff, a0, m):
        flip = np.zeros((m, m))
        flip[0, 1] = flip[1, 0] = 1.0
        return terms(model, basis, cutoff, a0, m) + [(flip, np.eye(cutoff + 1))]

    monkeypatch.setattr(particle1d, "terms_full_H_D", broken)
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2", "--cutoff", "8"]
    assert run(argv, tmp_path) == 2
    assert "ParityError: term 4 leaves the parity blocks" in capsys.readouterr().err


def test_parity_order_error_exit_2(tmp_path, capsys, monkeypatch):
    # a mirror-symmetric well is solved one parity at a time and merged by
    # index; even levels lifted past the odd ones break that merge
    half_solve = particle1d._half_solve

    def lifted_even(model, parity, k, vectors, start=None):
        w, psi = half_solve(model, parity, k, vectors, start)
        return (w + 1.5 if parity > 0 else w), psi

    monkeypatch.setattr(particle1d, "_half_solve", lifted_even)
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2", "--cutoff", "8"]
    assert run(argv, tmp_path) == 2
    assert ("ParityOrderError: mirror-parity levels 0 and 1 do not interleave"
            in capsys.readouterr().err)
    assert not (tmp_path / "full_model.csv").exists()


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
        p = cli.resolve(build_parser().parse_args([command, "--config", str(EXAMPLE_CONFIG)]))
        assert (p["outdir"], p["threads"], p["emit_plots"]) == ("runs", 1, True)
        kinds = {o.key: o.kind for o in COMMANDS[command][0]}
        for key, raw in cp.items(command):
            assert p[key] == cli._parse_str(kinds[key], raw, key), (command, key)


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
    assert re.search(r"^models: parity blocks 41\+41 rows at cutoff 40; "
                     r"lowest 4 eigenvalues of the two$", out, re.M)
    assert out.index("order 2:") < out.index("models:") < out.index("wrote")
    assert (tmp_path / "taylor_study.csv").exists()


def test_repeated_taylor_order_exits_1(tmp_path, capsys):
    argv = ["taylor-study", "--orders", "2,2", "--eta-max", "0.1", "--cutoff", "40",
            "--levels", "3"]
    assert run(argv, tmp_path) == 1
    assert "repeated order in 2,2" in capsys.readouterr().err
    assert not (tmp_path / "taylor_study.csv").exists()


def test_taylor_cutoff_past_the_cap_exits_2_before_solving_x(tmp_path, monkeypatch, capsys):
    # the (cutoff + 1)-square X would take about 75 GiB at cutoff 100000;
    # the qubit-cavity dimension 2 (cutoff + 1) is held to the cap first
    def unreachable(cutoff):
        raise AssertionError(f"X solved at cutoff {cutoff}")

    monkeypatch.setattr(qops, "quadrature_eig", unreachable)
    argv = ["taylor-study", "--cutoff", "100000", "--eta-max", "0.05"]
    assert run(argv, tmp_path) == 2
    assert "DimensionOverflowError: product dimension 200002 exceeds cap 4096" \
        in capsys.readouterr().err
    assert not (tmp_path / "taylor_study.csv").exists()


def test_single_alpha_exits_1(tmp_path, capsys):
    # a family of one member has no spread to judge, so no PASS
    assert run(["alpha-check", "--alphas", "0.5", "--levels", "3"], tmp_path) == 1
    captured = capsys.readouterr()
    assert "alphas must hold at least two gauges to compare, got 1" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "alpha_check.csv").exists()


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


def test_alpha_check_unconverged_exit_2(tmp_path, capsys):
    # the gauge family is converged as a sweep is, and judged as one: the
    # table is written, then unconverged members fail the run before the
    # invariance verdict.  Neither the table nor stdout reads PASS, though
    # the spread of the truncated transitions is within tol
    argv = ["alpha-check", "--cutoff0", "20", "--cutoff-cap", "40", "--conv-tol", "1e-15"]
    assert run(argv, tmp_path) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "vs tol 1e-06 over alphas 0,0.25,0.5,0.75,1: UNCONVERGED" in captured.out
    table = (tmp_path / "alpha_check.csv").read_text()
    assert "PASS" not in table and "vs tol 1e-06: UNCONVERGED\n" in table
    assert captured.err == (
        "numerical failure: CutoffCeilingError: 5 sweep point(s) hit the cutoff cap 40 "
        "without converging: alpha=0@eta=0.8, alpha=0.25@eta=0.8, alpha=0.5@eta=0.8, "
        "alpha=0.75@eta=0.8, alpha=1@eta=0.8\n")
    assert (tmp_path / "alpha_check.csv").read_text().splitlines()[-1].startswith("0.8,")


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


def test_fluxonium_basis_size_capped_before_any_array(tmp_path, monkeypatch, capsys):
    # the basis solve and its refinement build dense (2 basis_size)^2
    # arrays, so the doubled basis is held to the dimension cap first
    def never(*args, **kwargs):
        raise AssertionError("the qubit Hamiltonian was built")

    monkeypatch.setattr(fluxonium, "_flux_hamiltonian", never)
    assert run(["fluxonium", "--basis-size", "2049"], tmp_path) == 2
    assert "DimensionOverflowError: product dimension 4098 exceeds cap 4096" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fluxonium_solves_real_arrays_only(tmp_path, monkeypatch):
    # every eigensolver input on the fluxonium path is float64: X and the
    # qubit at basis size 60, X and the qubit at the doubled size 120, then
    # the two (cutoff + 1)-square parity blocks of the naive model, X at the
    # cavity cutoff for cos/sin, and the two blocks of the corrected model;
    # each block is reduced to tridiagonal form once, and the two blocks'
    # lowest 2 + 2 levels hold the lowest levels + 1 = 3, so no block is
    # bisected for more
    fock_factors.cache_clear()
    seen = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (linalg._LAPACK, "dsytrd"), (linalg._LAPACK, "dstebz")):
        def record(a, *args, _name=name, _solve=getattr(module, name), **kwargs):
            # dstebz's index range il..iu is its 6th and 7th argument
            seen.append((_name, a.dtype, a.shape, args[4:6] if _name == "dstebz" else None))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(module, name, record)
    argv = ["fluxonium", "--basis-size", "60", "--cutoff", "30",
            "--levels", "2", "--n-keep", "4"]
    assert run(argv, tmp_path) == 0
    real = np.dtype(np.float64)
    blocks = [("dsytrd", real, (31, 31), None)] * 2 + [("dstebz", real, (31,), (1, 2))] * 2
    assert seen == [("eigh", real, (60, 60), None)] * 2 + [
        ("eigh", real, (120, 120), None), ("eigvalsh", real, (120, 120), None)] + blocks + [
        ("eigh", real, (31, 31), None)] + blocks


@pytest.mark.parametrize("argv", [
    ["taylor-study", "--levels", "0"],
    ["alpha-check", "--levels", "0"],
    ["full-model", "--levels", "0"],
    ["particle-demo", "--levels", "-3"],
    ["fluxonium", "--levels", "0"],
    ["fluxonium", "--levels", "-2"],
], ids=" ".join)
def test_levels_below_one_exit_1(tmp_path, capsys, argv):
    assert run(argv, tmp_path) == 1
    assert "levels must be >= 1, got" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["taylor-study", "--tol", "-1"],
    ["taylor-study", "--tol", "0"],
    ["alpha-check", "--tol", "-1"],
    ["gauge-theorem", "--tol", "-1"],
    ["alpha-check", "--negative-control", "--break-min", "-1"],
], ids=" ".join)
def test_nonpositive_tolerance_exit_1(tmp_path, capsys, argv):
    key = argv[-2][2:].replace("-", "_")
    assert run(argv, tmp_path) == 1
    assert f"{key} must be > 0, got" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# "{missing}" and "{file}" stand for a path that does not exist and for an
# existing file, "{nan-table}" for a potential table with one NaN sample and
# "{nan-x-table}" for one with a NaN grid point; a config text is written to
# a file and passed as --config
BAD_INPUT = [
    (["rabi-sweep", "--detuning", "nan"], None, "key 'detuning'"),
    (["gauge-theorem", "--eta", "nan"], None, "key 'eta'"),
    (["rabi-sweep", "--conv-tol", "nan"], None, "key 'conv_tol'"),
    (["rabi-sweep", "--eta-max", "inf"], None, "key 'eta_max'"),
    (["fluxonium", "--chi0", "nan"], None, "key 'chi0'"),
    (["rabi-sweep"], "[rabi-sweep]\ndetuning = inf\n", "key 'detuning'"),
    (["gauge-theorem", "--cutoffs", "10", "--outdir", "{file}"], None, "File exists"),
    (["particle-demo", "--potential-table", "{missing}"], None, "not found"),
    (["particle-demo", "--potential-table", "{nan-table}"], None,
     "potential samples must be finite"),
    # every comparison with NaN is false, so no spacing check would see it
    (["particle-demo", "--potential-table", "{nan-x-table}"], None,
     "x column must be finite"),
    (["rabi-sweep"], "eta_max = 1\n", "no section headers"),
    (["rabi-sweep"], "[rabi-sweep]\neta_max\n", "parsing errors"),
    (["taylor-study", "--eta-max", "0.01"], None, "holds no eta > 0"),
    (["taylor-study", "--eta-max", "0.02"], None, "holds no eta > 0"),
    # an empty list is refused before anything runs or is written
    (["gauge-theorem", "--cutoffs", ","], None, "--cutoffs"),
    (["taylor-study", "--orders", ","], None, "--orders"),
    (["full-model", "--m-levels", ","], None, "--m-levels"),
    (["rabi-sweep"], "[rabi-sweep]\nmodels = ,\n", "key 'models'"),
    # a cap below one doubling of the initial cutoff lets no point converge
    (["rabi-sweep", "--cutoff-cap", "79"], None, "cutoff_cap 79 allows no doubling"),
    (["alpha-check", "--cutoff-cap", "40"], None, "cutoff_cap 40 allows no doubling"),
]


@pytest.mark.parametrize("argv,config,fragment", BAD_INPUT,
                         ids=[" ".join(a) + (f" config {c!r}" if c else "")
                              for a, c, _ in BAD_INPUT])
def test_bad_input_exit_1(tmp_path, capsys, argv, config, fragment):
    """Non-finite numbers, unusable files and malformed config files are
    argument errors: exit 1, one error line naming the cause, no table."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    x = np.linspace(-8.0, 8.0, 2001)
    v = 0.5 * x ** 2
    v[700] = np.nan
    nan_table = tmp_path / "nan.dat"
    np.savetxt(nan_table, np.column_stack([x, v]))
    x[700], v[700] = np.nan, 0.0
    nan_x_table = tmp_path / "nan_x.dat"
    np.savetxt(nan_x_table, np.column_stack([x, v]))
    subs = {"{missing}": str(tmp_path / "missing.dat"), "{file}": str(blocker),
            "{nan-table}": str(nan_table), "{nan-x-table}": str(nan_x_table)}
    argv = [subs.get(a, a) for a in argv]
    if config is not None:
        argv += ["--config", write_config(tmp_path, config)]
    out = tmp_path / "out"
    if "--outdir" not in argv:
        argv += ["--outdir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err
    assert not out.exists() and not list(tmp_path.glob("**/*.csv"))


# "{file}" stands for an existing file; nothing is solved for any of these
EARLY_BAD_INPUT = [
    (["gauge-theorem", "--cutoffs", "20,30", "--outdir", "{file}"], "File exists"),
    (["rabi-sweep", "--outdir", "{file}/sub"], "Not a directory"),
    (["full-model", "--outdir", "{file}"], "File exists"),
    (["full-model", "--m-levels", "2,64"], "m_levels 64 exceeds solved levels 50"),
    (["full-model", "--m-levels", "1,4"], "m_levels 1 is below 2"),
    (["particle-demo", "--kernel-levels", "2,64"], "kernel level 64 exceeds solved levels 32"),
    (["particle-demo", "--kernel-levels", "1,8"], "kernel level 1 is below 2"),
    (["full-model", "--levels", "0"], "levels must be >= 1, got 0"),
    (["full-model", "--cutoff", "0"], "cutoff must be >= 1, got 0"),
    (["full-model", "--levels", "2000"],
     "levels 2000 needs 2001 eigenvalues, but m_levels 2 at cutoff 48 has 98"),
    (["fluxonium", "--levels", "0"], "levels must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv,fragment", EARLY_BAD_INPUT,
                         ids=[" ".join(a) for a, _ in EARLY_BAD_INPUT])
def test_bad_output_or_levels_fail_before_the_solve(tmp_path, capsys, monkeypatch, argv,
                                                     fragment):
    """An unusable --outdir and matter levels the model cannot solve are
    argument errors found before any work: exit 1, one error line, no table
    and no output directory left behind."""
    def solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    for module, name in ((particle1d, "solve_particle"), (cli.rabi, "check_gauge_theorem"),
                         (experiments, "run_sweep"), (cli.fluxonium, "solve_fluxonium")):
        monkeypatch.setattr(module, name, solve)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [a.replace("{file}", str(blocker)) for a in argv]
    out = tmp_path / "out"
    if "--outdir" not in argv:
        argv += ["--outdir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err
    assert captured.out == ""
    assert not out.exists()


def test_full_model_dimension_cap_exit_2_before_the_solve(tmp_path, capsys, monkeypatch):
    """The largest model's dimension is known from the arguments, so a
    cutoff past the cap fails before the grid solve: exit 2, no table."""
    def solve(*args, **kwargs):
        raise AssertionError("solved before the dimension was checked")

    monkeypatch.setattr(particle1d, "solve_particle", solve)
    out = tmp_path / "out"
    assert main(["full-model", "--cutoff", "200", "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "DimensionOverflowError: product dimension 6432 exceeds cap 4096" in captured.err
    assert captured.out == "" and not out.exists()


def test_rabi_sweep_stays_below_eta_max(tmp_path):
    argv = ["rabi-sweep", "--eta-max", "0.04", "--models", "D", "--cutoff0", "10"]
    assert run(argv, tmp_path) == 0
    rows = (tmp_path / "rabi_sweep.csv").read_text().splitlines()[4:]
    assert [row.split(",")[1] for row in rows] == ["0", "0.025"]


def test_particle_demo_coarse_table_exit_2(tmp_path, capsys):
    x = [f"{-8 + 0.016 * i:.6f}" for i in range(1001)]
    table = tmp_path / "coarse.dat"
    table.write_text("\n".join(
        f"{xi} {(-1.2 * float(xi) ** 2 + 0.25 * float(xi) ** 4):.9f}"
        for xi in x) + "\n")
    argv = ["particle-demo", "--potential-table", str(table)]
    assert run(argv, tmp_path) == 2
    assert "GridTooCoarse" in capsys.readouterr().err


def harmonic_table(tmp_path):
    # fine enough (dx 4e-3) for the minimal-coupling check at the default a0
    x = np.linspace(-8.0, 8.0, 4001)
    table = tmp_path / "harmonic.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2]))
    return table


def test_particle_demo_table_at_defaults(tmp_path, capsys):
    # a table model solves 10 levels: the default kernel level 32 is dropped
    # and named, and the run completes
    assert run(["particle-demo", "--potential-table", str(harmonic_table(tmp_path))],
               tmp_path) == 0
    out = capsys.readouterr().out
    assert out.startswith("default kernel levels 32 exceed the 10 solved levels; "
                          "not scanned\n")
    assert re.findall(r"^projected potential, k= *(\d+):", out, re.M) == ["2", "8"]
    assert (tmp_path / "particle_demo.csv").exists()


def test_particle_demo_table_explicit_kernel_level_out_of_range(tmp_path, capsys):
    argv = ["particle-demo", "--potential-table", str(harmonic_table(tmp_path)),
            "--kernel-levels", "2,32"]
    assert run(argv, tmp_path) == 1
    captured = capsys.readouterr()
    assert "kernel level 32 exceeds solved levels 10" in captured.err
    assert captured.out == ""


def test_full_model_harmonic_quick(tmp_path, capsys):
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,4",
            "--cutoff", "20", "--levels", "3"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    # the grid solve covers the max(m_levels) = 4 levels the models read
    assert re.search(r"^grid: mirror halves 3001\+3000 pts, 2\+2 levels; "
                     r"refinement shift \d\.\de-\d\d of 1e-06$", out, re.M)
    # 4 matter levels x 21 Fock levels, two per level in each parity chain
    assert re.search(r"^models: parity bands 42\+42 rows, widths 3 \(D\) / 4 \(C\) "
                     r"at m_levels 4; lowest 4 levels$", out, re.M)
    assert out.index("grid:") < out.index("models:") < out.index("gap ratio")
    assert (tmp_path / "full_model.csv").exists()


def test_full_model_defaults_solve_the_levels_the_models_read(tmp_path, capsys):
    # the double well's preset solves 50 levels, the default m_levels read 32
    assert particle1d.double_well_model().eigen_count == 50
    assert run(["full-model"], tmp_path) == 0
    out = capsys.readouterr().out
    assert re.search(r"^grid: mirror halves 6001\+6000 pts, 16\+16 levels; "
                     r"refinement shift \d\.\de-\d\d of 1e-06$", out, re.M)


def test_full_model_shift_above_spectrum_exit_2(tmp_path, monkeypatch, capsys):
    # the banded Cholesky factor of the shifted grid operator exists only for
    # a shift below the spectrum
    monkeypatch.setattr(particle1d, "_shift", lambda model: float(model.potential.max()))
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,4", "--cutoff", "8"]
    assert run(argv, tmp_path) == 2
    assert "ShiftAboveSpectrumError: shift" in capsys.readouterr().err
    assert not (tmp_path / "full_model.csv").exists()


def record_solvers(monkeypatch):
    """Log (dtype, rows) of every dense eigenvalue solve, by eigvalsh or by
    the tridiagonal reduction dsytrd, and (routine, band shape, its selected
    index range, from 0, as eig_banded's select_range) of every ?sbevx or
    ?hbevx call and of every dstebz bisection, whose band is the
    tridiagonal (2, rows)."""
    seen, banded = [], []

    for module, name in ((np.linalg, "eigvalsh"), (linalg._LAPACK, "dsytrd")):
        def record(a, *args, _solve=getattr(module, name), **kwargs):
            seen.append((a.dtype, a.shape[0]))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(module, name, record)

    for name in ("dsbevx", "zhbevx"):
        def record_banded(ab, vl, vu, il, iu, *args, _name=name,
                          _solve=getattr(linalg._LAPACK, name), **kwargs):
            banded.append((_name, ab.shape, (il - 1, iu - 1)))
            return _solve(ab, vl, vu, il, iu, *args, **kwargs)

        monkeypatch.setattr(linalg._LAPACK, name, record_banded)

    def record_bisection(d, e, select, vl, vu, il, iu, *args, _solve=linalg._LAPACK.dstebz):
        banded.append(("dstebz", (2, d.size), (il - 1, iu - 1)))
        return _solve(d, e, select, vl, vu, il, iu, *args)

    monkeypatch.setattr(linalg._LAPACK, "dstebz", record_bisection)
    return seen, banded


def test_full_model_solves_parity_blocks(tmp_path, monkeypatch):
    seen, banded = record_solvers(monkeypatch)
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,4",
            "--cutoff", "8"]
    assert run(argv, tmp_path) == 0
    # D then C at m=2 (dim 18), then at m=4 (dim 36): two parity chains each,
    # asked for ceil(5 / 2) = 3 of the lowest levels + 1 = 5 eigenvalues,
    # whose union holds the lowest 5, so no chain is asked again; the m=2 D
    # chains are tridiagonal and bisected by dstebz itself; no dense solve
    assert seen == []
    assert banded == [("dstebz", (2, 9), (0, 2))] * 2 + [("dsbevx", (3, 9), (0, 2))] * 2 \
        + [("dsbevx", (4, 18), (0, 2))] * 2 + [("dsbevx", (5, 18), (0, 2))] * 2


def test_full_model_defaults_route_wide_chains_to_shift_invert(tmp_path, monkeypatch):
    """At the defaults the m = 2 D chains, which are tridiagonal, go to
    dstebz, the other m = 2, 4 and 8 chains to ?sbevx, and the m = 16 and
    32 chains, after the four grid solves, to shift-invert Lanczos, which
    factors each band once by ?pbtrf; the Rabi chains of a sweep out to
    eta = 3 never reach it."""
    eigsh_rows = []
    for name in ("dpbtrf", "zpbtrf"):
        def record(ab, *args, _factor=getattr(linalg._LAPACK, name), **kwargs):
            eigsh_rows.append(ab.shape[1])
            return _factor(ab, *args, **kwargs)

        monkeypatch.setattr(linalg._LAPACK, name, record)
    _, banded = record_solvers(monkeypatch)
    assert run(["full-model"], tmp_path) == 0
    # m (cutoff + 1) / 2 rows a chain, two chains each for D and C
    assert [(name, shape[1]) for name, shape, _ in banded] == \
        [("dstebz", 49)] * 2 + [("dsbevx", 49)] * 2 + [("dsbevx", 98)] * 4 \
        + [("dsbevx", 196)] * 4
    assert all(rows > 3000 for rows in eigsh_rows[:4])
    assert eigsh_rows[4:] == [392] * 4 + [784] * 4
    eigsh_rows.clear()
    assert run(["rabi-sweep", "--eta-max", "3.0", "--eta-step", "0.5"], tmp_path) == 0
    assert eigsh_rows == []


def test_full_model_chain_shift_above_spectrum_exit_2(tmp_path, monkeypatch, capsys):
    # a chain's shift at its largest diagonal entry is inside its spectrum,
    # and ?pbtrf refuses the factor
    monkeypatch.setattr(linalg, "_below_gershgorin", lambda chain: float(chain[0].max()))
    argv = ["full-model", "--model", "harmonic", "--m-levels", "2,16"]
    assert run(argv, tmp_path) == 2
    assert "ShiftAboveSpectrumError: shift" in capsys.readouterr().err
    assert not (tmp_path / "full_model.csv").exists()


def test_full_model_lanczos_no_convergence_exit_2(tmp_path, monkeypatch, capsys):
    # no residual is below a negative tolerance, so the first grid solve's
    # basis reaches its cap (a converged residual can be exactly 0.0)
    monkeypatch.setattr(linalg, "LANCZOS_RTOL", -1.0)
    assert run(["full-model"], tmp_path) == 2
    assert "ConvergenceFailureError: shift-invert Lanczos failed" in capsys.readouterr().err
    assert not (tmp_path / "full_model.csv").exists()


def test_particle_demo_tilted_table_solves_full_grid(tmp_path, capsys):
    x = np.linspace(-10.0, 10.0, 2001)
    table = tmp_path / "tilted.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    argv = ["particle-demo", "--potential-table", str(table), "--kernel-levels", "2",
            "--a0", "0.1"]
    assert run(argv, tmp_path) == 0
    out = capsys.readouterr().out
    assert re.search(r"^grid: full grid 2001 pts, 10 levels; "
                     r"refinement shift \d\.\de-\d\d of 1e-06$", out, re.M)


@pytest.mark.parametrize("argv", [
    ["--a0", "1.0"],
    ["--potential-table", "{tilted}", "--kernel-levels", "2"],
])
def test_particle_demo_judges_the_identity_not_the_grid(tmp_path, capsys, argv):
    # the residual scales as (q A0 dx)^2, and the bound with it: a larger
    # amplitude, or a coarser table (3001 points, dx 6.7e-3), still passes
    x = np.linspace(-10.0, 10.0, 3001)
    table = tmp_path / "tilted.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    argv = [a.format(tilted=table) for a in argv]
    assert run(["particle-demo"] + argv, tmp_path) == 0
    out = capsys.readouterr().out
    verdict = re.search(r"^minimal-coupling identity at qA0=\S+: residual (\S+) vs bound "
                        r"\(qA0 dx\)\^2 = (\S+), spectrum deviation \S+: PASS$", out, re.M)
    assert verdict and 0.3 < float(verdict[1]) / float(verdict[2]) < 0.5


def test_full_model_tilted_well_exit_2(tmp_path, monkeypatch, capsys):
    # both named models are mirror-symmetric; a basis without mirror parity
    # breaks the parity chains, and the band writer refuses it
    x = np.linspace(-10.0, 10.0, 2001)
    table = tmp_path / "tilted.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    model = particle1d.model_from_table(table, eigen_count=6)
    monkeypatch.setattr(cli, "_named_model", lambda p: model)
    seen, banded = record_solvers(monkeypatch)
    argv = ["full-model", "--m-levels", "2,4", "--cutoff", "8"]
    assert run(argv, tmp_path) == 2
    assert "ParityError: term 2 leaves the parity blocks" in capsys.readouterr().err
    assert seen == [] and banded == []
    assert not (tmp_path / "full_model.csv").exists()


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


@pytest.mark.parametrize("argv, eta_max", [
    (["--eta-step", "1e-300", "--eta-max", "1"], "1"),
    (["--eta-max", "1e300", "--eta-step", "1e-300"], "1e+300"),
])
def test_eta_grid_size_is_checked(tmp_path, argv, eta_max):
    # a subprocess under a time limit: the unchecked grid never returns on
    # the first, and overflows int() with a traceback on the second
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "gaugeqed.cli", "rabi-sweep", *argv,
                           "--outdir", str(tmp_path / "out")], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: the eta grid up to eta_max {eta_max} in steps of "
                           "1e-300 has over 1000000 points\n")
    assert proc.stdout == "" and list(tmp_path.iterdir()) == []


def test_unknown_named_model(tmp_path, capsys):
    argv = ["full-model", "--model", "cubic"]
    assert run(argv, tmp_path) == 1
    assert "unknown model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the table writer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, written", [
    (TINY_SWEEP + ["--emit-plots"], ["rabi_sweep.csv", "rabi_sweep.gp"]),
    (["dicke-sweep", "--eta-max", "0.05", "--eta-step", "0.05", "--levels", "2",
      "--out", "d.csv", "--emit-plots"], ["d.csv", "d.gp"]),
    (["taylor-study", "--orders", "2", "--eta-max", "0.05", "--eta-step", "0.05",
      "--cutoff", "40", "--levels", "2", "--emit-plots"], ["taylor_study.csv"]),
    (["alpha-check", "--alphas", "0,1", "--eta", "0.1", "--levels", "2"],
     ["alpha_check.csv"]),
    (["gauge-theorem", "--cutoffs", "20", "--eta", "0.1", "--out", "g.csv"], ["g.csv"]),
    (["fluxonium", "--basis-size", "60", "--cutoff", "30", "--levels", "2",
      "--n-keep", "4"], ["fluxonium.csv"]),
    (["particle-demo", "--kernel-levels", "2"], ["particle_demo.csv"]),
    (["full-model", "--model", "harmonic", "--m-levels", "2,4", "--cutoff", "8"],
     ["full_model.csv"]),
], ids=list(COMMANDS))
def test_every_table_goes_through_write_table(tmp_path, monkeypatch, argv, written):
    # one call per table, at outdir/out, plus the gnuplot file of a sweep
    # with --emit-plots; nothing else reaches the output directory
    calls = []
    write_table = experiments.write_table

    def record(path, lines):
        calls.append(Path(path))
        write_table(path, lines)

    monkeypatch.setattr(experiments, "write_table", record)
    assert run(argv, tmp_path) == 0
    assert calls == [tmp_path / name for name in written]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(written)


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


def readme_flag_tables(doc):
    """{heading: [table, ...]} for the README's ### sections, each table a
    list of (flag, default) cells with the backticks stripped."""
    tables, heading, table = {}, None, None
    for line in doc.splitlines():
        if line.startswith("### "):
            heading = line[4:].strip()
        if line.startswith("| `--"):
            if table is None:
                table = []
                tables.setdefault(heading, []).append(table)
            flag, default = (c.strip().strip("`") for c in line.split("|")[1:3])
            table.append((flag, default))
        elif not line.startswith("|"):
            table = None
    return tables


def documents_default(cell, opt):
    """Whether a README default cell states ``opt.default``: numbers compare
    as floats and lists elementwise, False reads off and None none."""
    if opt.default is None:
        return cell == "none"
    if opt.default is False:
        return cell == "off"
    if opt.kind in ("int", "float"):
        return float(cell) == float(opt.default)
    if opt.kind in ("ints", "floats"):
        return [float(v) for v in cell.split(",")] == [float(v) for v in opt.default]
    if opt.kind == "strs":
        return cell.split(",") == opt.default
    return cell == opt.default


def test_readme_flag_tables_match_registry():
    """Each table lists its registry options once, with their defaults, and
    no flag the registry lacks; --config is the parser's own flag."""
    doc = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = readme_flag_tables(doc)
    common, conv = tables["Common flags"]
    expected = [(common, cli._COMMON, ["--config"]), (conv, cli._CONV, [])]
    for name, (opts, *_) in COMMANDS.items():
        [table] = tables[f"`{name}`"]
        expected.append((table, [o for o in opts if o not in cli._CONV], []))
    for table, opts, extra in expected:
        flags = [flag for flag, _ in table]
        assert sorted(flags) == sorted([cli._flag(o.key) for o in opts] + extra), flags
        cells = dict(table)
        for opt in opts:
            assert documents_default(cells[cli._flag(opt.key)], opt), \
                (cli._flag(opt.key), cells[cli._flag(opt.key)], opt.default)
