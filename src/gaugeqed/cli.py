"""Command-line front end.

Exit codes: 0 on success, 1 for invalid arguments or configuration (a
non-finite number, an unreadable file or a malformed config file among
them), 2 for a numerical failure (failed convergence or a violated
invariant, named on stderr).  Parameters resolve in three layers: built-in
defaults, then an INI config file (section [common] for shared keys, one
section per subcommand), then explicit flags.  ``resolve`` merges them into
one dict of the subcommand's options, the common ones included, and each
entry of ``COMMANDS`` names the handler that takes that dict.  Every table
reaches disk through ``experiments.write_table``.  Output tables use fixed
formats, and OpenBLAS runs one thread unless the environment sets its thread
count (see ``gaugeqed``), so a rerun with the same configuration is
byte-identical at any ``--threads`` and on any number of cores.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__, experiments, fluxonium, particle1d, rabi
from .linalg import LinalgError, check_dim, parity_band_sum, parity_block_sum

ENV_OUTDIR = "GAUGEQED_OUTDIR"

NUMERICAL_ERRORS = (
    experiments.CutoffCeilingError,
    particle1d.GridTooCoarseError,
    particle1d.BoundaryLeakError,
    particle1d.ParityOrderError,
    fluxonium.BasisTooSmallError,
    LinalgError,
)

# a subcommand's resolved parameters, keyed as its options are
Params = Dict[str, object]


@dataclass(frozen=True)
class Opt:
    key: str          # params key; config key; flag is the dashed form
    kind: str         # int | float | str | bool, or ints | floats | strs
    default: object
    help: str


# particle-demo's projection sizes when --kernel-levels is not given; the
# ones above the levels a model solves (10 for a table) are dropped
DEFAULT_KERNEL_LEVELS = (2, 8, 32)


_COMMON = (
    Opt("outdir", "str", None,
        f"output directory (default: ${ENV_OUTDIR} if set, else '.')"),
    Opt("threads", "int", 1, "worker processes for independent sweep points, "
        "capped at the usable CPUs and at one per 3 points"),
    Opt("emit_plots", "bool", False,
        "also write gnuplot files next to the CSV table"),
)

_CONV = (
    Opt("cutoff0", "int", 40, "initial Fock cutoff for auto-convergence"),
    Opt("cutoff_cap", "int", 2000, "largest cutoff tried before flagging"),
    Opt("conv_tol", "float", 1e-8,
        "convergence tolerance on transitions, units of omega_c"),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; that code is reserved for numerical
    # failures here, so argument problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="gaugeqed",
                     description="Gauge-consistent cavity QED model checks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (opts, blurb, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=blurb, description=blurb)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="INI file with [common] and per-command sections")
        for opt in _COMMON + opts:
            # every flag defaults to None, so that an unset flag can fall back
            # to the config file; the help shows the registry default instead
            help_text = opt.help if opt.default is None \
                else f"{opt.help} (default: {_fmt_default(opt.default)})"
            if opt.kind == "bool":
                sp.add_argument(_flag(opt.key), default=None,
                                action=argparse.BooleanOptionalAction,
                                help=help_text)
            else:
                # the value stays a string here; resolve converts it with
                # _parse_str, so that a flag and a config key are checked alike
                sp.add_argument(_flag(opt.key), default=None,
                                metavar="LIST" if opt.kind not in _CONVERTERS else None,
                                help=help_text)
    return parser


def _fmt_default(v) -> str:
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


def _finite(raw: str) -> float:
    """float(raw), refusing nan and inf: no parameter of the program takes
    them, and past this point they would surface as numerical failures."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# the converter of each scalar kind; a plural kind ("ints") is a comma list
# of its singular
_CONVERTERS: Dict[str, Callable[[str], object]] = {
    "int": int, "float": _finite, "str": str, "bool": _bool}


def _parse_str(kind: str, raw: str, key: str):
    plural = kind not in _CONVERTERS
    convert = _CONVERTERS[kind[:-1] if plural else kind]
    if plural:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        # every list option reads at least one entry
        if not items:
            raise ValueError(f"{_flag(key)} (config key {key!r}) needs at least one "
                             f"value, got {raw!r}")
    try:
        return [convert(s) for s in items] if plural else convert(raw)
    except ValueError:
        raise ValueError(f"bad value {raw!r} for key {key!r}") from None


def _read_config(path: str, command: str) -> Dict[str, str]:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"config file not found: {path}")
    known_common = {o.key for o in _COMMON}
    vals: Dict[str, str] = {}
    for section, known in (("common", known_common),
                           (command, known_common | {o.key for o in COMMANDS[command][0]})):
        if cp.has_section(section):
            for key, raw in cp.items(section):
                if key not in known:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                vals[key] = raw
    for section in cp.sections():
        if section != "common" and section not in COMMANDS:
            raise ValueError(f"unknown config section [{section}]")
    return vals


def resolve(ns: argparse.Namespace) -> Params:
    """Every option of ``ns.command``, the common ones included: its flag,
    else its config-file key, else its default; ``outdir`` falls back to
    $GAUGEQED_OUTDIR, then to '.'."""
    file_vals = _read_config(ns.config, ns.command) if ns.config else {}
    p: Params = {}
    for opt in _COMMON + COMMANDS[ns.command][0]:
        # a bool flag arrives as a bool, any other flag or key as its text
        raw = getattr(ns, opt.key)
        if raw is None:
            raw = file_vals.get(opt.key)
        if isinstance(raw, str):
            raw = _parse_str(opt.kind, raw, opt.key)
        p[opt.key] = opt.default if raw is None else raw
    if p["outdir"] is None:
        p["outdir"] = os.environ.get(ENV_OUTDIR, ".")
    if p["threads"] < 1:
        raise ValueError("threads must be >= 1")
    return p


def _make_outdir(outdir: str) -> List[Path]:
    """Create the output directory before any work, so that an unusable
    ``--outdir`` fails at once; returns the directories this made, deepest
    first."""
    path = Path(outdir)
    made = list(itertools.takewhile(lambda d: not d.exists(), (path, *path.parents)))
    path.mkdir(parents=True, exist_ok=True)
    return made


def _remove_empty(made: List[Path]) -> None:
    """Remove the directories ``_make_outdir`` made, deepest first, while
    they are empty: a run that wrote nothing leaves nothing behind."""
    for d in made:
        try:
            d.rmdir()
        except OSError:
            return


def _write_out(p: Params, lines: List[str]) -> None:
    """Write the run's table, ``lines``, to outdir/out and say so."""
    out = Path(p["outdir"]) / p["out"]
    experiments.write_table(out, lines)
    print(f"wrote {out}")


def _policy(p: Params) -> experiments.ConvergencePolicy:
    return experiments.ConvergencePolicy(cutoff0=p["cutoff0"],
                                         cutoff_cap=p["cutoff_cap"],
                                         tol=p["conv_tol"])


def _check_positive(p: Params, *keys: str) -> None:
    """Raise ValueError unless each integer parameter of ``keys`` is >= 1."""
    for key in keys:
        if p[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {p[key]}")


def _fail(msg: str) -> int:
    print(msg, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _run_family_sweep(p: Params, family: str) -> int:
    spec = experiments.SweepSpec(
        models=tuple(p["models"]),
        eta_grid=experiments.default_eta_grid(p["eta_max"], p["eta_step"]),
        detuning=p["detuning"], levels_reported=p["levels"],
        policy=_policy(p), family=family,
        n_dipoles=p.get("n_dipoles", 1))
    result = experiments.run_sweep(spec, threads=p["threads"])
    out = Path(p["outdir"]) / p["out"]
    experiments.write_table(out, experiments.sweep_csv_lines(result))
    written = [str(out)]
    if p["emit_plots"]:
        gp = out.with_suffix(".gp")
        experiments.write_gnuplot_script(out.name, gp, f"{family} sweep",
                                         spec.levels_reported, spec.models)
        written.append(str(gp))
    print(f"wrote {' '.join(written)} ({len(result.points)} points)")
    experiments.check_converged(result.points, spec.policy.cutoff_cap)
    return 0


def _cmd_taylor_study(p: Params) -> int:
    grid = experiments.default_eta_grid(p["eta_max"], p["eta_step"],
                                        include_zero=False)
    study = experiments.taylor_study(p["orders"], grid, detuning=p["detuning"],
                                     cutoff=p["cutoff"], levels=p["levels"],
                                     tol=p["tol"], threads=p["threads"])
    for i, (n, star, first) in enumerate(zip(study.orders, study.eta_star,
                                             study.first_bad)):
        tail = f" (first exceedance at eta={first:g})" if first is not None \
            else " (never exceeded on this grid)"
        print(f"order {n}: eta_star = {star:g} at tol {study.tol:g}{tail}; "
              f"{study.exact_points[i]} of {study.scanned(i)} points bit-identical "
              "to the full model, not solved")
    # each parity class holds one qubit level per Fock level
    rows = study.cutoff + 1
    print(f"models: parity blocks {rows}+{rows} rows at cutoff {study.cutoff}; "
          f"lowest {min(study.levels + 1, 2 * rows)} eigenvalues of the two")
    _write_out(p, experiments.taylor_csv_lines(study))
    return 0


def _cmd_alpha_check(p: Params) -> int:
    if p["break_min"] <= 0:
        raise ValueError(f"break_min must be > 0, got {p['break_min']:g}")
    policy = _policy(p)
    study = experiments.alpha_invariance_study(
        p["alphas"], p["eta"], detuning=p["detuning"], levels=p["levels"],
        policy=policy, tol=p["tol"],
        negative_control=p["negative_control"], threads=p["threads"])
    print(f"max spread {study.max_spread:.6e} vs tol {study.tol:g} "
          f"over alphas {','.join(f'{a:g}' for a in study.alphas)}: "
          + study.verdict
          + (" [negative control]" if study.negative_control else ""))
    _write_out(p, experiments.alpha_csv_lines(study))
    # a spread between unconverged transitions judges the truncation
    experiments.check_converged(study.points, policy.cutoff_cap)
    if study.negative_control:
        if study.max_spread < p["break_min"]:
            return _fail("negative control failed: naive model left spread "
                         f"{study.max_spread:.3e} < {p['break_min']:g}")
        print("negative control violated invariance, as it must")
        return 0
    if not study.passed:
        return _fail(f"gauge invariance violated: spread {study.max_spread:.3e} "
                     f"> {study.tol:g}")
    return 0


_UNITS_LINE = "# unit convention: hbar = 1, energies in units of omega_c"


def _ascending(name: str, values) -> None:
    """Raise ValueError unless ``values`` ascends strictly: each verdict
    compares the first and last entries, or reads the last one."""
    if any(b <= a for a, b in zip(values, values[1:])):
        shown = ",".join(f"{v:g}" for v in values)
        raise ValueError(f"{name} must be strictly ascending, got {shown}")


def _cmd_gauge_theorem(p: Params) -> int:
    _ascending("cutoffs", p["cutoffs"])
    reports = []
    for c in p["cutoffs"]:
        params = rabi.RabiParams(eta=p["eta"], cutoff=c, detuning=p["detuning"])
        reports.append(rabi.check_gauge_theorem(
            params, interior_fraction=p["interior_fraction"], tol=p["tol"]))
    print("cutoff  interior_dev    full_dev        full_dev_rel    status")
    lines = [_UNITS_LINE,
             "cutoff,max_dev_interior,max_dev_full,max_dev_full_rel,passed"]
    for r in reports:
        print(f"{r.cutoff:6d}  {r.max_dev_interior:.6e}  {r.max_dev_full:.6e}"
              f"  {r.max_dev_full_rel:.6e}  "
              + ("PASS" if r.passed else "FAIL"))
        lines.append(f"{r.cutoff},{r.max_dev_interior:.12e},"
                     f"{r.max_dev_full:.12e},{r.max_dev_full_rel:.12e},"
                     f"{int(r.passed)}")
    _write_out(p, lines)
    final = reports[-1]
    if not final.passed:
        return _fail(f"gauge theorem violated in the interior: deviation "
                     f"{final.max_dev_interior:.3e} > {final.tol:g} "
                     f"at cutoff {final.cutoff}")
    return 0


def _cmd_fluxonium(p: Params) -> int:
    params = fluxonium.FluxoniumParams(
        e_c=p["e_c"], e_l=p["e_l"], e_j=p["e_j"], chi0=p["chi0"],
        omega_c=p["omega_c"], basis_size=p["basis_size"], cutoff=p["cutoff"],
        n_keep=p["n_keep"])
    _check_positive(p, "levels")
    levels = p["levels"]
    if levels + 1 > params.n_keep:
        raise ValueError("levels must be < n_keep")
    basis = fluxonium.solve_fluxonium(params)
    g_c = fluxonium.coupling_g_c(params, basis)
    t_std = experiments.lowest_transitions(
        parity_block_sum(fluxonium.terms_flux_charge_standard(params, basis)), levels)
    t_cor = experiments.lowest_transitions(
        parity_block_sum(fluxonium.terms_flux_charge_correct(params, basis)), levels)
    rel = np.abs(t_std - t_cor) / np.maximum(t_cor, params.omega_c)
    print(f"omega_10 = {basis.omega_10:.9e}  |phi_10| = "
          f"{abs(basis.phi_10):.9e}  g_C = {g_c:.9e}")
    print("level  t_standard      t_correct       rel_dev")
    lines = [f"# unit convention: hbar = 1, energies on the omega_c = "
             f"{params.omega_c:g} input scale",
             "level,t_standard,t_correct,rel_dev"]
    for i in range(levels):
        print(f"{i + 1:5d}  {t_std[i]:.6e}  {t_cor[i]:.6e}  {rel[i]:.3e}")
        lines.append(f"{i + 1},{t_std[i]:.12e},{t_cor[i]:.12e},{rel[i]:.12e}")
    _write_out(p, lines)
    return 0


def _named_model(p: Params) -> particle1d.ParticleModel:
    if p.get("potential_table"):
        return particle1d.model_from_table(p["potential_table"])
    name = p["model"]
    if name == "harmonic":
        return particle1d.harmonic_model()
    if name == "double_well":
        return particle1d.double_well_model()
    raise ValueError(f"unknown model {name!r}; choose harmonic or double_well")


def _check_matter_levels(name: str, values, model: particle1d.ParticleModel) -> None:
    """Raise ValueError unless each of ``values`` lies in [2, eigen_count]:
    the model solves at most eigen_count levels, and a projection needs two.
    Checked before the grid solve, which is most of the run."""
    for k in values:
        if k < 2:
            raise ValueError(f"{name} {k} is below 2")
        if k > model.eigen_count:
            raise ValueError(f"{name} {k} exceeds solved levels {model.eigen_count}")


def _cmd_particle_demo(p: Params) -> int:
    _check_positive(p, "levels")
    model = _named_model(p)
    kernel_levels = p["kernel_levels"]
    if kernel_levels is None:
        kernel_levels = [k for k in DEFAULT_KERNEL_LEVELS if k <= model.eigen_count]
        dropped = [str(k) for k in DEFAULT_KERNEL_LEVELS if k > model.eigen_count]
        if dropped:
            print(f"default kernel levels {','.join(dropped)} exceed the "
                  f"{model.eigen_count} solved levels; not scanned")
    _check_matter_levels("kernel level", kernel_levels, model)
    basis = particle1d.solve_particle(model)
    print(basis.describe_solve())
    levels = min(p["levels"], basis.m_levels)
    print("n  energy")
    lines = ["# unit convention: hbar = 1, grid units (mass and potential "
             "as given)", "n,energy"]
    for i in range(levels):
        print(f"{i:2d}  {basis.energies[i]:.9e}")
        lines.append(f"{i},{basis.energies[i]:.12e}")
    trk = particle1d.trk_sum(basis, model)
    print(f"TRK sum over {basis.m_levels} levels: {trk:.9f}")
    for k in kernel_levels:
        ker = particle1d.nonlocal_kernel(basis, model, k)
        print(f"projected potential, k={k:3d}: off-diagonal weight "
              f"{ker.off_diagonality:.6e}")
    report = particle1d.check_minimal_coupling_identity(model, p["a0"])
    print(f"minimal-coupling identity at qA0={report.q_a0:g}: residual "
          f"{report.residual_rel:.3e} vs bound (qA0 dx)^2 = {report.bound:.3e}, "
          f"spectrum deviation {report.spectrum_dev:.3e}: "
          + ("PASS" if report.passed else "FAIL"))
    _write_out(p, lines)
    if not report.passed:
        return _fail(f"minimal-coupling identity violated: residual "
                     f"{report.residual_rel:.3e} > bound {report.bound:.3e}")
    return 0


def _cmd_full_model(p: Params) -> int:
    _ascending("m_levels", p["m_levels"])
    model = _named_model(p)
    _check_matter_levels("m_levels", p["m_levels"], model)
    _check_positive(p, "levels", "cutoff")
    cutoff, levels, smallest = p["cutoff"], p["levels"], min(p["m_levels"])
    # each model has m (cutoff + 1) states, known before the grid solve
    if levels + 1 > smallest * (cutoff + 1):
        raise ValueError(f"levels {levels} needs {levels + 1} eigenvalues, but m_levels "
                         f"{smallest} at cutoff {cutoff} has {smallest * (cutoff + 1)}")
    check_dim(max(p["m_levels"]) * (cutoff + 1))
    # the models read the lowest max(m_levels) levels, so the grid solve and
    # its refinement check cover exactly those
    basis = particle1d.solve_particle(
        replace(model, eigen_count=max(p["m_levels"])))
    print(basis.describe_solve())
    gaps = []
    print("m_levels  max_transition_gap")
    lines = [_UNITS_LINE, "m_levels,max_transition_gap"]
    for m in p["m_levels"]:
        # both named models are mirror-symmetric, so each splits into two
        # banded parity chains, solved for their lowest levels + 1 eigenvalues
        args = (model, basis, cutoff, p["a0"], m)
        bands_d = parity_band_sum(particle1d.terms_full_H_D(*args))
        t_d = experiments.lowest_transitions(bands_d, levels)
        bands_c = parity_band_sum(particle1d.terms_full_H_C(*args))
        t_c = experiments.lowest_transitions(bands_c, levels)
        gap = float(np.abs(t_d - t_c).max())
        gaps.append(gap)
        print(f"{m:8d}  {gap:.6e}")
        lines.append(f"{m},{gap:.12e}")
    rows = "+".join(str(chain.shape[1]) for chain in bands_d.chains)
    print(f"models: parity bands {rows} rows, widths {bands_d.width} (D) / "
          f"{bands_c.width} (C) at m_levels {m}; lowest {levels + 1} levels")
    ratio = gaps[0] / max(gaps[-1], 1e-300)
    print(f"gap ratio first/last: {ratio:.3e}")
    _write_out(p, lines)
    if len(gaps) > 1 and gaps[-1] > gaps[0]:
        return _fail("gauge gap grew with matter truncation size; "
                     "the two truncations do not reconcile")
    return 0


# each subcommand: its options, its help line, and its handler, which takes
# the parameters resolve returns and gives the exit code
COMMANDS: Dict[str, Tuple[Tuple[Opt, ...], str, Callable[[Params], int]]] = {
    "rabi-sweep": ((
        Opt("models", "strs", ["D", "Cstd", "Ccorr"],
            "comma list from D,Cstd,Ccorr"),
        Opt("eta_max", "float", 1.5, "largest coupling eta = g_D/omega_c"),
        Opt("eta_step", "float", 0.025, "eta grid step"),
        Opt("levels", "int", 6, "transitions reported per point"),
        Opt("detuning", "float", 0.0, "omega_10 - omega_c"),
        Opt("out", "str", "rabi_sweep.csv", "output CSV name"),
    ) + _CONV,
        "Transition energies of the two-level models across the eta grid, "
        "each point at auto-converged cutoff.",
        lambda p: _run_family_sweep(p, "rabi")),
    "dicke-sweep": ((
        Opt("models", "strs", ["std", "corr"],
            "comma list from std,corr,dipole"),
        Opt("n_dipoles", "int", 2, "number of dipoles N (spin j = N/2)"),
        Opt("eta_max", "float", 1.0, "largest coupling eta"),
        Opt("eta_step", "float", 0.025, "eta grid step"),
        Opt("levels", "int", 6, "transitions reported per point"),
        Opt("detuning", "float", 0.0, "omega_10 - omega_c"),
        Opt("out", "str", "dicke_sweep.csv", "output CSV name"),
    ) + _CONV,
        "Same sweep for the N-dipole collective models.",
        lambda p: _run_family_sweep(p, "dicke")),
    "taylor-study": ((
        Opt("orders", "ints", [2, 3, 10, 200], "comma list of Taylor orders"),
        Opt("eta_max", "float", 1.6, "largest eta scanned"),
        Opt("eta_step", "float", 0.025, "eta grid step"),
        Opt("cutoff", "int", 200, "fixed Fock cutoff shared by both models"),
        Opt("levels", "int", 5, "transitions compared"),
        Opt("tol", "float", 0.01, "relative error defining eta_star"),
        Opt("detuning", "float", 0.0, "omega_10 - omega_c"),
        Opt("out", "str", "taylor_study.csv", "output CSV name"),
    ),
        "Error of order-n truncations of the trigonometric coupling against "
        "the full model; reports the largest eta each order tolerates.",
        _cmd_taylor_study),
    "alpha-check": ((
        Opt("alphas", "floats", [0.0, 0.25, 0.5, 0.75, 1.0],
            "comma list of gauge parameters in [0, 1]"),
        Opt("eta", "floats", [0.8], "coupling, or comma list of couplings"),
        Opt("levels", "int", 6, "transitions compared"),
        Opt("detuning", "float", 0.0, "omega_10 - omega_c"),
        Opt("tol", "float", 1e-6, "spread tolerance, units of omega_c"),
        Opt("negative_control", "bool", False,
            "replace the alpha=1 member by the naive Coulomb-gauge model"),
        Opt("break_min", "float", 0.1,
            "smallest spread the negative control must produce"),
        Opt("out", "str", "alpha_check.csv", "output CSV name"),
    ) + _CONV,
        "Spread of transition energies across the gauge family; exits 2 if "
        "a member misses the cutoff cap, or if invariance is violated (or "
        "the negative control fails to violate it).",
        _cmd_alpha_check),
    "gauge-theorem": ((
        Opt("eta", "float", 0.5, "coupling eta"),
        Opt("cutoffs", "ints", [60, 80, 100, 140],
            "comma list of Fock cutoffs"),
        Opt("interior_fraction", "float", 0.8,
            "fraction of Fock levels kept for the interior check"),
        Opt("tol", "float", 1e-8,
            "interior deviation tolerance, units of omega_c"),
        Opt("detuning", "float", 0.0, "omega_10 - omega_c"),
        Opt("out", "str", "gauge_theorem.csv", "output CSV name"),
    ),
        "Entrywise check that conjugating the dipole-gauge model (plus its "
        "dropped constant) reproduces the corrected Coulomb-gauge model, "
        "away from the truncation boundary.",
        _cmd_gauge_theorem),
    "fluxonium": ((
        Opt("e_c", "float", 1.0, "charging energy"),
        Opt("e_l", "float", 0.9, "inductive energy"),
        Opt("e_j", "float", 3.0, "Josephson energy"),
        Opt("omega_c", "float", 1.0,
            "cavity frequency; set it to select raw units, with E_C, E_L, "
            "E_J given on the same scale (outputs stay in these raw units)"),
        Opt("chi0", "float", 0.2, "coupling amplitude chi_0"),
        Opt("basis_size", "int", 120, "oscillator basis for the junction"),
        Opt("cutoff", "int", 60, "cavity Fock cutoff"),
        Opt("n_keep", "int", 6, "junction levels kept before projection"),
        Opt("levels", "int", 3, "transitions reported"),
        Opt("out", "str", "fluxonium.csv", "output CSV name"),
    ),
        "Two-level fluxonium coupled to an LC mode in the charge gauge: "
        "naive truncation against the corrected model.",
        _cmd_fluxonium),
    "particle-demo": ((
        Opt("model", "str", "harmonic", "harmonic or double_well"),
        Opt("potential_table", "str", None,
            "two-column x,V file overriding the named model"),
        Opt("levels", "int", 8, "grid energies printed"),
        Opt("kernel_levels", "ints", None,
            "projection sizes for the nonlocality scan (default: "
            f"{','.join(map(str, DEFAULT_KERNEL_LEVELS))}, less those above the "
            "levels the model solves)"),
        Opt("a0", "float", 0.3, "vector-potential amplitude q*A_0 at q=1"),
        Opt("out", "str", "particle_demo.csv", "output CSV name"),
    ),
        "Single-particle toolbox: grid spectrum, TRK sum rule, nonlocality "
        "of the projected potential, minimal-coupling identity check.",
        _cmd_particle_demo),
    "full-model": ((
        Opt("model", "str", "double_well", "harmonic or double_well"),
        Opt("m_levels", "ints", [2, 4, 8, 16, 32],
            "comma list of matter truncation sizes"),
        Opt("cutoff", "int", 48, "cavity Fock cutoff"),
        Opt("a0", "float", 0.3, "vector-potential amplitude"),
        Opt("levels", "int", 4, "transitions compared"),
        Opt("out", "str", "full_model.csv", "output CSV name"),
    ),
        "Dipole against Coulomb gauge for the untruncated-matter model at "
        "growing matter truncation; the gap must shrink.",
        _cmd_full_model),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if ns.command is None:
        parser.print_help()
        return 1
    made: List[Path] = []
    try:
        p = resolve(ns)
        made = _make_outdir(p["outdir"])
        return COMMANDS[ns.command][2](p)
    except (ValueError, OSError, configparser.Error) as e:
        # one line: configparser's messages quote the offending lines
        print("error: " + " ".join(str(e).split()), file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    finally:
        _remove_empty(made)


if __name__ == "__main__":
    sys.exit(main())
