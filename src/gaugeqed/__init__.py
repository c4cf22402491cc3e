"""Gauge-consistent light-matter models under material truncation.

Builds truncated cavity QED Hamiltonians in the dipole gauge, the naive and
corrected Coulomb gauge, and the interpolating gauge family, plus their
collective, circuit and untruncated-matter counterparts, and compares their
spectra.  Energies use hbar = 1 with the cavity frequency as the unit.

BLAS threads: the package's solves are long loops of small dense
eigenproblems and banded shift-invert steps, where a second OpenBLAS
thread gains no wall time but busy-waits a core between calls.  So
importing the package sets OPENBLAS_NUM_THREADS=1 when none of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS is set and
scipy's OpenBLAS is not loaded yet.  scipy bundles an OpenBLAS of its own,
which runs the parity block and band solves and the banded Cholesky
factor of shift-invert Lanczos; it reads its thread count once, when
scipy's LAPACK extension ``scipy.linalg._flapack`` loads it.
``gaugeqed.linalg`` loads that extension alone, right after the variable
is set, and ``scipy.linalg`` loads it too, so the policy tests whether the
extension is in ``sys.modules``.  numpy's OpenBLAS reads the variable when
numpy loads, so with numpy imported first the policy reaches scipy's
solves only.  A value set in the environment wins.  The only parallelism
left is ``--threads``: independent sweep points on worker processes,
capped at the usable CPUs, since the LAPACK wrappers hold the GIL and
threads would solve no two points at once.
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# scipy's OpenBLAS loads with its LAPACK extension, which gaugeqed.linalg
# and scipy.linalg both load
if "scipy.linalg._flapack" not in _sys.modules \
        and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .linalg import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DimensionOverflowError,
    LinalgError,
    NonHermitianError,
    NotUnitaryError,
    ParityBands,
    ParityBlocks,
    ParityError,
    ShiftAboveSpectrumError,
    Spectrum,
    conjugate,
    hermitian_eig,
    kron_sum,
    parity_band_sum,
    parity_block_sum,
    parity_eigvalsh,
    unitary_exp,
)
from .qops import quadrature_eig
from .rabi import (
    GaugeTheoremReport,
    RabiParams,
    bands_H_C_standard,
    bands_H_D,
    build_H_C_correct,
    build_H_C_standard,
    build_H_C_taylor,
    build_H_D,
    check_gauge_theorem,
    maclaurin_cos_sin,
    terms_H_alpha,
    terms_H_C_correct,
    terms_H_C_standard,
    terms_H_C_taylor,
    terms_H_D,
)
from .dicke import (
    DickeParams,
    build_dicke_correct,
    build_dicke_standard,
    terms_dicke_dipole,
)
from .particle1d import (
    BoundaryLeakError,
    Grid1D,
    GridTooCoarseError,
    MatterBasis,
    MinimalCouplingReport,
    NonlocalKernel,
    ParityOrderError,
    ParticleError,
    ParticleModel,
    build_full_H_C,
    build_full_H_D,
    check_minimal_coupling_identity,
    double_well_model,
    harmonic_model,
    model_from_table,
    nonlocal_kernel,
    solve_particle,
    terms_full_H_C,
    terms_full_H_D,
    trk_sum,
)
from .fluxonium import (
    BasisTooSmallError,
    FluxoniumBasis,
    FluxoniumParams,
    coupling_g_c,
    solve_fluxonium,
    terms_flux_charge_correct,
    terms_flux_charge_standard,
)
from .experiments import (
    AlphaStudy,
    ConvergencePolicy,
    CutoffCeilingError,
    SweepPoint,
    SweepResult,
    SweepSpec,
    TaylorStudy,
    WorkerLostError,
    alpha_invariance_study,
    converged_transitions,
    default_eta_grid,
    lowest_transitions,
    run_sweep,
    taylor_study,
    write_gnuplot_script,
    write_table,
)

__all__ = [
    "__version__",
    # linalg
    "Spectrum", "hermitian_eig", "unitary_exp", "conjugate", "kron_sum",
    "parity_block_sum", "ParityBlocks",
    "parity_band_sum", "ParityBands", "parity_eigvalsh",
    "LinalgError", "NonHermitianError", "NotUnitaryError",
    "ConvergenceFailureError", "DimensionMismatchError",
    "DimensionOverflowError", "ParityError", "ShiftAboveSpectrumError",
    # qops
    "quadrature_eig",
    # rabi
    "RabiParams", "terms_H_D", "terms_H_C_standard", "terms_H_C_correct",
    "terms_H_C_taylor", "terms_H_alpha", "build_H_D", "build_H_C_standard",
    "build_H_C_correct", "build_H_C_taylor",
    "bands_H_D", "bands_H_C_standard",
    "maclaurin_cos_sin", "check_gauge_theorem",
    "GaugeTheoremReport",
    # dicke
    "DickeParams", "terms_dicke_dipole", "build_dicke_standard",
    "build_dicke_correct",
    # particle1d
    "Grid1D", "ParticleModel", "MatterBasis", "harmonic_model",
    "double_well_model", "model_from_table", "solve_particle",
    "nonlocal_kernel", "NonlocalKernel", "check_minimal_coupling_identity",
    "MinimalCouplingReport", "terms_full_H_D", "terms_full_H_C",
    "build_full_H_D", "build_full_H_C", "trk_sum",
    "ParticleError", "GridTooCoarseError", "BoundaryLeakError",
    "ParityOrderError",
    # fluxonium
    "FluxoniumParams", "FluxoniumBasis", "solve_fluxonium", "coupling_g_c",
    "terms_flux_charge_standard", "terms_flux_charge_correct",
    "BasisTooSmallError",
    # experiments
    "ConvergencePolicy", "SweepSpec", "SweepPoint", "SweepResult",
    "run_sweep", "converged_transitions", "lowest_transitions",
    "default_eta_grid", "taylor_study", "TaylorStudy",
    "alpha_invariance_study", "AlphaStudy", "CutoffCeilingError", "WorkerLostError",
    "write_table", "write_gnuplot_script",
]
