"""Gauge-consistent light-matter models under material truncation.

Builds truncated cavity QED Hamiltonians in the dipole gauge, the naive and
corrected Coulomb gauge, and the interpolating gauge family, plus their
collective, circuit and untruncated-matter counterparts, and compares their
spectra.  Energies use hbar = 1 with the cavity frequency as the unit.
"""

__version__ = "0.1.0"

from .linalg import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DimensionOverflowError,
    LinalgError,
    NonHermitianError,
    NotUnitaryError,
    OperatorMatrix,
    ParityBands,
    ParityBlocks,
    ParityError,
    Spectrum,
    banded_parity_eigvalsh,
    block_parity_eigvalsh,
    conjugate,
    hermitian_eig,
    kron,
    matrix_function,
    unitary_exp,
)
from .qops import fock_ops, quadrature_eig, spin_ops
from .rabi import (
    GaugeTheoremReport,
    RabiParams,
    bands_H_C_standard,
    bands_H_D,
    blocks_H_alpha,
    blocks_H_C_correct,
    blocks_H_C_taylor,
    build_H_alpha,
    build_H_C_correct,
    build_H_C_standard,
    build_H_C_taylor,
    build_H_D,
    check_gauge_theorem,
    maclaurin_cos_sin,
)
from .dicke import (
    DickeParams,
    blocks_dicke_correct,
    blocks_dicke_dipole,
    blocks_dicke_standard,
    build_dicke_correct,
    build_dicke_dipole,
    build_dicke_standard,
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
    blocks_full_H_C,
    blocks_full_H_D,
    build_full_H_C,
    build_full_H_D,
    check_minimal_coupling_identity,
    double_well_model,
    harmonic_model,
    model_from_table,
    nonlocal_kernel,
    solve_particle,
    trk_sum,
)
from .fluxonium import (
    BasisTooSmallError,
    FluxoniumBasis,
    FluxoniumParams,
    blocks_flux_charge_correct,
    blocks_flux_charge_standard,
    build_flux_charge_correct,
    build_flux_charge_standard,
    coupling_g_c,
    solve_fluxonium,
)
from .experiments import (
    AlphaStudy,
    ConvergencePolicy,
    CutoffCeilingError,
    SweepPoint,
    SweepResult,
    SweepSpec,
    TaylorStudy,
    alpha_invariance_study,
    converged_transitions,
    default_eta_grid,
    lowest_transitions,
    run_sweep,
    taylor_study,
    write_alpha_csv,
    write_gnuplot_script,
    write_sweep_csv,
    write_taylor_csv,
)

__all__ = [
    "__version__",
    # linalg
    "OperatorMatrix", "Spectrum", "hermitian_eig", "matrix_function",
    "unitary_exp", "conjugate", "kron",
    "ParityBlocks", "block_parity_eigvalsh",
    "ParityBands", "banded_parity_eigvalsh",
    "LinalgError", "NonHermitianError", "NotUnitaryError",
    "ConvergenceFailureError", "DimensionMismatchError",
    "DimensionOverflowError", "ParityError",
    # qops
    "fock_ops", "spin_ops", "quadrature_eig",
    # rabi
    "RabiParams", "build_H_D", "build_H_C_standard",
    "build_H_C_correct", "build_H_C_taylor", "build_H_alpha",
    "bands_H_D", "bands_H_C_standard",
    "blocks_H_C_correct", "blocks_H_C_taylor", "blocks_H_alpha",
    "maclaurin_cos_sin", "check_gauge_theorem",
    "GaugeTheoremReport",
    # dicke
    "DickeParams", "build_dicke_standard", "build_dicke_correct",
    "build_dicke_dipole", "blocks_dicke_standard", "blocks_dicke_correct",
    "blocks_dicke_dipole",
    # particle1d
    "Grid1D", "ParticleModel", "MatterBasis", "harmonic_model",
    "double_well_model", "model_from_table", "solve_particle",
    "nonlocal_kernel", "NonlocalKernel", "check_minimal_coupling_identity",
    "MinimalCouplingReport", "build_full_H_D", "build_full_H_C",
    "blocks_full_H_D", "blocks_full_H_C", "trk_sum",
    "ParticleError", "GridTooCoarseError", "BoundaryLeakError",
    "ParityOrderError",
    # fluxonium
    "FluxoniumParams", "FluxoniumBasis", "solve_fluxonium", "coupling_g_c",
    "build_flux_charge_standard", "build_flux_charge_correct",
    "blocks_flux_charge_standard", "blocks_flux_charge_correct",
    "BasisTooSmallError",
    # experiments
    "ConvergencePolicy", "SweepSpec", "SweepPoint", "SweepResult",
    "run_sweep", "converged_transitions", "lowest_transitions",
    "default_eta_grid", "taylor_study", "TaylorStudy",
    "alpha_invariance_study", "AlphaStudy", "CutoffCeilingError",
    "write_sweep_csv", "write_taylor_csv", "write_alpha_csv",
    "write_gnuplot_script",
]
