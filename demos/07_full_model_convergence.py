"""
Both gauges agree when nothing is thrown away
=============================================

Keeping M matter levels of a strongly anharmonic double well, the dipole and
Coulomb gauge models are built side by side.  Their spectra start far apart
at M = 2 (the two-level truncation) and converge onto each other as M grows,
confirming that the gauge ambiguity is purely an artifact of truncation.
"""

# gaugeqed before numpy: its import sets the BLAS thread count numpy loads with
from gaugeqed import (double_well_model, lowest_transitions, parity_band_sum,
                      solve_particle, terms_full_H_C, terms_full_H_D)
import numpy as np

model = double_well_model()
basis = solve_particle(model)  # also checks the grid by refining it once
cutoff = 48  # cavity Fock levels 0..48

# The well is mirror-symmetric, so each model splits into two parity chains,
# banded when ordered by photon number; as `full-model` does, only the lowest
# levels of each chain are solved.
print("M    max gap between gauges (lowest 4 transitions)")
for m in (2, 4, 8, 16, 32):
    hd = parity_band_sum(terms_full_H_D(model, basis, cutoff, A0=0.3, m_used=m))
    hc = parity_band_sum(terms_full_H_C(model, basis, cutoff, A0=0.3, m_used=m))
    gap = np.abs(lowest_transitions(hd, 4) - lowest_transitions(hc, 4)).max()
    print(f"{m:2d}   {gap:.3e}")
