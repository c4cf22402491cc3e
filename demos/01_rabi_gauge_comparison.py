"""
Two-level model in three gauges
===============================

The dipole-gauge spectrum is the reference.  The corrected Coulomb-gauge
model tracks it at every coupling; the naive truncation drifts once the
coupling is an appreciable fraction of the cavity frequency and is useless
by eta ~ 1.
"""

# gaugeqed before numpy: its import sets the BLAS thread count numpy loads with
from gaugeqed import (RabiParams, bands_H_C_standard, bands_H_D, lowest_transitions,
                      parity_block_sum, terms_H_C_correct)
import numpy as np

# Each model keeps the parity sigma_z (-1)^{a^dag a}, so it is solved as two
# real parity halves, as the sweeps solve it: the dipole and naive models as
# banded chains, the corrected one, whose cos/sin of the field quadrature
# couple every Fock level, as dense blocks.
print("eta    t1(D)      t1(C corrected)  t1(C naive)   naive rel. error")
for eta in (0.0, 0.1, 0.3, 0.6, 1.0, 1.5):
    p = RabiParams(eta=eta, cutoff=120)
    t_d = lowest_transitions(bands_H_D(p), 1)[0]
    t_c = lowest_transitions(parity_block_sum(terms_H_C_correct(p)), 1)[0]
    t_s = lowest_transitions(bands_H_C_standard(p), 1)[0]
    rel = abs(t_s - t_d) / t_d
    print(f"{eta:4.2f}  {t_d:.7f}  {t_c:.7f}        {t_s:.7f}     {rel:8.1%}")

# the corrected model agrees entrywise-in-spectrum, not just on t1
p = RabiParams(eta=1.0, cutoff=150)
gap = np.abs(lowest_transitions(bands_H_D(p), 6)
             - lowest_transitions(parity_block_sum(terms_H_C_correct(p)), 6)).max()
print(f"\nmax gap over lowest 6 transitions at eta=1: {gap:.2e}")
