"""
Collective dipoles
==================

The N-dipole generalization keeps the same structure: the corrected model is
defined by conjugating the bare collective splitting with the displacement
generated by J_x, and built from the equivalent closed form with cos/sin of
2 eta (a + a^dag).  At N = 1 it reduces to the two-level model exactly; at
larger N the naive truncation again parts company with it as the coupling
grows.
"""

# gaugeqed before numpy: its import sets the BLAS thread count numpy loads with
from gaugeqed import (DickeParams, RabiParams, lowest_transitions, parity_block_sum,
                      terms_H_C_correct, terms_H_C_standard)
import numpy as np

# N = 1 reduction is exact, entry by entry of the real parity blocks
d1 = parity_block_sum(terms_H_C_correct(DickeParams(eta=0.7, cutoff=60, n_dipoles=1)))
r1 = parity_block_sum(terms_H_C_correct(RabiParams(eta=0.7, cutoff=60)))
dev = max(np.abs(a - b).max() for a, b in zip(d1.blocks, r1.blocks))
print(f"N=1 entrywise reduction to the two-level model: {dev:.1e}")

print("\nN=4, lowest transitions:")
print("eta    corrected            naive")
for eta in (0.1, 0.3, 0.6):
    p = DickeParams(eta=eta, cutoff=80, n_dipoles=4)
    tc = lowest_transitions(parity_block_sum(terms_H_C_correct(p)), 2)
    ts = lowest_transitions(parity_block_sum(terms_H_C_standard(p)), 2)
    print(f"{eta:3.1f}  {tc[0]:.6f} {tc[1]:.6f}  {ts[0]:.6f} {ts[1]:.6f}")
