"""
Circuit version: fluxonium in the charge gauge
==============================================

The same truncation story plays out in a superconducting circuit.  A
fluxonium junction is solved numerically, truncated to its two lowest
levels, and coupled to an LC mode through the charge operator.  The naive
two-level coupling misplaces the transitions; restoring the coupling through
unitary conjugation (closed form: trigonometric functions of the field
quadrature) fixes them.
"""

# gaugeqed before numpy: its import sets the BLAS thread count numpy loads with
from gaugeqed import (FluxoniumParams, coupling_g_c, kron_sum, lowest_transitions,
                      solve_fluxonium, terms_flux_charge_correct,
                      terms_flux_charge_standard)
import numpy as np

p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=0.2, cutoff=120)
b = solve_fluxonium(p)
print(f"junction: omega_10 = {b.omega_10:.6f}, |phi_10| = {abs(b.phi_10):.6f}")
print(f"coupling g_C = {coupling_g_c(p, b):.6f}")

ts = lowest_transitions(kron_sum(terms_flux_charge_standard(p, b)), 3)
tc = lowest_transitions(kron_sum(terms_flux_charge_correct(p, b)), 3)
print("\nlevel   naive      corrected   rel. deviation")
for i in range(3):
    print(f"{i + 1}       {ts[i]:.6f}   {tc[i]:.6f}    {abs(ts[i] - tc[i]) / tc[i]:.1%}")

# cranking chi0 to the flux equivalent of eta = 1 makes the naive model
# qualitatively wrong, not just shifted
p1 = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=1.0 / abs(b.phi_10),
                     cutoff=160)
b1 = solve_fluxonium(p1)
t1s = lowest_transitions(kron_sum(terms_flux_charge_standard(p1, b1)), 1)[0]
t1c = lowest_transitions(kron_sum(terms_flux_charge_correct(p1, b1)), 1)[0]
print(f"\nat unit normalized coupling: naive t1 = {t1s:.4f}, "
      f"corrected t1 = {t1c:.4f}")
