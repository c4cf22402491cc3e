"""
Truncation makes potentials nonlocal
====================================

Projecting a local potential onto a finite set of eigenlevels produces a
kernel V(x, x') with weight far from the diagonal; the weight recedes as
levels are added back.  A nonlocal potential no longer commutes with the
photon field's position-like quadrature, which is the microscopic reason
the naive minimal-coupling prescription fails after truncation.  Applied
through unitary phase conjugation instead, minimal coupling stays exact,
which the grid check below confirms against direct substitution.
"""

from gaugeqed import (check_minimal_coupling_identity, harmonic_model,
                      nonlocal_kernel, solve_particle, trk_sum)

model = harmonic_model()
basis = solve_particle(model)

print("off-diagonal weight of the projected potential:")
for k in (2, 4, 8, 16, 32):
    ker = nonlocal_kernel(basis, model, k)
    print(f"  k={k:2d} levels: r = {ker.off_diagonality:.4f}")

# TRK sum rule: the harmonic oscillator saturates it with a single term
print(f"\nTRK sum, 2 levels: {trk_sum(basis, model, m_used=2):.12f}")

rep = check_minimal_coupling_identity(model, basis, A0=0.3)
print(f"minimal-coupling identity: residual {rep.residual_rel:.2e} "
      f"(4th-order grid), substituted levels vs bare {rep.spectrum_dev:.2e}")
