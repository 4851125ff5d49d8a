"""The two-precision solvers at work.

The Schur decompositions run in simulated binary32; the refinement loop
in binary64 then pulls the residual down to double-precision level in a
handful of corrections, as long as the equation's conditioning stays
within the low precision's regime.
"""

import numpy as np

from mpsylv import (
    BINARY32,
    BINARY64,
    ProblemGenerator,
    RefinementConfig,
    check_convergence_regime,
    cond_inf,
    generate,
    mp_inv,
    mp_orth,
    sylvester_kron_operator,
)

cfg = RefinementConfig(u_l=BINARY32, u_h=BINARY64)
print("conditioning     kappa_inf   regime   solver   iters  residual")
for t in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
    p = generate(ProblemGenerator("logspace-conditioned", 10, 10, t, seed=3))
    kappa = cond_inf(sylvester_kron_operator(p.A, p.B))
    regime = check_convergence_regime(BINARY32, BINARY64, kappa)
    for name, solver in (("orth", mp_orth), ("inv", mp_inv)):
        rep = solver(p, cfg)
        flag = "in " if regime.in_regime else "out"
        state = f"{rep.residual:.1e}" if rep.failure is None else rep.failure
        print(f"t = {t:4.1f}      {kappa:10.1e}    {flag}    {name:>5}"
              f"   {rep.iterations:>4}   {state}")

print("\nThe correction norms decay geometrically while the iteration works:")
p = generate(ProblemGenerator("logspace-conditioned", 10, 10, 5.0, seed=3))
rep = mp_orth(p, cfg)
for i, nd in enumerate(rep.correction_norms):
    print(f"  ||D_{i}||_F = {nd:.3e}")
print(f"converged in {rep.iterations} corrections, residual {rep.residual:.2e}")
