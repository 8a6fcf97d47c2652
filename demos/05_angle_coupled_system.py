"""A nonlinearity that depends on the angles themselves:
h(x, psi) = (1 + cos psi_1) x + x^2 + 0.3 sin psi_2.

The angle-dependent linear layer makes the second expansion order
nonzero (unlike separable systems) and introduces chains of single-child
nodes in the tree picture.  The response's average is fixed by the zero
mode of the equation itself, and the Picard fixed point checks it.
"""

from math import sqrt

from qpresponse import (
    GeneralSystem,
    build_ladder,
    direct_solve,
    find_chains,
    enumerate_all,
    recentre,
    solve_response,
    TreeSupport,
)

PHI = (1 + sqrt(5)) / 2
OMEGA = (1.0, PHI)
EPS, K, N = 0.03, 16, 16

grid = {
    ((0, 0), 1): 1.0,
    ((1, 0), 1): 0.5,
    ((-1, 0), 1): 0.5,
    ((0, 0), 2): 1.0,
    ((0, 1), 0): -0.15j,
    ((0, -1), 0): 0.15j,
}
system = recentre(GeneralSystem(OMEGA, grid), 0.0)
print(f"averaged slope a = {system.a}, centre c0 = {system.c0}")

ladder = build_ladder(system, EPS, 0.0, 6, N)
print("\nper-order norms (all orders populated, unlike the separable case):")
for k, norm in enumerate(ladder.norms, start=1):
    print(f"  k={k}  {norm:.3e}")

support = TreeSupport.from_system(system)
chain_counts = {}
for k in range(2, 5):
    for tree in enumerate_all(k, support):
        for chain in find_chains(tree):
            chain_counts[chain.length] = chain_counts.get(chain.length, 0) + 1
print("\nchain census over trees of orders 2..4 (length: count):",
      dict(sorted(chain_counts.items())))

sol = solve_response(EPS, system, K, N, probe=False)
print(f"\nzeta = {sol.zeta:+.9e}, balance residual "
      f"{sol.residual_bifurcation:.2e}")

fp = direct_solve(system, EPS, N)
gap = max(abs(sol.u.coeff(nu) - fp.u_direct.coeff(nu))
          for nu in set(sol.u.support()) | set(fp.u_direct.support()))
print(f"\nfixed-point cross-check: gap {gap:.2e} "
      f"after {fp.iterations} iterations")
