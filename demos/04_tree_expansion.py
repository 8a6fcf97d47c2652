"""The diagrammatic side: expansion orders as sums over labelled trees.

Every order-k coefficient is a sum of products of node factors and line
propagators over rooted trees with k nodes.  The enumeration below
rebuilds a few orders from scratch and matches them against the
recursion, then checks the structural counting relations that power the
convergence estimates.
"""

import math

from qpresponse import (
    SeparableSystem,
    TreeSupport,
    TreeValueContext,
    build_ladder,
    cosine,
    enumerate_all,
    enumerate_trees,
    recentre,
    sum_trees,
    verify_counting,
)

PHI = (1 + math.sqrt(5)) / 2
OMEGA = (1.0, PHI)
EPS, ZETA = 0.05, 0.02

forcing = cosine(2, 0).add(cosine(2, 1))
system = recentre(
    SeparableSystem(OMEGA, forcing, {1: 1.0, 2: 0.7, 3: 0.5}), 0.0
)
support = TreeSupport.from_system(system)
ctx = TreeValueContext(system, EPS, ZETA)
ladder = build_ladder(system, EPS, ZETA, 4, 10)

print("trees of each order (any momentum):")
for k in range(1, 6):
    trees = enumerate_all(k, support)
    print(f"  k = {k}: {len(trees)} trees")
print("(order 2 is empty: a branching node needs two subtrees, forcing k >= 3)")

print("\ntree sums vs recursion, order 3:")
order3 = ladder.order(3)
for nu in order3.support():
    if not any(nu):
        continue
    via_trees = sum_trees(3, nu, ctx)
    via_recursion = order3.coeff(nu)
    print(f"  nu = {nu}: trees {via_trees:+.6e} | "
          f"recursion {via_recursion:+.6e} | "
          f"gap {abs(via_trees - via_recursion):.1e}")

print("\ncounting relations over all trees up to order 5:")
total = 0
for k in range(1, 6):
    for tree in enumerate_all(k, support):
        assert all(verify_counting(tree).values())
        total += 1
print(f"  all relations hold on {total} trees")

nu = (1, 0)
k3 = enumerate_trees(3, nu, support)
print(f"\nthe {len(k3)} order-3 trees with momentum {nu}, serialized:")
for tree in k3[:4]:
    print("  ", tree.canonical())
if len(k3) > 4:
    print(f"   ... and {len(k3) - 4} more")
