"""Dropping trajectories onto the response.

With a positive averaged slope the response solution is locally
attractive: integrate the oscillator from several nearby starting points
and watch them land on the same quasi-periodic orbit (the transient dies
like exp(-a eps t), so the window starts after ten slow time constants).
"""

import math

import numpy as np

from qpresponse import (
    SeparableSystem,
    compare,
    cosine,
    integrate,
    recentre,
    response_state,
    solve_response,
)

PHI = (1 + math.sqrt(5)) / 2
OMEGA = (1.0, PHI)
EPS = 0.05

forcing = cosine(2, 0).add(cosine(2, 1))
system = recentre(SeparableSystem(OMEGA, forcing, {1: 1.0, 3: 1.0}), 0.0)
sol = solve_response(EPS, system, 14, 14, probe=False)
x_star, v_star = response_state(sol, OMEGA, 0.0)
print(f"response at t=0: x = {x_star:+.6f}, v = {v_star:+.6f}")

ics = [(x_star + 0.08, v_star), (x_star - 0.05, v_star + 0.05),
       (x_star, v_star - 0.08)]
report = compare(sol, system, EPS, ics, T1=40.0, tol=1e-10)
print(f"\ntransient skipped: T0 = {report.transient_time:.0f} time units")
for ic, err in zip(ics, report.sup_errors):
    print(f"  start {tuple(round(z, 3) for z in ic)} -> sup error {err:.2e}")
print(f"pairwise trajectory spread: {report.pairwise_max:.2e}")
# compare only measures; the verdict is ours to draw
print(f"all landed within 1e-5: {report.sup_error <= 1e-5}")

# show the approach itself: distance to the response at a few checkpoints
traj = integrate(system, EPS, x_star + 0.08, v_star, 200.0, tol=1e-10,
                 samples=2001)
ref = sol.x_at_times(traj.t, OMEGA)
print("\ndistance to the response while the transient decays:")
for t_mark in (0.0, 25.0, 50.0, 100.0, 200.0):
    i = int(np.argmin(np.abs(traj.t - t_mark)))
    print(f"  t = {traj.t[i]:6.1f}  |x - x_response| = "
          f"{abs(traj.x[i] - ref[i]):.3e}")
print(f"(theory: contraction like exp(-{system.a * EPS:.3f} t))")
