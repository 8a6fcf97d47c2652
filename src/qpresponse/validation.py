"""Independent verification of a response solution.

Two routes that share no code with the series solver: a damped Picard
fixed-point solve of the truncated Fourier system (the map is a
contraction exactly in the regime where the expansion converges, so the
oracle doubles as an empirical contraction witness), and stiff-aware time
integration of the underlying oscillator checking the trajectory against
the spectral solution and, for positive linear feedback, its local
attractivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StiffnessError
from .fourier import FourierSeries, _clean, mode_norm
from .ladder import (
    forcing_term,
    nonlinearity_series,
    propagator_denominator,
)
from .systems import GeneralSystem, SeparableSystem

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 10_000
_PICARD_BLOWUP = 1e6

MIN_EPS_FOR_INTEGRATION = 1e-3
MIN_INTEGRATION_TOL = 1e-12


@dataclass
class FixedPointResult:
    """Outcome of the direct truncated-system solve.

    ``u_direct`` carries the solved zero mode (equal to ``zeta_direct``),
    so series-vs-direct comparisons can run over all modes at once.
    """

    u_direct: FourierSeries
    zeta_direct: float
    iterations: int
    final_residual: float
    converged: bool


def _full_residual(sys, eps, w, nl, N) -> float:
    f = forcing_term(sys)
    a = sys.a
    worst = abs(a * w.zero_mode().real + nl.zero_mode().real)
    modes = set(w.support()) | set(nl.support()) | set(f.support())
    for nu in sorted(modes):
        if not any(nu) or mode_norm(nu) > N:
            continue
        s = 0.0
        for x, om in zip(nu, sys.omega):
            s += x * om
        d = propagator_denominator(eps, s, a)
        worst = max(worst, abs(d * w.coeff(nu) + eps * nl.coeff(nu)
                               - eps * f.coeff(nu)))
    return worst


def direct_solve(sys, eps: float, N: int, seed=None, *,
                 tol: float = PICARD_TOL, max_iter: int = PICARD_MAX_ITER,
                 damping: float = 1.0,
                 zeta_secant: bool = False) -> FixedPointResult:
    """Solve the truncated range + zero-mode system by damped Picard
    iteration, u <- eps (f - nonlinearity)/D and zeta <- -[nl]_0 / a.

    ``seed`` may be a ResponseSolution (its series starts the iteration)
    or None (zero start).  ``zeta_secant`` switches the zero-mode update
    to a secant step on the balance residual once two iterates exist.
    Convergence: residual max-norm <= tol; hitting ``max_iter`` or a norm
    blow-up reports divergence instead of raising.
    """
    sys.require_certified()
    d = sys.dimension
    a = sys.a
    if seed is not None:
        w = seed.u.truncate(N)
    else:
        w = FourierSeries(d, {}, real_valued=True)
    f = forcing_term(sys)
    zeta_hist: list[tuple[float, float]] = []
    iterations = 0
    residual = math.inf
    for iterations in range(max_iter + 1):
        nl = nonlinearity_series(sys, w)
        residual = _full_residual(sys, eps, w, nl, N)
        if residual <= tol:
            return FixedPointResult(w, w.zero_mode().real, iterations,
                                    residual, True)
        if not math.isfinite(residual) or w.weighted_norm(0.0) > _PICARD_BLOWUP:
            break
        if iterations == max_iter:
            break
        table = {}
        modes = set(f.support()) | set(nl.support())
        for nu in sorted(modes):
            if not any(nu) or mode_norm(nu) > N:
                continue
            s = 0.0
            for x, om in zip(nu, sys.omega):
                s += x * om
            dd = propagator_denominator(eps, s, a)
            table[nu] = eps * (f.coeff(nu) - nl.coeff(nu)) / dd
        zeta_now = w.zero_mode().real
        balance = a * zeta_now + nl.zero_mode().real
        zeta_new = -nl.zero_mode().real / a
        if zeta_secant and zeta_hist:
            z_prev, g_prev = zeta_hist[-1]
            if balance != g_prev and zeta_now != z_prev:
                zeta_new = zeta_now - balance * (zeta_now - z_prev) \
                    / (balance - g_prev)
        zeta_hist.append((zeta_now, balance))
        table[(0,) * d] = zeta_new
        w_new = FourierSeries._from_table(d, _clean(table), w.real_valued)
        if damping != 1.0:
            w = w.scaled(1.0 - damping).add(w_new.scaled(damping))
        else:
            w = w_new
    return FixedPointResult(w, w.zero_mode().real, iterations, residual, False)


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray


def _rhs_factory(sys, eps: float):
    # scalar cmath evaluation: supports are tiny and solve_ivp calls the
    # right-hand side hundreds of thousands of times on stiff runs
    import cmath

    omega = sys.omega
    if isinstance(sys, SeparableSystem):
        modes = [
            (sum(x * w for x, w in zip(nu, omega)), sys.forcing.coeff(nu))
            for nu in sys.forcing.support()
        ]
        powers = sorted(sys.g_taylor.items())
        c0 = sys.center

        def rhs(t, y):
            x, v = y
            dx = x - c0
            g = 0.0
            for p, c in powers:
                g += c * dx**p
            force = 0.0
            for s, c in modes:
                force += (c * cmath.exp(1j * s * t)).real
            return (v, -v / eps - g + force)

        return rhs
    if isinstance(sys, GeneralSystem):
        entries = [
            (sum(x * w for x, w in zip(nu, omega)), p, c)
            for (nu, p), c in sorted(sys.grid.items())
        ]
        c0 = sys.center

        def rhs(t, y):
            x, v = y
            dx = x - c0
            h = 0.0
            for s, p, c in entries:
                h += (c * cmath.exp(1j * s * t)).real * dx**p
            return (v, -v / eps - h)

        return rhs
    raise TypeError(f"unsupported system type {type(sys)!r}")


def integrate(sys, eps: float, x0: float, v0: float, T: float,
              tol: float = 1e-10, *, t0: float = 0.0, samples: int = 1000,
              t_eval=None, method: str = "DOP853") -> Trajectory:
    """Integrate x' = v, v' = -v/eps - (autonomous + forced terms) with an
    adaptive embedded explicit scheme under per-step error control ``tol``.

    Refuses eps < 1e-3 (the fast rate 1/eps makes explicit integration
    pointless below that) and tol < 1e-12.
    """
    sys.require_certified()
    if eps < MIN_EPS_FOR_INTEGRATION:
        raise StiffnessError(
            f"eps = {eps!r} below the stiffness guard {MIN_EPS_FOR_INTEGRATION}; "
            "use a larger eps or an implicit integrator outside this package"
        )
    if tol < MIN_INTEGRATION_TOL:
        raise ValueError(f"tol must be >= {MIN_INTEGRATION_TOL}")
    if t_eval is None:
        t_eval = np.linspace(t0, t0 + T, samples)
    rhs = _rhs_factory(sys, eps)
    sol = solve_ivp(rhs, (t0, t0 + T), (float(x0), float(v0)), method=method,
                    rtol=tol, atol=tol, t_eval=np.asarray(t_eval, dtype=float),
                    dense_output=False)
    if not sol.success:
        raise StiffnessError(
            f"integration failed ({sol.message!r}); increase eps or shorten T"
        )
    return Trajectory(t=sol.t, x=sol.y[0], v=sol.y[1])


@dataclass
class TrajectoryComparison:
    """Sup-norm comparison of integrated trajectories against the spectral
    response on a window after the transient."""

    transient_time: float
    window: float
    sup_error: float
    sup_errors: list = field(default_factory=list)
    pairwise_max: float = 0.0
    attraction_checked: bool = False
    attraction_verified: bool = False
    ics: list = field(default_factory=list)
    notice: str = ""
    trajectories: list = field(default_factory=list)


def compare(solution, sys, eps: float, ics, T0: float | None = None,
            T1: float = 50.0, tol: float = 1e-10, *,
            samples: int = 2001, attraction_tol: float = 1e-5
            ) -> TrajectoryComparison:
    """Integrate each initial condition to T0 + T1 and measure
    sup_{[T0, T0+T1]} |x_num(t) - x_response(t)|.

    The transient default T0 = 20/(a eps) covers ten slow time constants.
    Attraction is asserted only when a > 0: every trajectory must land on
    the response within ``attraction_tol``; with a <= 0 the errors are
    still computed but the claim is skipped with a notice.
    """
    sys.require_certified()
    a = sys.a
    if T0 is None:
        T0 = 20.0 / (abs(a) * eps)
    times = np.linspace(T0, T0 + T1, samples)
    reference = solution.x_at_times(times, sys.omega)
    sup_errors = []
    tracks = []
    trajectories = []
    for x0, v0 in ics:
        traj = integrate(sys, eps, x0, v0, T0 + T1, tol, t_eval=times)
        trajectories.append(traj)
        tracks.append(traj.x)
        sup_errors.append(float(np.max(np.abs(traj.x - reference))))
    pairwise = 0.0
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            pairwise = max(pairwise,
                           float(np.max(np.abs(tracks[i] - tracks[j]))))
    checked = a > 0
    verified = checked and bool(sup_errors) \
        and max(sup_errors) <= attraction_tol
    notice = "" if checked else (
        "a <= 0: attraction claim skipped, residual comparison only"
    )
    return TrajectoryComparison(
        transient_time=T0,
        window=T1,
        sup_error=max(sup_errors) if sup_errors else 0.0,
        sup_errors=sup_errors,
        pairwise_max=pairwise,
        attraction_checked=checked,
        attraction_verified=verified,
        ics=list(ics),
        notice=notice,
        trajectories=trajectories,
    )


def response_state(solution, omega, t: float) -> tuple[float, float]:
    """Position and velocity of the response at time t (handy for seeding
    initial conditions on or near the attractor)."""
    x = solution.x_at_times([t], omega)[0]
    v = solution.velocity_at_times([t], omega)[0]
    return float(x), float(v)


def write_trajectory_csv(path, traj: Trajectory, solution, omega):
    """Emit a trajectory as CSV rows t, x, y, x_response, abs_error."""
    reference = solution.x_at_times(traj.t, omega)
    with open(path, "w") as fh:
        fh.write("t,x,y,x_response,abs_error\n")
        for t, x, y, r in zip(traj.t, traj.x, traj.v, reference):
            t, x, y, r = float(t), float(x), float(y), float(r)
            fh.write(f"{t!r},{x!r},{y!r},{r!r},{abs(x - r)!r}\n")
