"""Independent verification of a response solution.

Two routes that share no code with the series solver: a Picard
fixed-point solve of the truncated Fourier system on its own FFT grid
(the map is a contraction exactly in the regime where the expansion
converges, so the oracle doubles as an empirical contraction witness),
and time integration of the underlying oscillator by LSODA, which takes
stiff steps where the fast rate 1/eps calls for them, measuring how far
the trajectories land from the spectral solution.  Both routes only
measure; the caller judges what they report.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys as _sys  # the name sys is a system in this module
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import StiffnessError
from .fourier import FourierSeries
# not called here: bench/test_checks.py reads this binding of the name
from .ladder import nonlinearity_series  # noqa: F401

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 10_000
_PICARD_BLOWUP = 1e6

MIN_EPS_FOR_INTEGRATION = 1e-3
MIN_INTEGRATION_TOL = 1e-12
_NO_STEP_CAP = np.iinfo(np.int32).max
# LSODA under rtol = atol = tol strays up to 2.7e-9 from DOP853 under tol
# (tol = 1e-10, t <= 3); a decade tighter it stays within 4.2e-10
_LSODA_TOL_FACTOR = 0.1
_ODEPACK = "scipy.integrate._odepack"
_lsoda = None  # that module, once _odepack has it
# scipy's texts for LSODA's return codes -1, -2, ..., -8
_LSODA_FAILURES = (
    "Excess work done on this call (perhaps wrong Dfun type).",
    "Excess accuracy requested (tolerances too small).",
    "Illegal input detected (internal error).",
    "Repeated error test failures (internal error).",
    "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    "Error weight became zero during problem.",
    "Internal workspace insufficient to finish (internal error).",
    "Run terminated (internal error).",
)


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


def direct_solve(sys, eps: float, N: int, seed=None, *,
                 tol: float = PICARD_TOL,
                 max_iter: int = PICARD_MAX_ITER) -> FixedPointResult:
    """Solve the truncated range + zero-mode system by Picard iteration,
    w <- eps (f - nl(w))/D and zeta <- -[nl(w)]_0 / a, with w dense on the
    box [-N, N]^d and nl(w) formed pointwise on an FFT grid.

    ``seed`` may be a ResponseSolution (its series starts the iteration)
    or None (zero start).  Convergence: residual max-norm <= tol; hitting
    ``max_iter`` or a norm blow-up reports divergence instead of raising.
    """
    sys.require_certified()
    d, a = sys.dimension, sys.a
    modes = np.arange(-N, N + 1)
    axes = np.ix_(*[modes] * d)
    norms = sum(np.abs(x) for x in axes)
    ball, ranged, zero = norms <= N, (norms > 0) & (norms <= N), (N,) * d
    s = 0.0
    for x, om in zip(axes, sys.omega):
        s = s + x * om
    D = eps * (a - s * s) + 1j * s
    # the p >= 1 layers (p = 1 without a) sampled on M points per angle:
    # a product mode has |nu_i| <= p_max N + r, so none aliases onto the box
    top = max(p for _, p in sys.grid)
    r = max(max(map(abs, nu)) for nu, p in sys.grid if p >= 1)
    M = (top + 1) * N + r + 1
    cells = np.ix_(*[modes % M] * d)
    f = np.zeros(D.shape, dtype=complex)
    layers: dict[int, np.ndarray] = {}
    for (nu, p), c in sorted(sys.grid.items()):
        if p == 0 and 0 < sum(map(abs, nu)) <= N:
            f[tuple(x + N for x in nu)] = -c
        elif p > 1 or p == 1 and any(nu):
            layer = layers.setdefault(p, np.zeros((M,) * d, dtype=complex))
            layer[tuple(x % M for x in nu)] += c
    layers = {p: np.fft.ifftn(layers[p], norm="forward") for p in sorted(layers)}

    def nonlinearity(w):
        box = np.zeros((M,) * d, dtype=complex)
        box[cells] = w
        point = np.fft.ifftn(box, norm="forward")
        total = sum((layer * point**p for p, layer in layers.items()), 0 * point)
        nl = np.fft.fftn(total, norm="forward")[cells]
        # conjugate symmetric to the bit, so a diverging w stays real
        return 0.5 * (nl + np.flip(nl).conj())

    w = np.zeros(D.shape, dtype=complex)
    for nu, c in seed.u.truncate(N).items_sorted() if seed else ():
        w[tuple(x + N for x in nu)] = c
    iterations = 0
    residual = math.inf
    for iterations in range(max_iter + 1):
        nl = nonlinearity(w)
        balance = a * w[zero].real + nl[zero].real
        defect = np.abs(D * w + eps * nl - eps * f)[ranged]
        residual = max(abs(balance), float(np.max(defect, initial=0.0)))
        if residual <= tol or not math.isfinite(residual) \
                or np.abs(w).sum() > _PICARD_BLOWUP or iterations == max_iter:
            break
        w = np.zeros_like(w)
        w[ranged] = eps * (f[ranged] - nl[ranged]) / D[ranged]
        w[zero] = -nl[zero].real / a
    u = FourierSeries(d, zip(map(tuple, np.argwhere(ball) - N),
                             w[ball].tolist()), real_valued=True)
    return FixedPointResult(u, u.zero_mode().real, iterations, residual,
                            residual <= tol)


@dataclass
class Trajectory:
    """Sampled states of an integration.  ``x`` and ``v`` are 1-d for one
    initial condition and hold one row per initial condition when
    :func:`integrate` was given sequences."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray


def _rhs_factory(sys, eps: float):
    """Right-hand side of x'' = -x'/eps - h(x, omega t) on the stacked
    state [x1, v1, x2, v2, ...], with h summed layer by layer from the grid.

    Each layer holds one term per conjugate pair {nu, -nu}:
    Re((c_nu + conj(c_-nu)) e^{i nu.omega t}) is exactly
    Re(c_nu e^{i nu.omega t}) + Re(c_-nu e^{-i nu.omega t}), so the real
    part of h needs no symmetry of the grid and half the exponentials.  A
    zero-mode entry adds its real part.  The layer weights depend on t
    alone: they are evaluated once per distinct step time and shared
    across all (x, v) pairs.  LSODA's Adams steps call f twice at the same
    t, so the weights of the last t are kept and reused when t equals it.
    Two equal nonzero floats are the same bits; t = 0.0 is always
    evaluated afresh, so -0.0 and 0.0, which compare equal, never share
    weights.  A layer of power 1 adds ``weight * dx``, bitwise ``weight *
    dx**1``: float ``**`` with exponent 1 returns its base for every
    float, signed zeros, infinities and NaN included.  Scalar Python
    arithmetic throughout: supports and stacks are tiny, and LSODA calls
    this tens of thousands of times per trajectory, hundreds of thousands
    on stiff runs.
    """
    import cmath

    omega = sys.omega
    c0 = sys.center
    by_power: dict[int, dict] = {}
    for (nu, p), c in sorted(sys.grid.items()):
        mirror = tuple(-x for x in nu)
        if mirror > nu:
            nu, c = mirror, c.conjugate()
        pairs = by_power.setdefault(p, {})
        pairs[nu] = pairs.get(nu, 0j) + c
    layers = [(p, [(1j * sum(x * w for x, w in zip(nu, omega)), c)
                   for nu, c in sorted(pairs.items())])
              for p, pairs in sorted(by_power.items())]

    # the last step time and its weights
    last_t, weights = math.nan, []

    def rhs(t, y):
        nonlocal last_t, weights
        if t != last_t or t == 0.0:
            fresh = []
            for p, entries in layers:
                total = 0.0
                for js, c in entries:
                    total += (c * cmath.exp(js * t)).real if js else c.real
                fresh.append((p, total))
            last_t, weights = t, fresh
        state = y.tolist()
        out = []
        for x, v in zip(state[0::2], state[1::2]):
            dx = x - c0
            h = 0.0
            for p, weight in weights:
                h += weight * (dx if p == 1 else dx**p)
            out += (v, -v / eps - h)
        return out

    return rhs


def _odepack():
    """scipy's compiled LSODA module, loaded alone from its file once per
    process: ``import scipy.integrate`` would load 585 modules and 48 MB.
    A copy that scipy has loaded is reused.  The module is kept here, not
    in ``sys.modules``, so a later ``import scipy.integrate`` loads and
    binds a copy of its own."""
    global _lsoda
    _lsoda = _lsoda or _sys.modules.get(_ODEPACK)
    if _lsoda is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        folder = os.path.join(scipy.submodule_search_locations[0], "integrate")
        paths = [os.path.join(folder, "_odepack" + suffix)
                 for suffix in EXTENSION_SUFFIXES]
        loader = ExtensionFileLoader(
            _ODEPACK, next(filter(os.path.exists, paths), paths[0]))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_ODEPACK, loader))
        loader.exec_module(module)
        _lsoda = module
    return _lsoda


def integrate(sys, eps: float, x0, v0, T: float, tol: float = 1e-10, *,
              t0: float = 0.0, samples: int = 1000,
              t_eval=None) -> Trajectory:
    """Integrate x' = v, v' = -v/eps - h(x, omega t) with LSODA in one call
    over [t0, *t_eval], under rtol = atol = ``tol`` / 10.  The call goes to
    the compiled ``odeint`` of scipy's LSODA module, with the arguments that
    ``scipy.integrate.odeint(..., ml=1, mu=1, full_output=True,
    tfirst=True)`` passes it; the ``scipy.integrate`` package is not loaded.

    LSODA switches between Adams steps and the stiff BDF steps that the
    fast rate 1/eps calls for, and forms the Jacobian by banded finite
    differences (band 1: the pairs do not couple).  The right-hand side
    (:func:`_rhs_factory`) forms its layer weights once per distinct step
    time, shared by every pair.  ``x0`` and ``v0`` are floats, or
    sequences of equal length whose pairs are integrated together as one
    stacked state; the error control then covers every pair at once.  ``t_eval`` (default: ``samples`` points spanning
    [t0, t0 + T]) must be sorted and lie in [t0, t0 + T].  Refuses
    eps < 1e-3 and tol < 1e-12; the step count is not capped.  A failed
    run, or one whose states stop being finite (LSODA can report success
    past a finite-time blow-up), raises StiffnessError.
    """
    # loaded here, alone: only verify integrates
    odeint = _odepack().odeint
    sys.require_certified()
    if eps < MIN_EPS_FOR_INTEGRATION:
        raise StiffnessError(
            f"eps = {eps!r} below the stiffness guard {MIN_EPS_FOR_INTEGRATION}; "
            "use a larger eps"
        )
    if tol < MIN_INTEGRATION_TOL:
        raise ValueError(f"tol must be >= {MIN_INTEGRATION_TOL}")
    stacked = np.ndim(x0) > 0
    xs = np.atleast_1d(np.asarray(x0, dtype=float))
    vs = np.atleast_1d(np.asarray(v0, dtype=float))
    if xs.ndim != 1 or xs.shape != vs.shape or not xs.size:
        raise ValueError("x0 and v0 must be floats or non-empty sequences "
                         "of equal length")
    if t_eval is None:
        t_eval = np.linspace(t0, t0 + T, samples)
    t_eval = np.array(t_eval, dtype=float)
    if t_eval.size and (t_eval[0] < t0 or t_eval[-1] > t0 + T
                        or np.any(np.diff(t_eval) < 0)):
        raise ValueError("t_eval must be sorted and lie within [t0, t0 + T]")
    lsoda_tol = _LSODA_TOL_FACTOR * tol
    try:
        # func, y0, t, args, Dfun, col_deriv, ml, mu, full_output, rtol,
        # atol, tcrit, h0, hmax, hmin, ixpr, mxstep, mxhnil, mxordn,
        # mxords, tfirst
        states, _, istate = odeint(
            _rhs_factory(sys, eps), np.column_stack((xs, vs)).ravel(),
            np.concatenate(([t0], t_eval)), (), None, 0, 1, 1, 1,
            lsoda_tol, lsoda_tol, None, 0.0, 0.0, 0.0, 0, _NO_STEP_CAP, 0,
            12, 5, 1)
    except OverflowError:
        raise StiffnessError(
            "integration failed (the right-hand side overflowed); "
            "increase eps or shorten T") from None
    states = states[1:]
    if istate < 0:
        raise StiffnessError(
            f"integration failed (LSODA: {_LSODA_FAILURES[-istate - 1]}); "
            "increase eps or shorten T"
        )
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise StiffnessError(
            f"integration failed (non-finite state at "
            f"t = {float(t_eval[bad.argmax()])!r}); increase eps or shorten T"
        )
    x, v = states[:, 0::2].T, states[:, 1::2].T
    if not stacked:
        x, v = x[0], v[0]
    return Trajectory(t=t_eval, x=x, v=v)


@dataclass
class TrajectoryComparison:
    """Sup-norm comparison of integrated trajectories against the spectral
    response on a window after the transient."""

    transient_time: float
    sup_error: float
    reference: np.ndarray  # the response at the sample times
    sup_errors: list = field(default_factory=list)
    pairwise_max: float = 0.0
    trajectories: list = field(default_factory=list)


def compare(solution, sys, eps: float, ics, T0: float | None = None,
            T1: float = 50.0, tol: float = 1e-10, *,
            samples: int = 2001) -> TrajectoryComparison:
    """Integrate all initial conditions to T0 + T1 in one stacked
    :func:`integrate` call and measure, for each,
    sup_{[T0, T0+T1]} |x_num(t) - x_response(t)|.

    The transient default T0 = 20/(|a| eps) covers ten slow time constants
    when a > 0.  Nothing is judged here: the errors are measured for any
    sign of a, and the caller decides what ``sup_error`` must be.
    """
    sys.require_certified()
    ics = list(ics)
    if T0 is None:
        T0 = 20.0 / (abs(sys.a) * eps)
    times = np.linspace(T0, T0 + T1, samples)
    reference = solution.x_at_times(times, sys.omega)
    trajectories = []
    if ics:
        x0s, v0s = zip(*ics)
        run = integrate(sys, eps, x0s, v0s, T0 + T1, tol, t_eval=times)
        trajectories = [Trajectory(run.t, x, v) for x, v in zip(run.x, run.v)]
    tracks = [traj.x for traj in trajectories]
    sup_errors = [float(np.max(np.abs(x - reference))) for x in tracks]
    pairwise = 0.0
    for i in range(len(tracks)):
        for j in range(i + 1, len(tracks)):
            pairwise = max(pairwise,
                           float(np.max(np.abs(tracks[i] - tracks[j]))))
    return TrajectoryComparison(
        transient_time=T0,
        sup_error=max(sup_errors, default=0.0),
        reference=reference,
        sup_errors=sup_errors,
        pairwise_max=pairwise,
        trajectories=trajectories,
    )


def response_state(solution, omega, t: float) -> tuple[float, float]:
    """Position and velocity of the response at time t (handy for seeding
    initial conditions on or near the attractor)."""
    x = solution.x_at_times([t], omega)[0]
    v = solution.velocity_at_times([t], omega)[0]
    return float(x), float(v)


def write_trajectory_csv(path, traj: Trajectory, reference):
    """Emit a trajectory as CSV rows t, x, y, x_response, abs_error, where
    ``reference`` is the response at ``traj.t`` (as :func:`compare` keeps
    it)."""
    with open(path, "w") as fh:
        fh.write("t,x,y,x_response,abs_error\n")
        for t, x, y, r in zip(traj.t, traj.x, traj.v, reference):
            t, x, y, r = float(t), float(x), float(y), float(r)
            fh.write(f"{t!r},{x!r},{y!r},{r!r},{abs(x - r)!r}\n")
