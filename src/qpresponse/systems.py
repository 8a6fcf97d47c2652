"""Problem instances, hypothesis certification at a simple zero, and
analyticity-envelope majorants.

Every system is one :class:`System`: the coefficient grid of h in
eps x'' + x' + eps h = 0, tagged with the paper's theorem that covers it.
Two constructor functions fill the grid and run one shared entry check.
:func:`SeparableSystem` takes an autonomous nonlinearity g and an
additive quasi-periodic forcing f and fills the grid of h = g - f
(theorem 1); :func:`GeneralSystem` takes an angle-dependent grid as it is
(theorem 2).

Nonlinearities are supplied as finite Taylor data so re-expansions are
exact binomial shifts rather than quadrature.  The polynomial arithmetic
is numpy's ``poly1d``, ``polyval`` and ``polyder``.  numpy's docs prefer
``numpy.polynomial`` for new code, but that subpackage loads 9 modules
that nothing else in the program needs, on every CLI start, and for the
evaluations, derivatives and Taylor shifts formed here both give the same
bits.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .diophantine import min_small_divisor
from .errors import ConfigError, HypothesisError, SymmetryError
from .fourier import (DenseBlock, FourierSeries, MultiIndex, integer_mode,
                      mode_norm)

ROOT_RESIDUAL_TOL = 1e-13
SIMPLE_ZERO_TOL = 1e-9
_GRID_REALITY_TOL = 1e-14


class Root(NamedTuple):
    """A zero of the averaged equation with its derivative."""

    c0: float
    slope: float
    simple: bool


def _poly_from_taylor(coeffs: dict) -> np.poly1d:
    """Build a polynomial (highest power first) from {power: coefficient}."""
    top = max(coeffs, default=0)
    dense = [0.0] * (top + 1)
    for p, c in coeffs.items():
        if p < 0:
            raise ValueError("negative Taylor power")
        dense[top - int(p)] = float(c)
    return np.poly1d(dense)


def shift_taylor(coeffs: dict, old_center: float, new_center: float) -> dict:
    """Re-expand sum_p c_p (x - old)^p about ``new_center`` (exact binomials)."""
    poly = _poly_from_taylor(coeffs)
    shifted = poly(np.poly1d([1.0, new_center - old_center]))
    return {p: float(c) for p, c in enumerate(shifted.coeffs[::-1])}


def find_c0(g_coeffs: dict, f0: float, search_interval, *,
            center: float = 0.0, grid_points: int = 601) -> list[Root]:
    """Locate zeros of g(x) - f0 on an interval by sign-change bisection
    refined with Newton steps.

    ``g_coeffs`` is finite Taylor data {power: coefficient} about
    ``center``.  Every root is polished to |g(c0) - f0| <= 1e-13 and
    paired with g'(c0); roots whose derivative magnitude is <= 1e-9 are
    flagged non-simple.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise ValueError("search interval must satisfy lo < hi")
    resid = _poly_from_taylor(g_coeffs) - float(f0)
    dresid = np.polyder(resid)

    def r(x):
        return float(resid(x - center))

    def dr(x):
        return float(dresid(x - center))

    xs = np.linspace(lo, hi, int(grid_points))
    vals = resid(xs - center)

    candidates = []
    for i in range(len(xs) - 1):
        if abs(vals[i]) <= ROOT_RESIDUAL_TOL:
            candidates.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b, fa = xs[i], xs[i + 1], vals[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = r(m)
                if fm == 0.0 or b - a < 1e-15 * max(1.0, abs(m)):
                    a = b = m
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            candidates.append(0.5 * (a + b))
    if abs(vals[-1]) <= ROOT_RESIDUAL_TOL:
        candidates.append(xs[-1])

    roots: list[Root] = []
    for x in candidates:
        for _ in range(60):
            fx = r(x)
            if abs(fx) <= ROOT_RESIDUAL_TOL:
                break
            dfx = dr(x)
            if abs(dfx) < 1e-14:
                break
            step = fx / dfx
            x -= step
            if abs(step) < 1e-16 * max(1.0, abs(x)):
                break
        if abs(r(x)) > ROOT_RESIDUAL_TOL or not lo - 1e-12 <= x <= hi + 1e-12:
            continue
        if any(abs(x - found.c0) <= 1e-8 * max(1.0, abs(x)) for found in roots):
            continue
        slope = dr(x)
        roots.append(Root(float(x), float(slope), abs(slope) > SIMPLE_ZERO_TOL))
    roots.sort(key=lambda root: root.c0)
    return roots


@dataclass(frozen=True)
class AnalyticityEnvelope:
    """Certified majorants: strip half-width xi, disk radius rho, forcing
    majorant Phi and nonlinearity majorant Gamma."""

    xi: float
    rho: float
    Phi: float
    Gamma: float

    def __post_init__(self):
        if not (self.xi > 0 and self.rho > 0):
            raise ValueError("xi and rho must be strictly positive")


class Layers(NamedTuple):
    """The grid of a system as the range equation reads it, in dense form.

    ``source`` is the forcing f := -(p = 0 layer) on the nonzero modes,
    ``coupling`` the p = 1 layer on the nonzero modes (its zero mode is
    ``a``, which the propagator carries), ``powers`` the (p, layer) pairs
    for p >= 2 in increasing p, and ``radius`` the largest |nu| of an
    entry with p >= 1.  The blocks are read-only."""

    source: DenseBlock
    coupling: DenseBlock
    powers: tuple
    radius: int


class System:
    """The problem eps x'' + x' + eps h(x, omega t) = 0 with h given by its
    coefficient grid: h(x, psi) = sum a[nu, p] e^{i nu . psi} (x - center)^p.

    The grid may be complex; every entry is nonzero and the grid is
    conjugate symmetric, a[-nu, p] == conj(a[nu, p]), so h is real.  Once
    :func:`recentre` has certified a simple zero, ``center == c0``, the
    averaged constant a[0, 0] is gone and ``a = a[0, 1] != 0``.  The
    solver reads a system only through its grid; the ladder and the
    balance read it through :attr:`layers`, built once per system.
    ``theorem`` tags which of the paper's theorems covers the system (1
    for h = g - f, 2 for a general grid); only the statements that differ
    between them read it.  ``f0`` is the average of theorem 1's forcing f,
    which its envelope counts, and 0.0 for theorem 2.
    """

    def __init__(self, omega, grid: dict, *, theorem: int, center: float,
                 c0: float | None, f0: float = 0.0):
        self.omega = tuple(float(w) for w in omega)
        self.dimension = len(self.omega)
        self.grid = grid
        self.theorem = theorem
        self.center = float(center)
        self.c0 = None if c0 is None else float(c0)
        self.f0 = float(f0)

    @property
    def certified(self) -> bool:
        return self.c0 is not None

    @property
    def a(self) -> float:
        """Averaged slope a[0, 1]; only meaningful once certified."""
        return self.grid.get(((0,) * self.dimension, 1), 0j).real

    def averaged_taylor(self) -> dict[int, float]:
        """Taylor coefficients of the averaged nonlinearity h_0(x)."""
        zero = (0,) * self.dimension
        return {p: c.real for (nu, p), c in self.grid.items() if nu == zero}

    def alpha_series(self, p: int) -> FourierSeries:
        """Full angle series of the coefficient of (x - c0)^p."""
        return FourierSeries(
            self.dimension,
            {nu: c for (nu, q), c in self.grid.items() if q == p},
            real_valued=True,
        )

    @cached_property
    def forcing_series(self) -> FourierSeries:
        """Constant-in-x layer at nonzero modes: h_nu(c0) for nu != 0."""
        return self.alpha_series(0).without_zero_mode()

    @cached_property
    def alpha1_series(self) -> FourierSeries:
        """Linear-in-x layer at nonzero modes."""
        return self.alpha_series(1).without_zero_mode()

    @cached_property
    def range_forcing(self) -> FourierSeries:
        """f := -(p = 0 layer) on the nonzero modes: the right-hand side of
        the range equation D w + eps nl(w) = eps f."""
        return self.forcing_series.scaled(-1.0)

    def nonlinear_powers(self) -> list[int]:
        return sorted({p for (_, p) in self.grid if p >= 2})

    @cached_property
    def layers(self) -> Layers:
        block = DenseBlock.of
        return Layers(
            source=block(self.range_forcing),
            coupling=block(self.alpha1_series),
            powers=tuple((p, block(self.alpha_series(p)))
                         for p in self.nonlinear_powers()),
            radius=max((mode_norm(nu) for nu, p in self.grid if p >= 1),
                       default=0),
        )

    def require_certified(self):
        if not self.certified:
            raise HypothesisError("system is not certified at a simple zero")
        if abs(self.a) <= SIMPLE_ZERO_TOL:
            raise HypothesisError("linear coefficient a = a[0, 1] vanishes")


def _grid(d: int, entries) -> dict:
    """The entry check both constructors run: the grid of the
    ((nu, p), c) ``entries``, with each mode of length ``d`` and each
    power an integer p >= 0.  Repeated entries are summed in input order
    and exact zeros dropped."""
    grid: dict[tuple[MultiIndex, int], complex] = {}
    for (nu, p), c in entries:
        mode = integer_mode(nu)
        if len(mode) != d:
            raise ValueError(f"grid mode {nu!r} has wrong length")
        if p < 0 or p != int(p):
            raise ValueError(f"Taylor power {p!r} is not an integer >= 0")
        key, c = (mode, int(p)), complex(c)
        grid[key] = grid[key] + c if key in grid else c
    return {key: c for key, c in grid.items() if c != 0j}


def SeparableSystem(omega, forcing: FourierSeries, g_taylor, *,
                    center: float = 0.0, c0: float | None = None) -> System:
    """The theorem-1 system h(x, psi) = g(x) - f(psi): the grid
    {(0, p): g_p} together with {(nu, 0): -f_nu}.

    ``g_taylor`` holds the Taylor coefficients of g about ``center``, as
    {power: coefficient} or as (power, coefficient) pairs.  The forcing is
    checked as a real-valued series: conjugate symmetric to 1e-14
    relative.  Once :func:`recentre` has certified a simple zero,
    ``center == c0`` and ``a = g'(c0) != 0``.
    """
    forcing = FourierSeries(forcing.dimension, forcing.items_sorted(),
                            real_valued=True)
    zero = (0,) * len(omega)
    pairs = g_taylor.items() if isinstance(g_taylor, Mapping) else g_taylor
    entries = [((nu, 0), -c) for nu, c in forcing.items_sorted()]
    entries += [((zero, p), float(c)) for p, c in pairs]
    return System(omega, _grid(len(omega), entries), theorem=1,
                  center=center, c0=c0, f0=forcing.zero_mode().real)


def GeneralSystem(omega, grid, *, center: float = 0.0,
                  c0: float | None = None) -> System:
    """The theorem-2 system with the angle-dependent coefficient grid
    {(nu, p): a[nu, p]} about ``center``, given as that dict or as
    ((nu, p), coefficient) pairs, conjugate symmetric to 1e-14 so that h
    is real-valued."""
    pairs = grid.items() if isinstance(grid, Mapping) else grid
    table = _grid(len(omega), pairs)
    for (nu, p), c in table.items():
        mirror = table.get((tuple(-x for x in nu), p), 0j)
        if abs(mirror - c.conjugate()) > _GRID_REALITY_TOL:
            raise SymmetryError(
                f"grid entry ({nu}, {p}) breaks conjugate symmetry")
    return System(omega, table, theorem=2, center=center, c0=c0)


def recentre(system, c0: float):
    """Re-expand the grid about a certified simple zero of the averaged
    equation h_0(c0) = 0 (for separable systems, g(c0) = f0).

    Raises :class:`HypothesisError` if the residual exceeds 1e-13 or the
    averaged slope is within 1e-9 of zero.
    """
    c0 = float(c0)
    by_mode: dict[MultiIndex, dict[int, complex]] = {}
    for (nu, p), c in system.grid.items():
        by_mode.setdefault(nu, {})[p] = c
    zero = (0,) * system.dimension
    new_grid: dict[tuple[MultiIndex, int], complex] = {}
    for nu, coeffs in by_mode.items():
        if list(coeffs) == [0]:
            # a layer entry constant in x is its own re-expansion
            new_grid[(nu, 0)] = coeffs[0]
            continue
        re = shift_taylor({p: c.real for p, c in coeffs.items()},
                          system.center, c0)
        im = {}
        if any(c.imag for c in coeffs.values()):
            im = shift_taylor({p: c.imag for p, c in coeffs.items()},
                              system.center, c0)
        for p in set(re) | set(im):
            val = complex(re.get(p, 0.0), im.get(p, 0.0))
            if val != 0j:
                new_grid[(nu, p)] = val
    residual = new_grid.pop((zero, 0), 0j)
    if abs(residual) > ROOT_RESIDUAL_TOL:
        raise HypothesisError(
            f"h_0(c0) = {abs(residual):.3e} exceeds the certification tolerance"
        )
    if abs(new_grid.get((zero, 1), 0j)) <= SIMPLE_ZERO_TOL:
        raise HypothesisError("zero is not simple: the averaged slope vanishes")
    return System(system.omega, new_grid, theorem=system.theorem,
                  center=c0, c0=c0, f0=system.f0)


def certify_envelope(system, xi: float, rho: float) -> AnalyticityEnvelope:
    """Weighted-l1 majorants making the decay inequalities hold by
    construction: |f_nu| <= Phi e^{-xi |nu|} and
    |a_{nu,p}| <= Gamma rho^{-p} e^{-xi |nu|}.

    Phi is the weighted norm of the range forcing with ``f0`` at its zero
    mode: theorem 1 majorises the forcing, its average included, by Phi,
    and theorem 2 (f0 = 0) the forcing layer.  Theorem 1 majorises only
    the powers p >= 1 of g by Gamma, theorem 2 every layer of the grid."""
    system.require_certified()
    weighted: dict[int, float] = {}
    for (nu, p), c in system.grid.items():
        try:
            weight = math.exp(xi * mode_norm(nu))
        except OverflowError:
            raise ConfigError(
                f"xi = {xi!r} overflows the weight exp(xi |nu|) of mode "
                f"nu = {nu}; use a smaller xi") from None
        weighted[p] = weighted.get(p, 0.0) + abs(c) * weight
    if system.theorem == 1:
        weighted.pop(0, None)
    average = FourierSeries(system.dimension,
                            {(0,) * system.dimension: system.f0})
    phi = system.range_forcing.add(average).weighted_norm(xi)
    gamma = max((w * rho**p for p, w in weighted.items()), default=0.0)
    return AnalyticityEnvelope(xi=xi, rho=rho, Phi=phi, Gamma=gamma)


class NonresonanceReport(NamedTuple):
    min_value: float
    argmin: MultiIndex | None
    threshold: float
    resonant: bool


def check_nonresonance(omega, N: int) -> NonresonanceReport:
    """Exhaustive min of |omega . nu| over 0 < |nu| <= N.

    A minimum at or below 1e-15 |omega|_1 N signals rational dependence up
    to N (``resonant`` flag).
    """
    omega = tuple(float(w) for w in omega)
    value, arg = min_small_divisor(omega, int(N))
    threshold = 1e-15 * sum(abs(w) for w in omega) * N
    return NonresonanceReport(value, arg, threshold, value <= threshold)
