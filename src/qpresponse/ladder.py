"""Order-by-order construction of the auxiliary-parameter expansion of the
range equation, for both separable and general systems.

Each order u^(k) is a Fourier series on the l1 ball of radius N; the
composition sums over lower orders are evaluated through memoized
convolution powers of partial products, so every convolution is computed
once.  The ladder is the exact power-series expansion of the N-truncated
fixed-point system (and hence directly comparable with the independent
direct solver): a product of already-truncated orders is computed only out
to the radius from which it can still reach the ball, and the coefficients
it keeps are bitwise those of the full-support product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median

from .errors import LadderDivergenceError, ResonanceError
from .fourier import FourierSeries, _clean, mode_norm, zero_series
from .systems import GeneralSystem, SeparableSystem

_D_FLOOR = 1e-300
_BLOWUP_NORM = 1e12


def propagator_denominator(eps: float, s: float, a: float) -> complex:
    """D(eps, s) = -eps s^2 + i s + eps a."""
    return complex(eps * (a - s * s), s)


@dataclass(frozen=True)
class Propagator:
    """Mode-by-mode divisor 1/D(eps, omega . nu).

    Satisfies |D(eps, s)| >= max(|a eps|, |s|) whenever
    eps^2 <= 1/(2|a|); algebraically |D|^2 - (a eps)^2 =
    s^2 (1 + eps^2 (s^2 - 2a)).
    """

    eps: float
    a: float

    def denominator(self, s: float) -> complex:
        return propagator_denominator(self.eps, s, self.a)

    def __call__(self, s: float) -> complex:
        d = self.denominator(s)
        if abs(d) < _D_FLOOR:
            raise ResonanceError(
                f"propagator denominator vanished at s = {s!r}: "
                "resonance slipped through the non-resonance certificate",
                value=s,
            )
        return 1.0 / d


@dataclass
class OrderLadder:
    """The sequence u^(1), u^(2), ... of per-order series.

    ``orders[k-1]`` holds u^(k).  The first order carries the free
    zero-mode parameter zeta; all higher orders have zero average.
    """

    orders: list
    zeta: float
    eps: float
    N: int
    norms: list = field(default_factory=list)

    def __len__(self):
        return len(self.orders)

    def order(self, k: int) -> FourierSeries:
        return self.orders[k - 1]

    def to_json_dict(self) -> dict:
        return {
            "zeta": self.zeta,
            "eps": self.eps,
            "N": self.N,
            "norms": list(self.norms),
            "orders": [s.to_json_dict() for s in self.orders],
        }


class _Expansion:
    """Incremental ladder builder with memoized partial products."""

    def __init__(self, sys, eps: float, zeta: float, N: int):
        sys.require_certified()
        self.sys = sys
        self.eps = float(eps)
        self.zeta = float(zeta)
        self.N = int(N)
        if self.N < 1:
            raise ValueError("mode cutoff N must be >= 1")
        self.d = sys.dimension
        self.prop = Propagator(self.eps, sys.a)
        self.orders: list[FourierSeries] = []
        self._products: dict[tuple[int, int], FourierSeries] = {}
        if isinstance(sys, SeparableSystem):
            self._powers = sorted(sys.nonlinear_taylor)
        elif isinstance(sys, GeneralSystem):
            self._powers = sys.nonlinear_powers()
        else:
            raise TypeError(f"unsupported system type {type(sys)!r}")
        self._coupling = _coupling_radius(sys)
        # largest |nu| an order can have: N for the orders built here
        self._step = self.N

    def _dot(self, nu) -> float:
        s = 0.0
        for x, w in zip(nu, self.sys.omega):
            s += x * w
        return s

    def _divide(self, series: FourierSeries, scale: float) -> FourierSeries:
        """Multiply by scale/D(eps, omega.nu) mode-wise, dropping the zero
        mode and everything beyond the ball."""
        out = {}
        for nu, c in series.items_sorted():
            if not any(nu) or mode_norm(nu) > self.N:
                continue
            out[nu] = scale * c * self.prop(self._dot(nu))
        return FourierSeries._from_table(self.d, _clean(out), series.real_valued)

    def _partial_product(self, p: int, m: int) -> FourierSeries:
        """Sum over ordered compositions k_1 + ... + k_p = m of the
        convolutions u^(k_1) * ... * u^(k_p), on the modes that can still
        reach the ball.

        A p-fold product is read on the ball (after the coupling
        convolution, for general systems) and feeds the (p+1)-fold products
        through one more order, so it is needed out to N plus the coupling
        radius plus (p_max - p) times the largest order norm.
        """
        if p == 1:
            return self.orders[m - 1]
        key = (p, m)
        cached = self._products.get(key)
        if cached is not None:
            return cached
        radius = self.N + self._coupling + (self._powers[-1] - p) * self._step
        total = zero_series(self.d)
        for j in range(1, m - p + 2):
            left = self.orders[j - 1]
            right = self._partial_product(p - 1, m - j)
            if len(left) and len(right):
                total = total.add(left.convolve(right, radius=radius))
        self._products[key] = total
        return total

    def first_order(self) -> FourierSeries:
        if isinstance(self.sys, SeparableSystem):
            source = self.sys.forcing
            scale = self.eps
        else:
            source = self.sys.forcing_series
            scale = -self.eps
        u1 = self._divide(source, scale)
        table = dict(u1.items_sorted())
        table[(0,) * self.d] = self.zeta
        u1 = FourierSeries._from_table(self.d, _clean(table), u1.real_valued)
        self.orders.append(u1)
        return u1

    def next_order(self) -> FourierSeries:
        k = len(self.orders) + 1
        if k < 2:
            raise ValueError("first order must exist before higher orders")
        source = zero_series(self.d)
        if isinstance(self.sys, GeneralSystem):
            alpha1 = self.sys.alpha1_series
            prev = self.orders[k - 2]
            if len(alpha1) and len(prev):
                source = source.add(alpha1.convolve(prev, radius=self.N))
        for p in self._powers:
            if p > k - 1:
                break
            block = self._partial_product(p, k - 1)
            if not len(block):
                continue
            if isinstance(self.sys, SeparableSystem):
                source = source.add(block.scaled(self.sys.nonlinear_taylor[p]))
            else:
                source = source.add(
                    self.sys.alpha_series(p).convolve(block, radius=self.N))
        u_k = self._divide(source, -self.eps)
        if u_k.weighted_norm(0.0) > _BLOWUP_NORM:
            raise LadderDivergenceError(
                f"order {k} norm exceeded {_BLOWUP_NORM:.0e}: "
                "expansion is blowing up"
            )
        self.orders.append(u_k)
        return u_k

    def ladder(self) -> OrderLadder:
        return OrderLadder(
            orders=list(self.orders),
            zeta=self.zeta,
            eps=self.eps,
            N=self.N,
            norms=[s.weighted_norm(0.0) for s in self.orders],
        )


def first_order(sys, eps: float, zeta: float, N: int) -> FourierSeries:
    """u^(1): forcing modes divided by the propagator, zero mode set to zeta."""
    exp = _Expansion(sys, eps, zeta, N)
    return exp.first_order()


def _replay(sys, ladder: OrderLadder, k: int) -> _Expansion:
    if k < 2:
        raise ValueError("recursion starts at k = 2")
    if len(ladder.orders) < k - 1:
        raise ValueError(f"orders 1..{k - 1} must be present")
    exp = _Expansion(sys, ladder.eps, ladder.zeta, ladder.N)
    exp.orders = list(ladder.orders[: k - 1])
    # a caller's ladder may hold modes beyond its N; the products must
    # still reach the ball from them
    exp._step = max([exp.N] + [s.max_norm() for s in exp.orders])
    return exp


def next_order_thm1(sys: SeparableSystem, ladder: OrderLadder, k: int) -> FourierSeries:
    """Order k of the separable recursion (sum over powers p >= 2)."""
    if not isinstance(sys, SeparableSystem):
        raise TypeError("next_order_thm1 requires a SeparableSystem")
    return _replay(sys, ladder, k).next_order()


def next_order_thm2(sys: GeneralSystem, ladder: OrderLadder, k: int) -> FourierSeries:
    """Order k of the general recursion (linear angle-coupling term plus
    the powers p >= 2 with angle-dependent coefficients)."""
    if not isinstance(sys, GeneralSystem):
        raise TypeError("next_order_thm2 requires a GeneralSystem")
    return _replay(sys, ladder, k).next_order()


def build_ladder(sys, eps: float, zeta: float, K: int, N: int) -> OrderLadder:
    """Construct orders 1..K at the given (eps, zeta) on the radius-N ball."""
    if K < 1:
        raise ValueError("K must be >= 1")
    exp = _Expansion(sys, eps, zeta, N)
    exp.first_order()
    for _ in range(2, K + 1):
        exp.next_order()
    return exp.ladder()


def assemble(ladder: OrderLadder, mu: float = 1.0) -> FourierSeries:
    """Sum mu^k u^(k); per-mode accumulation runs in increasing k."""
    if not ladder.orders:
        raise ValueError("ladder is empty")
    d = ladder.orders[0].dimension
    total = zero_series(d)
    scale = 1.0
    for series in ladder.orders:
        scale *= mu
        if scale == 0.0:
            break
        total = total.add(series.scaled(scale))
    return total


def convergence_ratio(ladder: OrderLadder, xi_prime: float = 0.0):
    """Per-order growth ratios of the weighted norms and their tail median.

    Structural zeros (for example the vanishing second order of separable
    systems, or every order k with k-1 not a sum of populated orders) are
    skipped: the ratio between consecutive populated orders k1 < k2 is
    normalised per order, (norm_2/norm_1)^(1/(k2-k1)).  The estimate is
    the median of the last ceil(K/3) ratios, 0 when no ratio exists.
    """
    norms = [(k + 1, s.weighted_norm(xi_prime))
             for k, s in enumerate(ladder.orders)]
    populated = [(k, n) for k, n in norms if n > 0.0]
    ratios = []
    for (k1, n1), (k2, n2) in zip(populated, populated[1:]):
        ratios.append((n2 / n1) ** (1.0 / (k2 - k1)))
    if not ratios:
        return [], 0.0
    tail = max(1, math.ceil(len(ladder.orders) / 3))
    return ratios, float(median(ratios[-tail:]))


def _coupling_radius(sys) -> int:
    """Largest |nu| among the angle coefficients that multiply powers of
    the solution: 0 for separable systems."""
    if isinstance(sys, GeneralSystem):
        return max((mode_norm(nu) for nu, p in sys.grid if p >= 1), default=0)
    return 0


def _powers_of(w: FourierSeries, powers, radius: int | None = None,
              coupling: int = 0):
    """Yield (p, w^p) for the ascending ``powers``, each by repeated
    convolution with ``w``.

    With ``radius``, w^p is kept out to the radius from which it can still
    reach |nu| <= radius: after a convolution with coefficients of mode
    radius ``coupling`` and the remaining factors of w.
    """
    step = w.max_norm()
    w_pow = w
    current = 1
    for p in powers:
        while current < p:
            current += 1
            reach = None if radius is None else \
                radius + coupling + (powers[-1] - current) * step
            w_pow = w_pow.convolve(w, radius=reach)
        yield p, w_pow


def nonlinearity_series(sys, w: FourierSeries,
                        radius: int | None = None) -> FourierSeries:
    """The nonlinear block entering both equations.

    Separable: sum_{p>=2} a_p w^p.  General: the constant layer at nonzero
    modes plus the linear angle coupling plus sum_{p>=2} alpha_p * w^p.
    The zero mode of the result is exactly the nonlinear part of the
    zero-mode balance.  Without ``radius`` the block has full support.
    With it, every mode with |nu| <= radius is bitwise equal to the full
    block's coefficient; modes beyond the radius may be present but are not
    to be read.
    """
    d = w.dimension
    total = zero_series(d)
    if isinstance(sys, SeparableSystem):
        for p, w_pow in _powers_of(w, sorted(sys.nonlinear_taylor), radius):
            total = total.add(w_pow.scaled(sys.nonlinear_taylor[p]))
    elif isinstance(sys, GeneralSystem):
        total = total.add(sys.forcing_series)
        if len(sys.alpha1_series) and len(w):
            total = total.add(sys.alpha1_series.convolve(w, radius=radius))
        for p, w_pow in _powers_of(w, sys.nonlinear_powers(), radius,
                                  _coupling_radius(sys)):
            total = total.add(sys.alpha_series(p).convolve(w_pow, radius=radius))
    else:
        raise TypeError(f"unsupported system type {type(sys)!r}")
    return total


def coupled_powers_zero_mode(sys: GeneralSystem, w: FourierSeries) -> complex:
    """Zero mode of sum_{p>=2} alpha_p * w^p, each power of ``w`` formed
    only out to the radius from which it can still reach the zero mode."""
    total = 0j
    for p, w_pow in _powers_of(w, sys.nonlinear_powers(), 0,
                               _coupling_radius(sys)):
        total += sys.alpha_series(p).convolve(w_pow, radius=0).zero_mode()
    return total


def forcing_term(sys) -> FourierSeries:
    """The additive forcing of the range equation (zero for general systems,
    whose forcing layer lives inside the nonlinearity block)."""
    if isinstance(sys, SeparableSystem):
        return sys.forcing
    return zero_series(sys.dimension)


def range_residual(sys, eps: float, w: FourierSeries, N: int) -> float:
    """Max over 0 < |nu| <= N of |D(eps, omega.nu) w_nu + eps [nl]_nu
    - eps f_nu|: the defect of the truncated range equation."""
    nl = nonlinearity_series(sys, w, radius=N)
    f = forcing_term(sys)
    a = sys.a
    worst = 0.0
    modes = set(w.support()) | set(nl.support()) | set(f.support())
    for nu in sorted(modes):
        if not any(nu) or mode_norm(nu) > N:
            continue
        s = 0.0
        for x, om in zip(nu, sys.omega):
            s += x * om
        d = propagator_denominator(eps, s, a)
        r = d * w.coeff(nu) + eps * nl.coeff(nu) - eps * f.coeff(nu)
        worst = max(worst, abs(r))
    return worst
