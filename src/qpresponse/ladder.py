"""Order-by-order construction of the auxiliary-parameter expansion of the
range equation D(eps, omega . nu) w + eps nl(w) = eps f on the nonzero
modes, for every system.

The equation is read off the system's grid (:attr:`~.systems.System.layers`):
f := -(p = 0 layer) on the nonzero modes, and nl(w) = alpha_1 * w +
sum_{p>=2} alpha_p * w^p, where alpha_1 is the p = 1 layer without its
zero mode a (the propagator carries a) and alpha_p is the p-th layer.
A layer that is a single real zero-mode coefficient, as every p >= 1
layer of a separable system is, multiplies in one slice-add, bitwise a
scaling (see :meth:`~.fourier.DenseBlock.convolve`).

Each order u^(k) is a Fourier series on the l1 ball of radius N.  The
composition sums over lower orders are read from the partial products
P(p, m), the sums over ordered compositions k_1 + ... + k_p = m of
u^(k_1) * ... * u^(k_p), each formed from P(p - 1, .) once per build and
memoized.  P(p, m) sums one product per first order u^(j), and both
u^(j) * u^(m-j) and u^(m-j) * u^(j) are formed, since the order in which
a product adds its terms fixes its bits.  The products of one sum are
formed one at a time in a scratch buffer and added into one running total
(:func:`~.fourier.sum_of_products`), with the bits of adding separate
product blocks.  The ladder is the exact power-series expansion of the
N-truncated fixed-point system (and hence directly comparable with the
independent direct solver): a product of already-truncated orders is
computed only out to the radius from which it can still reach the ball,
and the coefficients it keeps are bitwise those of the full-support
product.

One engine builds every ladder: ``_Expansion`` runs the recursion for a
batch of (eps, zeta) rows at once on dense blocks
(:class:`~.fourier.DenseBlock`).  Each row reads 1/D(eps, omega . nu)
from the table of its own eps, built once per (system, eps, N), and is
bitwise what its build as a batch of one gives; a row that fails stays
in the batch as the zero series.  The zeta solves batch every eps
of a probe or a sweep together; ``build_ladder``, ``first_order`` and the
``next_order`` replays use a batch of one, and series objects are made
only for what they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LadderDivergenceError, ResonanceError
from .fourier import (DenseBlock, FourierSeries, _cut, _finish, _norm_grid,
                      _omega_grid, sum_of_products, zero_series)

_D_FLOOR = 1e-300
_BLOWUP_NORM = 1e12


def _resonance(s) -> ResonanceError:
    return ResonanceError(
        f"propagator denominator vanished at s = {s!r}: "
        "resonance slipped through the non-resonance certificate",
        value=s,
    )


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
            raise _resonance(s)
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


def _propagator_table(sys, eps: float, N: int, tables: dict):
    """1/D(eps, omega . nu) on the box [-N, N]^d, by components, in two
    read-only arrays that are zero at the zero mode and beyond the ball.
    Each reciprocal is taken in Python, as the scalar propagator takes it.
    The third entry maps each ball mode where |D| < 1e-300 to its
    omega . nu, in lexicographic order; the last three hold D itself by
    components, eps (a - s^2) and s = omega . nu, and the mask of the ball
    modes 0 < |nu| <= N.  Each table is built once per (eps, N) in
    ``tables``, the cache of one lockstep solve, which goes with it; eps
    is keyed by its bits, so that -0.0 and 0.0 get tables of their own."""
    key = (float(eps).hex(), int(N))
    if key not in tables:
        tables[key] = _table(sys.omega, float(sys.a), float(eps), int(N))
    return tables[key]


def _plans(tables: dict) -> dict:
    """The product plans kept in ``tables``, the cache of one solve (see
    :func:`~.fourier.sum_of_products`); they go with it, as its
    propagator tables do."""
    return tables.setdefault("plans", {})


def _table(omega: tuple, a: float, eps: float, N: int):
    """:func:`_propagator_table` at frequency vector ``omega`` and slope
    ``a``, built afresh."""
    lo, shape = (-N,) * len(omega), (2 * N + 1,) * len(omega)
    ball = _norm_grid(lo, shape) <= N
    ball[(N,) * len(omega)] = False
    s = _omega_grid(omega, np.ix_(*[range(-N, N + 1)] * len(omega)))
    with np.errstate(all="ignore"):
        # D = complex(eps * (a - s * s), s), as propagator_denominator forms it
        dr = eps * (a - s * s)
        resonant = ball & (np.hypot(dr, s) < _D_FLOOR)
    cells, p = ball & ~resonant, np.zeros(s.shape, dtype=complex)
    # numpy's complex division rounds differently from Python's
    p[cells] = [1.0 / complex(x, y)
                for x, y in zip(dr[cells].tolist(), s[cells].tolist())]
    re, im = p.real.copy(), p.imag.copy()
    for x in (re, im, dr, s, ball):
        x.flags.writeable = False
    modes = map(tuple, (np.argwhere(resonant) - N).tolist())
    return re, im, dict(zip(modes, s[resonant].tolist())), dr, s, ball


def _zeroed(block: DenseBlock, dead: np.ndarray) -> DenseBlock:
    """``block`` with the series at the batch indices where ``dead`` holds
    made zero, on new arrays."""
    values = np.where(dead.reshape((-1,) + (1,) * block.dimension),
                      0j, block.values)
    return _cut(values, block.lo, block.real)


class _Expansion:
    """The ladder recursion for a batch of (eps, zeta) rows at one N.

    Each order is a :class:`DenseBlock` holding one series per row, and
    batch index i is position i of ``zetas`` and ``eps`` throughout;
    partial products are memoized, so each is formed once per batch, and
    each row divides by the propagator table of its own eps, read from
    ``tables`` (see :func:`_propagator_table`; a cache of its own by
    default).  ``eps`` is one value for every row or one per zeta.  A row
    whose build fails (a resonant source mode or a blown-up order) records
    in ``errors`` the exception its build alone raises and stays in the
    batch as the zero series; the others go on exactly as they would
    alone, since rows never mix and a zero row adds no left mode to a
    product.
    """

    def __init__(self, sys, eps, zetas, N: int, tables=None):
        sys.require_certified()
        self.zetas = [float(z) for z in zetas]
        self.eps = [float(e) for e in
                    (eps if np.ndim(eps) else [eps] * len(self.zetas))]
        if len(self.eps) != len(self.zetas):
            raise ValueError(f"{len(self.eps)} eps for {len(self.zetas)} zetas")
        self.N = int(N)
        if self.N < 1:
            raise ValueError("mode cutoff N must be >= 1")
        self.d = sys.dimension
        self.errors: dict[int, Exception] = {}
        self.orders: list[DenseBlock] = []
        self.norms: list[np.ndarray] = []
        self._products: dict[tuple[int, int], DenseBlock] = {}
        self._layers = sys.layers
        self._powers = [p for p, _ in self._layers.powers]
        # largest |nu| an order can have: N for the orders built here
        self._step = self.N
        # one table per distinct eps (by its bits); _which[pos] names the
        # table of position pos
        distinct = {e.hex(): e for e in self.eps}
        keys = list(distinct)
        self._which = np.array([keys.index(e.hex()) for e in self.eps],
                               dtype=np.intp)
        cache = {} if tables is None else tables
        self._plans = _plans(cache)
        tables = [_propagator_table(sys, e, self.N, cache)
                  for e in distinct.values()]
        self._re = np.stack([t[0] for t in tables])
        self._im = np.stack([t[1] for t in tables])
        self._resonant = [t[2] for t in tables]

    def fail(self, failures: dict) -> None:
        """Record ``{position: exception}`` and make those rows the zero
        series in every stored order, norm and partial product.  New
        arrays are built: the orders may wrap a caller's series."""
        if not failures:
            return
        self.errors.update(failures)
        dead = np.zeros(len(self.zetas), dtype=bool)
        dead[list(failures)] = True
        self.orders = [_zeroed(u, dead) for u in self.orders]
        self.norms = [np.where(dead, 0.0, n) for n in self.norms]
        self._products = {key: _zeroed(b, dead)
                          for key, b in self._products.items()}

    def raise_first(self) -> None:
        if self.errors:
            raise self.errors[min(self.errors)]

    def _divide(self, source: DenseBlock, sign: float):
        """Multiply each row by sign * eps/D(eps, omega.nu) mode-wise, at
        the row's own eps, dropping the zero mode and everything beyond
        the ball.  Returns the block and ``{position: ResonanceError}`` of
        the rows with a source mode where D vanishes, each with the first
        such mode's error; the caller fails those rows."""
        N, batch = self.N, len(self.zetas)
        part = source._within(N)
        if part is None:
            return DenseBlock.empty(self.d, batch, source.real), {}
        lo, c = part
        c = np.broadcast_to(c, (batch,) + c.shape[1:])
        hi = [l + n - 1 for l, n in zip(lo, c.shape[1:])]
        # resonant modes come in lexicographic order, so the first one a
        # series has in its source is the one its scalar division met
        failures = {}
        for t, resonant in enumerate(self._resonant):
            for nu, s in resonant.items():
                if all(l <= x <= h for x, l, h in zip(nu, lo, hi)):
                    cell = c[(slice(None),)
                             + tuple(x - l for x, l in zip(nu, lo))]
                    hit = (cell != 0) & (self._which == t)
                    for i in np.flatnonzero(hit).tolist():
                        failures.setdefault(i, _resonance(s))
        table = (slice(None),) + tuple(slice(l + N, h + N + 1)
                                       for l, h in zip(lo, hi))
        pr, pi = self._re[table], self._im[table]
        if len(pr) > 1:
            pr, pi = pr[self._which], pi[self._which]
        # sign is +-1.0, so each scale is exactly +-eps
        scale = (sign * np.array(self.eps)).reshape((-1,) + (1,) * self.d)
        out = np.empty(c.shape, dtype=complex)
        with np.errstate(all="ignore"):
            # (scale * c) * p, each product as Python forms it
            xr = scale * c.real - 0.0 * c.imag
            xi = scale * c.imag + 0.0 * c.real
            out.real = xr * pr - xi * pi
            out.imag = xr * pi + xi * pr
        return _finish(out, lo, source.real), failures

    def _partial_product(self, p: int, m: int) -> DenseBlock:
        """Sum over ordered compositions k_1 + ... + k_p = m of the
        convolutions u^(k_1) * ... * u^(k_p), on the modes that can still
        reach the ball.

        A p-fold product is read on the ball (after the convolution with
        the p-th layer of the grid) and feeds the (p+1)-fold products
        through one more order, so it is needed out to N plus the coupling
        radius plus (p_max - p) times the largest order norm.
        """
        if p == 1:
            return self.orders[m - 1]
        key = (p, m)
        cached = self._products.get(key)
        if cached is not None:
            return cached
        radius = self.N + self._layers.radius \
            + (self._powers[-1] - p) * self._step
        pairs = []
        for j in range(1, m - p + 2):
            left = self.orders[j - 1]
            right = self._partial_product(p - 1, m - j)
            if (left.present() & right.present()).any():
                pairs.append((left, right))
        total = sum_of_products(pairs, radius, self.d, self._plans)
        self._products[key] = total
        return total

    def first_order(self) -> None:
        base, failures = self._divide(self._layers.source, 1.0)
        zetas = np.array(self.zetas, dtype=complex)
        u1 = base.add(_finish(zetas.reshape((-1,) + (1,) * self.d),
                              (0,) * self.d, True))
        self.orders.append(u1)
        self.norms.append(u1.norms())
        self.fail(failures)

    def next_order(self) -> None:
        k = len(self.orders) + 1
        if k < 2:
            raise ValueError("first order must exist before higher orders")
        pairs = []
        coupling = self._layers.coupling
        prev = self.orders[k - 2]
        if coupling.values.size and prev.present().any():
            pairs.append((coupling, prev))
        for p, alpha in self._layers.powers:
            if p > k - 1:
                break
            block = self._partial_product(p, k - 1)
            if block.present().any():
                pairs.append((alpha, block))
        u_k, failures = self._divide(
            sum_of_products(pairs, self.N, self.d, self._plans), -1.0)
        norms = u_k.norms()
        for i in np.flatnonzero(norms > _BLOWUP_NORM).tolist():
            failures.setdefault(i, LadderDivergenceError(
                f"order {k} norm exceeded {_BLOWUP_NORM:.0e}: "
                "expansion is blowing up"))
        self.orders.append(u_k)
        self.norms.append(norms)
        self.fail(failures)

    def build(self, K: int) -> None:
        """Orders 1..K for every zeta that does not fail on the way."""
        self.first_order()
        for _ in range(2, K + 1):
            if len(self.errors) == len(self.zetas):
                break
            self.next_order()
        # the partial products are read only while the orders are built
        self._products = {}

    def assembled(self) -> DenseBlock:
        """Sum of the orders, as :func:`assemble` with mu = 1 forms it:
        scaling by 1.0 is the product with the constant series 1."""
        one = DenseBlock(np.ones((1,) * (self.d + 1), dtype=complex),
                         (0,) * self.d, True)
        return sum_of_products([(one, u) for u in self.orders], None, self.d,
                               self._plans)

    def ladder(self, i: int = 0) -> OrderLadder:
        """The ladder of the row at position ``i``."""
        return OrderLadder(
            orders=[u.series(i) for u in self.orders],
            zeta=self.zetas[i],
            eps=self.eps[i],
            N=self.N,
            norms=[float(n[i]) for n in self.norms],
        )


def first_order(sys, eps: float, zeta: float, N: int) -> FourierSeries:
    """u^(1): forcing modes divided by the propagator, zero mode set to zeta."""
    exp = _Expansion(sys, eps, [zeta], N)
    exp.first_order()
    exp.raise_first()
    return exp.orders[0].series()


def _replay(sys, ladder: OrderLadder, k: int) -> FourierSeries:
    if k < 2:
        raise ValueError("recursion starts at k = 2")
    if len(ladder.orders) < k - 1:
        raise ValueError(f"orders 1..{k - 1} must be present")
    exp = _Expansion(sys, ladder.eps, [ladder.zeta], ladder.N)
    exp.orders = [DenseBlock.of(s) for s in ladder.orders[: k - 1]]
    # a caller's ladder may hold modes beyond its N; the products must
    # still reach the ball from them
    exp._step = max([exp.N] + [s.max_norm() for s in ladder.orders[: k - 1]])
    exp.next_order()
    exp.raise_first()
    return exp.orders[-1].series()


def next_order_thm1(sys, ladder: OrderLadder, k: int) -> FourierSeries:
    """Order k of the separable recursion (sum over powers p >= 2)."""
    if sys.theorem != 1:
        raise TypeError("next_order_thm1 requires a theorem-1 (separable) system")
    return _replay(sys, ladder, k)


def next_order_thm2(sys, ladder: OrderLadder, k: int) -> FourierSeries:
    """Order k of the general recursion (linear angle-coupling term plus
    the powers p >= 2 with angle-dependent coefficients)."""
    if sys.theorem != 2:
        raise TypeError("next_order_thm2 requires a theorem-2 (general) system")
    return _replay(sys, ladder, k)


def build_ladder(sys, eps: float, zeta: float, K: int, N: int) -> OrderLadder:
    """Construct orders 1..K at the given (eps, zeta) on the radius-N ball."""
    if K < 1:
        raise ValueError("K must be >= 1")
    exp = _Expansion(sys, eps, [zeta], N)
    exp.build(K)
    exp.raise_first()
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
    return _ratios([s.weighted_norm(xi_prime) for s in ladder.orders])


def _ratios(norms):
    """:func:`convergence_ratio` from the norms of orders 1..K."""
    populated = [(k, n) for k, n in enumerate(norms, 1) if n > 0.0]
    ratios = []
    for (k1, n1), (k2, n2) in zip(populated, populated[1:]):
        ratios.append((n2 / n1) ** (1.0 / (k2 - k1)))
    if not ratios:
        return [], 0.0
    tail = max(1, math.ceil(len(norms) / 3))
    return ratios, float(_median(ratios[-tail:]))


def _median(values):
    """``statistics.median`` of a nonempty list of floats, bitwise: the
    middle value after sorting, or half the sum of the two middle ones.
    The ``statistics`` module itself costs every command its import."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


def _nonlinearity(sys, w: DenseBlock, radius: int | None = None,
                  plans: dict | None = None) -> DenseBlock:
    """:func:`nonlinearity_series` of each series in the block ``w``.

    Each power w^p is formed by repeated convolution with ``w``.  With
    ``radius``, w^p is kept out to the radius from which it can still
    reach |nu| <= radius: after a convolution with alpha_p and the
    remaining factors of w.  The products read their plans from
    ``plans`` (see :func:`~.fourier.sum_of_products`).
    """
    layers = sys.layers
    pairs = []
    if layers.coupling.values.size and w.present().any():
        pairs.append((layers.coupling, w))
    step = w.max_norm()
    w_pow, current = w, 1
    for p, alpha in layers.powers:
        while current < p:
            current += 1
            reach = None if radius is None else \
                radius + layers.radius + (layers.powers[-1][0] - current) * step
            w_pow = sum_of_products([(w_pow, w)], reach, w.dimension, plans)
        pairs.append((alpha, w_pow))
    return sum_of_products(pairs, radius, w.dimension, plans)


def nonlinearity_series(sys, w: FourierSeries,
                        radius: int | None = None) -> FourierSeries:
    """The nonlinear block nl(w) = alpha_1 * w + sum_{p>=2} alpha_p * w^p
    entering both equations (for a separable system, sum_{p>=2} g_p w^p).

    The zero mode of the result is exactly the nonlinear part of the
    zero-mode balance.  Without ``radius`` the block has full support.
    With it, every mode with |nu| <= radius is bitwise equal to the full
    block's coefficient; modes beyond the radius may be present but are not
    to be read.
    """
    return _nonlinearity(sys, DenseBlock.of(w), radius).series()


def forcing_term(sys) -> FourierSeries:
    """The forcing f := -(p = 0 layer) of the range equation, on the
    nonzero modes."""
    return sys.range_forcing


def range_residual(sys, eps: float, w: FourierSeries, N: int) -> float:
    """Max over 0 < |nu| <= N of |D(eps, omega.nu) w_nu + eps [nl]_nu
    - eps f_nu|: the defect of the truncated range equation."""
    (residual,) = range_residuals(sys, [eps], DenseBlock.of(w), N)
    return residual


def range_residuals(sys, eps_list, w: DenseBlock, N: int,
                    tables=None) -> list:
    """:func:`range_residual` of each series of the block ``w`` at the eps
    of the same position in ``eps_list``, each bitwise what it gives
    alone: the nonlinearity of the whole block is formed at once, and each
    row's defect reads the table of its own eps from ``tables`` (a cache
    of its own by default), where the products keep their plans too."""
    tables = {} if tables is None else tables
    rows = [_propagator_table(sys, e, N, tables) for e in eps_list]
    *_, s, ball = rows[0]
    dr = np.stack([row[3] for row in rows])
    eps = np.array(eps_list, dtype=float).reshape((-1,) + (1,) * w.dimension)
    wv, nv, fv = (_on_box(x, N) for x in (
        w, _nonlinearity(sys, w, N, _plans(tables)),
        DenseBlock.of(forcing_term(sys))))
    with np.errstate(all="ignore"):
        # D w + eps nl - eps f by components, as Python forms it; eps * z
        # is complex(eps, 0.0) * z
        rr = (dr * wv.real - s * wv.imag) + (eps * nv.real - 0.0 * nv.imag) \
            - (eps * fv.real - 0.0 * fv.imag)
        ri = (dr * wv.imag + s * wv.real) + (eps * nv.imag + 0.0 * nv.real) \
            - (eps * fv.imag + 0.0 * fv.real)
        r = np.hypot(rr, ri)
    # a mode outside every support adds 0 or NaN, and max skips NaN
    return np.fmax.reduce(r, axis=tuple(range(1, r.ndim)), where=ball,
                          initial=0.0).tolist()


def _on_box(block: DenseBlock, N: int) -> np.ndarray:
    """The coefficients of each series of ``block`` on the box
    [-N, N]^d."""
    part = block._within(N)
    if part is None:
        return np.zeros((block.batch,) + (2 * N + 1,) * block.dimension,
                        dtype=complex)
    lo, v = part
    return np.pad(v, [(0, 0)] + [(l + N, N + 1 - l - n)
                                 for l, n in zip(lo, v.shape[1:])])
