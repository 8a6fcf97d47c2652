"""Arithmetic on truncated multi-dimensional Fourier series held on dense
boxes of modes.

A :class:`DenseBlock` holds a batch of series on one box: cell ``i`` of a
series is the complex coefficient of the integer mode vector ``lo + i``,
and a zero cell is an absent mode.  A :class:`FourierSeries` is one such
series, held as a block of batch 1 cut to the bounding box of its support;
the ladder runs many series at once on larger batches.  All mode norms are
l1 throughout the package (truncation balls, decay weights, small-divisor
balls), and every coefficient accumulation runs in lexicographic mode order
so results are bit-reproducible run to run.

The frequencies omega . nu come from one grid, ``_omega_grid``: on the
box of modes at ``lo`` cell ``i`` holds omega . (lo + i), its products
summed from 0.0 in axis order, so each cell is bitwise the sum a scalar
loop over the components forms.  The propagator table, the range
residual, the time derivative and the small-divisor walk read it; the
oracles in ``validation`` and ``trees`` keep loops of their own.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, gt, lt, sub
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, SymmetryError

MultiIndex = tuple[int, ...]

# Coefficients with |c| below this are dropped after an operation; the default
# only removes exact zeros (cancellations and untouched box cells).
DROP_THRESHOLD = 1e-300

_REALITY_TOL = 1e-14

# most sample times whose phases evaluate_many holds at once
EVALUATION_ROWS = 64


def mode_norm(nu) -> int:
    """l1 norm of a mode vector."""
    return int(sum(abs(int(x)) for x in nu))


def integer_mode(nu) -> MultiIndex:
    """``nu`` as a tuple of ints; an entry that is not an integer is
    refused."""
    entries = tuple(nu)
    mode = tuple(int(x) for x in entries)
    if mode != entries:
        raise ValueError(f"mode {nu!r} has non-integer entries")
    return mode


def _as_mode(nu, d) -> MultiIndex:
    mode = integer_mode(nu)
    if len(mode) != d:
        raise DimensionMismatchError(f"mode {nu!r} has length {len(mode)}, expected {d}")
    return mode


class FourierSeries:
    """Finitely supported Fourier series on the d-torus.

    Parameters
    ----------
    dimension : int
        Number of angles d >= 1.
    coeffs : mapping or iterable of (mode, coefficient) pairs
        Finite support; modes are integer tuples of length ``dimension``.
        Coefficients given for the same mode are summed in input order.
    real_valued : bool
        Declares conjugate symmetry ``coeff(-nu) == conj(coeff(nu))``; the
        symmetry is validated (to 1e-14) at construction and the flag is
        preserved by convolve/power/truncate.

    Instances are treated as immutable values: every operation returns a new
    series.  Input is validated here, at the boundary.  A series holds one
    cleaned :class:`DenseBlock` of batch 1 on the bounding box of its
    support, and its arithmetic is that block's.
    """

    __slots__ = ("_block",)

    def __init__(self, dimension: int, coeffs=(), real_valued: bool = False):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        d = int(dimension)
        real = bool(real_valued)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: dict[MultiIndex, complex] = {}
        for nu, c in items:
            mode = _as_mode(nu, d)
            c = complex(c)
            if abs(c) >= DROP_THRESHOLD:
                table[mode] = table.get(mode, 0j) + c
        self._block = DenseBlock.empty(d, 1, real)
        if table:
            modes = np.array(list(table))
            lo = modes.min(axis=0)
            values = np.zeros((1,) + tuple((modes.max(axis=0) - lo + 1).tolist()),
                              dtype=complex)
            values[(0,) + tuple((modes - lo).T)] = list(table.values())
            self._block = _finish(values, lo.tolist(), real)
        if real:
            self._check_reality()

    # -- basics ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._block.dimension

    @property
    def real_valued(self) -> bool:
        return self._block.real

    def _check_reality(self):
        table = dict(self.items_sorted())
        for nu, c in table.items():
            neg = tuple(-x for x in nu)
            mirror = table.get(neg, 0j)
            if abs(mirror - c.conjugate()) > _REALITY_TOL * max(1.0, abs(c)):
                raise SymmetryError(
                    f"coefficient at {nu} breaks conjugate symmetry: "
                    f"{c!r} vs {mirror!r} at {neg}"
                )

    def support(self) -> list[MultiIndex]:
        """Stored modes in lexicographic order."""
        return [nu for nu, _ in self.items_sorted()]

    def items_sorted(self):
        """(mode, coefficient) pairs of the stored modes in lexicographic
        order."""
        v = self._block.values[0]
        idx = np.nonzero(v)
        modes = zip(*((i + l).tolist() for i, l in zip(idx, self._block.lo)))
        return zip(modes, v[idx].tolist())

    def coeff(self, nu) -> complex:
        return self._block.at(_as_mode(nu, self.dimension))[0].item()

    def zero_mode(self) -> complex:
        """Coefficient of the constant mode (0, ..., 0); zero if absent."""
        return self._block.zero_mode()[0].item()

    def max_norm(self) -> int:
        """Largest l1 mode norm in the support (0 for the empty series)."""
        return self._block.max_norm()

    def __len__(self):
        return int(np.count_nonzero(self._block.values))

    def __repr__(self):
        return f"FourierSeries(d={self.dimension}, modes={len(self)})"

    # -- algebra ---------------------------------------------------------

    def _require_same_dim(self, other: "FourierSeries"):
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def add(self, other: "FourierSeries") -> "FourierSeries":
        """Mode-wise sum."""
        self._require_same_dim(other)
        return self._block.add(other._block).series()

    def scaled(self, factor) -> "FourierSeries":
        """Series with every coefficient multiplied by ``factor``."""
        return self._block.scaled(factor).series()

    def convolve(self, other: "FourierSeries",
                 radius: int | None = None) -> "FourierSeries":
        """Coefficient-wise product series: out(nu) = sum a(nu1) b(nu - nu1).

        Per-output sums accumulate in lexicographic order of the left
        factor's mode nu1; the support is the Minkowski sum of the supports
        (minus exact cancellations below ``DROP_THRESHOLD``).

        With ``radius`` only the modes with |nu| <= radius are computed and
        kept.  Each kept coefficient sums the same products in the same
        order as the full product, and the terms left out are exact zeros
        added to a sum that starts at +0, so it is bitwise equal to the
        full product's coefficient.
        """
        self._require_same_dim(other)
        if radius is not None and radius < 0:
            raise ValueError("radius must be >= 0")
        return self._block.convolve(other._block, radius).series()

    def power(self, p: int) -> "FourierSeries":
        """Repeated convolution; power(s, 1) is s itself."""
        if p < 1:
            raise ValueError("power requires p >= 1 (handle constants explicitly)")
        result = self
        for _ in range(p - 1):
            result = result.convolve(self)
        return result

    def truncate(self, cutoff: int) -> "FourierSeries":
        """Drop every mode with l1 norm > cutoff; coefficients are untouched."""
        if cutoff < 1:
            raise ValueError("truncation cutoff must be >= 1")
        return self._block.truncate(cutoff).series()

    def without_zero_mode(self) -> "FourierSeries":
        return self._block.without_zero_mode().series()

    # -- analysis ---------------------------------------------------------

    def evaluate(self, psi) -> complex:
        """Sum of coeff(nu) * exp(i nu . psi): :meth:`evaluate_many` of the
        one row ``psi``."""
        return self.evaluate_many([psi])[0].item()

    def evaluate_many(self, angles) -> np.ndarray:
        """Sum of coeff(nu) * exp(i nu . psi) for each row psi of
        ``angles`` (m, d): bitwise ``exp(1j * (angles @ keys.T)) @ c``
        over the stored modes ``keys`` and their coefficients ``c``, and
        for m >= 2 bitwise the complex matmul ``exp((1j * angles) @
        keys.T) @ c``.

        The phases are formed :data:`EVALUATION_ROWS` rows at a time at
        most, so the working memory does not grow with m.  The rows are
        split into ``ceil(m / EVALUATION_ROWS)`` near-equal blocks, so no
        block holds a single row unless ``angles`` does: numpy forms a
        one-row product by another path, which rounds differently."""
        angles = np.atleast_2d(np.asarray(angles, dtype=float))
        if angles.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"angle rows have length {angles.shape[1]}, expected {self.dimension}"
            )
        v = self._block.values[0]
        idx = np.nonzero(v)
        out = np.zeros(angles.shape[0], dtype=complex)
        if not idx[0].size or not out.size:
            return out
        keys = np.add(np.stack(idx, axis=1), self._block.lo, dtype=float).T
        c = v[idx]
        blocks = -(-len(out) // EVALUATION_ROWS)
        for rows, sums in zip(np.array_split(angles, blocks),
                              np.array_split(out, blocks)):
            # the phases by a real matmul, exp in place
            z = 1j * (rows @ keys)
            np.exp(z, out=z)
            sums[:] = z @ c
        return out

    def weighted_norm(self, xi_prime: float = 0.0) -> float:
        """Majorant sum_nu |coeff(nu)| exp(xi' |nu|) of the sup on a strip."""
        if xi_prime < 0:
            raise ValueError("strip half-width must be >= 0")
        if xi_prime == 0.0:
            # abs(c) * exp(0.0) is abs(c), bit for bit
            return float(self._block.norms()[0])
        v = self._block.values[0]
        idx = np.nonzero(v)
        norms = sum(np.abs(i + l) for i, l in zip(idx, self._block.lo))
        distinct, which = np.unique(norms, return_inverse=True)
        weights = np.array([math.exp(xi_prime * n) for n in distinct.tolist()])
        with np.errstate(all="ignore"):
            # the nonzero cells only: a zero cell times an infinite weight
            # is NaN; accumulate adds one cell at a time, in lexicographic order
            terms = np.hypot(v[idx].real, v[idx].imag) * weights[which]
        return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0

    def time_derivative(self, omega) -> "FourierSeries":
        """Derivative of t -> series(omega t): multiply each mode by i omega . nu."""
        if len(omega) != self.dimension:
            raise DimensionMismatchError("omega length does not match dimension")
        block = self._block
        c = block.values
        s = _omega_grid(omega, np.ix_(*map(range, block.lo, np.add(block.hi, 1))))
        out = np.empty_like(c)
        with np.errstate(all="ignore"):
            # 1j * s * c as Python forms it: 1j * s is (0.0 * s - 0.0, 0.0 + s)
            tr, ti = 0.0 * s - 0.0, 0.0 + s
            out.real = tr * c.real - ti * c.imag
            out.imag = tr * c.imag + ti * c.real
        series = _finish(out, block.lo, block.real).series()
        if series.real_valued:
            series._check_reality()
        return series

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form {"d": int, "modes": [{"nu": [...], "re": ., "im": .}, ...]}."""
        return {
            "d": self.dimension,
            "modes": [
                {"nu": list(nu), "re": c.real, "im": c.imag}
                for nu, c in self.items_sorted()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, real_valued: bool = False) -> "FourierSeries":
        coeffs = [
            (tuple(m["nu"]), complex(m["re"], m.get("im", 0.0))) for m in data["modes"]
        ]
        return cls(int(data["d"]), coeffs, real_valued=real_valued)


@lru_cache(maxsize=256)
def _norm_grid(lo: tuple, shape: tuple) -> np.ndarray:
    """l1 norm of the mode of every cell of the box at ``lo`` (read-only)."""
    d = len(shape)
    grid = sum(np.abs(np.arange(lo[i], lo[i] + shape[i])).reshape(
        [-1 if j == i else 1 for j in range(d)]) for i in range(d))
    grid.flags.writeable = False
    return grid


def _omega_grid(omega, axes) -> np.ndarray:
    """omega . nu for every mode nu whose component i runs over the integer
    array ``axes[i]``; the arrays broadcast together (``np.ix_`` of ranges
    spans a box).  Each sum is formed from 0.0 in axis order: bitwise what
    ``s = 0.0; for x, w in zip(nu, omega): s += x * w`` gives."""
    grid = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in axes)))
    with np.errstate(all="ignore"):
        for x, w in zip(axes, omega):
            grid = grid + x * w
    return grid


class DenseBlock:
    """A batch of B series held on one box of modes.

    ``values`` has shape ``(B, *box)``: ``values[b][i]`` is the coefficient
    of mode ``lo + i`` in series ``b``, and a zero cell is a mode outside
    that series' support.  Blocks are values, like series.  Every
    operation returns a cleaned block: -0.0 parts become +0.0, cells with
    |c| < ``DROP_THRESHOLD`` or NaN become zero, and the box is cut to the
    cells nonzero in some series.  Operands whose batch is 1 broadcast
    against the others.

    Products of two series go through numpy's complex multiply.  Scalings
    multiply by components, which is how Python multiplies complex
    numbers; numpy's complex multiply may round differently.  Norms are
    ``hypot``s summed one cell at a time in lexicographic order, as
    ``abs`` and a Python loop give them.  numpy warnings are off inside
    the operations: a series that overflows carries inf, as Python
    arithmetic would.

    A block owns its ``values``: they are made read-only when it is
    built, so its support, computed on first use, stays valid.
    """

    __slots__ = ("values", "lo", "hi", "real", "_present", "_support",
                 "_finite", "_key", "_range")

    def __init__(self, values: np.ndarray, lo, real: bool):
        values.flags.writeable = False
        self.values = values
        self.lo = tuple(lo)
        self.hi = tuple(l + n - 1 for l, n in zip(self.lo, values.shape[1:]))
        self.real = real
        self._present = self._support = self._finite = None
        self._key = self._range = None

    @classmethod
    def empty(cls, dimension: int, batch: int = 1,
              real: bool = True) -> "DenseBlock":
        return cls(np.zeros((batch,) + (0,) * dimension, dtype=complex),
                   (0,) * dimension, real)

    @staticmethod
    def of(series: FourierSeries) -> "DenseBlock":
        """The batch of one that holds ``series`` on its support's bounding
        box (not a copy)."""
        return series._block

    @classmethod
    def stack(cls, series: list) -> "DenseBlock":
        """The batch of the given series, in order, on the smallest box
        that holds them all."""
        blocks = [DenseBlock.of(s) for s in series]
        real = all(b.real for b in blocks)
        parts = [b for b in blocks if b.values.size]
        if not parts:
            return cls.empty(blocks[0].dimension, len(blocks), real)
        lo = [min(axis) for axis in zip(*(b.lo for b in parts))]
        hi = [max(axis) for axis in zip(*(b.hi for b in parts))]
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        values = np.zeros((len(blocks),) + shape, dtype=complex)
        for i, b in enumerate(blocks):
            if b.values.size:
                values[(i,) + tuple(slice(x - l, y - l + 1) for x, y, l
                                    in zip(b.lo, b.hi, lo))] = b.values[0]
        return cls(values, lo, real)

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.ndim - 1

    def present(self) -> np.ndarray:
        """Per series: whether it has a nonzero coefficient."""
        if self._present is None:
            self._present = (self.values != 0).reshape(self.batch, -1).any(axis=1)
        return self._present

    def support(self):
        """The modes nonzero in some series, an (n, d) array in
        lexicographic order; their l1 norms; and the largest of them (0
        when there is none).  Computed once."""
        if self._support is None:
            modes = np.argwhere((self.values != 0).any(axis=0)) + self.lo
            norms = np.abs(modes).sum(axis=1)
            self._support = modes, norms, int(norms.max()) if norms.size else 0
        return self._support

    def finite(self) -> bool:
        """Whether every coefficient is finite."""
        if self._finite is None:
            self._finite = bool(np.isfinite(self.values).all())
        return self._finite

    def plan_key(self) -> bytes:
        """What a product plan reads of this block, in one string: its
        dimension, its box, whether it is finite and the cells of its
        support, packed to bits.  Blocks with equal keys get equal plans;
        equal boxes with different supports get different keys.  Computed
        once."""
        if self._key is None:
            head = np.array([self.dimension, self.finite(), *self.lo, *self.hi])
            cells = (self.values != 0).any(axis=0)
            self._key = head.tobytes() + np.packbits(cells).tobytes()
        return self._key

    def part_range(self) -> tuple:
        """The least nonzero and the largest magnitude of a real or an
        imaginary part, over every cell and series: (inf, 0.0) when every
        part is zero.  Read only for finite blocks; computed once."""
        if self._range is None:
            parts = (np.abs(self.values.real), np.abs(self.values.imag))
            self._range = (
                min(float(np.min(x, where=x > 0, initial=np.inf)) for x in parts),
                max(float(np.max(x, initial=0.0)) for x in parts))
        return self._range

    def series(self, b: int = 0) -> FourierSeries:
        """Series ``b`` of the batch as a :class:`FourierSeries`.  A batch
        of one is wrapped as it is; a row of a larger batch is copied out
        on its own box."""
        block = self
        if self.batch > 1:
            block = _cut(self.values[b:b + 1].copy(), self.lo, self.real)
        series = object.__new__(FourierSeries)
        series._block = block
        return series

    def at(self, mode) -> np.ndarray:
        """Coefficient of ``mode`` in each series."""
        idx = tuple(map(sub, mode, self.lo))
        if min(idx) >= 0 and all(map(lt, idx, self.values.shape[1:])):
            return self.values[(slice(None), *idx)]
        return np.zeros(self.batch, dtype=complex)

    def zero_mode(self) -> np.ndarray:
        """Coefficient of the constant mode in each series."""
        return self.at((0,) * self.dimension)

    def max_norm(self) -> int:
        """Largest l1 mode norm over all series (0 when all are empty)."""
        return self.support()[2]

    def norms(self) -> np.ndarray:
        """``weighted_norm(0.0)`` of each series."""
        with np.errstate(all="ignore"):
            mags = np.hypot(self.values.real, self.values.imag)
        # accumulate runs one cell at a time; numpy's sum would pair terms
        return np.add.accumulate(mags.reshape(self.batch, -1), axis=1)[:, -1] \
            if mags.size else np.zeros(self.batch)

    # -- algebra ---------------------------------------------------------

    def add(self, other: "DenseBlock") -> "DenseBlock":
        """Mode-wise sum."""
        real = self.real and other.real
        batch = max(self.batch, other.batch)
        parts = [x for x in (self, other) if x.values.size]
        if not parts:
            return DenseBlock.empty(self.dimension, batch, real)
        if len(parts) == 1:
            # 0 + c is c for a cleaned c; a batch of one stands for all
            return DenseBlock(parts[0].values, parts[0].lo, real)
        lo = [min(axis) for axis in zip(*(x.lo for x in parts))]
        hi = [max(axis) for axis in zip(*(x.hi for x in parts))]
        out = np.zeros((batch,) + tuple(h - l + 1 for l, h in zip(lo, hi)),
                       dtype=complex)
        with np.errstate(all="ignore"):
            for x in parts:
                region = tuple(slice(a - l, b - l + 1)
                               for a, b, l in zip(x.lo, x.hi, lo))
                out[(slice(None),) + region] += x.values
        return _finish(out, lo, real)

    def _within(self, radius: int):
        """``(lo, values)`` of the part of the box with every |nu_i| <=
        ``radius`` (a view), or None when that part is empty."""
        lo = [max(x, -radius) for x in self.lo]
        hi = [min(x, radius) for x in self.hi]
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return lo, self.values[(slice(None),) + tuple(
            slice(l - s, h - s + 1) for l, h, s in zip(lo, hi, self.lo))]

    def truncate(self, radius: int) -> "DenseBlock":
        """The modes with |nu| <= radius; coefficients are untouched."""
        part = self._within(radius)
        if part is None:
            return DenseBlock.empty(self.dimension, self.batch, self.real)
        lo, v = part
        return _finish(v.copy(), lo, self.real, radius)

    def without_zero_mode(self) -> "DenseBlock":
        """Every series with its constant mode removed."""
        if not self.zero_mode().any():
            return self
        values = self.values.copy()
        values[(slice(None),) + tuple(-l for l in self.lo)] = 0
        return _cut(values, self.lo, self.real)

    def scaled(self, factor) -> "DenseBlock":
        """Every coefficient multiplied by ``factor``, as Python multiplies
        a complex ``factor`` by a complex coefficient."""
        factor = complex(factor)
        fr, fi = factor.real, factor.imag
        v = self.values
        out = np.empty_like(v)
        with np.errstate(all="ignore"):
            out.real = fr * v.real - fi * v.imag
            out.imag = fr * v.imag + fi * v.real
        return _finish(out, self.lo, self.real and abs(fi) == 0.0)

    def product_plan(self, other: "DenseBlock", radius: int | None = None):
        """How ``self.convolve(other, radius)`` runs: its output box
        ``(lo, hi)``, the modes that drive its loop (an (n, d) array in
        the order the loop takes them) and whether they are the left
        factor's; None when the product is empty.

        The loop runs over the shorter of the two supports.  Over the
        right factor's modes it takes them in reverse lexicographic order,
        so each output cell still meets its terms in increasing
        lexicographic order of the left mode.  That direction also adds
        products of a left cell that is an exact zero, and drops those of
        a right cell that is one.  With finite operands such a product is
        a signed zero, which leaves a sum that starts at +0 unchanged;
        with an inf or NaN it is NaN, so the loop then runs over the left
        modes, whose terms define the product.
        """
        if not self.values.size or not other.values.size:
            return None
        sides = []
        for block, far in ((self, other), (other, self)):
            modes, norms, top = block.support()
            # the block's box bounds its support
            lo, hi = block.lo, block.hi
            if radius is not None and top > radius + far.max_norm():
                # a mode farther out than this meets a kept output mode
                # only through exact-zero cells of the other factor
                modes = modes[norms <= radius + far.max_norm()]
                if not len(modes):
                    return None
                lo, hi = modes.min(axis=0).tolist(), modes.max(axis=0).tolist()
            sides.append((modes, lo, hi))
        (left, l_lo, l_hi), (right, r_lo, r_hi) = sides
        lo = list(map(add, l_lo, r_lo))
        hi = list(map(add, l_hi, r_hi))
        if radius is not None:
            lo = [max(x, -radius) for x in lo]
            hi = [min(x, radius) for x in hi]
            if any(map(gt, lo, hi)):
                return None
        if len(right) < len(left) and self.finite() and other.finite():
            return lo, hi, right[::-1], False
        return lo, hi, left, True

    def convolve(self, other: "DenseBlock",
                 radius: int | None = None) -> "DenseBlock":
        """Series-by-series :meth:`FourierSeries.convolve`: each output cell
        sums the products a(l) b(n - l) in lexicographic order of the left
        mode l, each formed by numpy's complex multiply with the left
        coefficient first.  The loop runs over the shorter support (see
        :meth:`product_plan`); either way every kept cell is bitwise the
        sum over the left modes nonzero in some series.

        A left factor that is a single constant c gives, in one slice-add,
        the products c * b(n) added to +0: bitwise what scaling by c gives
        when c is real."""
        return sum_of_products([(self, other)], radius, self.dimension)


# A sum of products whose operands pass these bounds is cleaned already
# (see sum_of_products): the least nonzero parts multiply to at least
# _FINE_GRAIN, and the largest ones, times the products per cell, stay
# below _COARSE_BOUND
_FINE_GRAIN = 2.0 ** -800
_COARSE_BOUND = 2.0 ** 1000


def sum_of_products(pairs, radius: int | None, dimension: int,
                    plans: dict | None = None) -> DenseBlock:
    """a_1 * b_1 + a_2 * b_2 + ... for the blocks in ``pairs``, each
    product cut to ``radius``: bitwise what adding the products
    ``a_j.convolve(b_j, radius)`` one by one with :meth:`DenseBlock.add`
    gives, on the largest batch of the pairs.

    Every product is formed on its own box in a scratch buffer and
    cleaned there as a product is, then added to the running total, which
    is cleaned as a sum is: each cell is clean(clean(T_1) + clean(T_2))
    and so on.  A cell outside a product's box would gain +0 and be
    cleaned again, which leaves a cleaned value as it is, so only that box
    is touched.  The total's box is cut once, at the end.

    Those cleans are skipped when they cannot change a cell, which holds
    when every operand is finite and, for each pair, the least nonzero
    real or imaginary parts m_a, m_b of its factors have m_a m_b >=
    2^-800 and the largest ones M_a, M_b, times the n driving modes of
    its loop, sum over the pairs to 2 n M_a M_b <= 2^1000.  Proof: a part
    x != 0 with |x| >= m_a is a multiple of its ulp, so of 2^(floor(log2
    m_a) - 52), and so every product of a part of a_j by a part of b_j is
    an exact multiple of a power of two g >= m_a m_b 2^-106 >= 2^-906.  A
    multiple of g below 2^53 g is a double, and a larger double is a
    multiple of its own ulp, which is; so rounding keeps multiples of g,
    and every part of every product, sum and running total is one, with
    or without FMA.  A nonzero cell thus has |c| >= 2^-906, far above
    ``DROP_THRESHOLD``; the bound keeps every partial sum below 2^1001, so
    none overflows and none is NaN; and each sum starts at +0.0, and x +
    y is -0.0 only when both are, so no part is -0.0.  Cleaning then
    keeps every cell as it is, and only the radius cut is applied.

    A plan and where its slices land depend only on what
    :meth:`DenseBlock.plan_key` reads, and ``plans`` (a dict, by default
    none) keeps them by those keys: a solve passes the cache it owns, so
    a product met again in the same solve reuses its plan."""
    real = all(a.real and b.real for a, b in pairs)
    batch = max([1] + [max(a.batch, b.batch) for a, b in pairs])
    terms = [(a, b, planned) for a, b in pairs
             if (planned := _planned(a, b, radius, plans)) is not None]
    if not terms:
        return DenseBlock.empty(dimension, batch, real)
    lo = [min(axis) for axis in zip(*(plan[0] for *_, (plan, _) in terms))]
    hi = [max(axis) for axis in zip(*(plan[1] for *_, (plan, _) in terms))]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    total = np.zeros((batch,) + shape, dtype=complex)
    inside = None if radius is None else _norm_grid(tuple(lo), shape) <= radius
    scratch = np.empty_like(total) if len(terms) > 1 else None
    cleaned = _cleaned(terms)
    with np.errstate(all="ignore"):
        for k, (a, b, (plan, geometry)) in enumerate(terms):
            box = tuple(slice(x - l, y - l + 1)
                        for x, y, l in zip(plan[0], plan[1], lo))
            cells = total[(slice(None),) + box]
            # the first product goes straight into the total: 0 + c is c
            # for a cleaned c, and cleaning is idempotent
            out = cells
            if k:
                out = scratch[(slice(None),) + box]
                out.fill(0)
            _slice_adds(out, plan, a, b, geometry)
            if not cleaned:
                _clean(out, None if inside is None else inside[box])
            elif inside is not None:
                np.copyto(out, 0, where=~inside[box])
            if k:
                cells += out
                if not cleaned:
                    _clean(cells)
    return _cut(total, lo, real)


def _planned(a: DenseBlock, b: DenseBlock, radius, plans):
    """``(a.product_plan(b, radius), its geometry)``, or None when the
    product is empty; kept in ``plans`` when that is a dict."""
    key = None
    if plans is not None:
        key = (a.plan_key(), b.plan_key(), radius)
        if key in plans:
            return plans[key]
    plan = a.product_plan(b, radius)
    planned = None if plan is None else (plan, _geometry(plan, a, b))
    if key is not None:
        plans[key] = planned
    return planned


def _cleaned(terms) -> bool:
    """Whether the products of ``terms`` and their sums are cleaned as
    they are formed, by the bounds that :func:`sum_of_products` states."""
    bound = 0.0
    for a, b, (plan, _) in terms:
        if not (a.finite() and b.finite()):
            return False
        (least_a, top_a), (least_b, top_b) = a.part_range(), b.part_range()
        if not least_a * least_b >= _FINE_GRAIN:
            return False
        bound += 2.0 * len(plan[2]) * top_a * top_b
    return bound <= _COARSE_BOUND


def _geometry(plan, a: DenseBlock, b: DenseBlock):
    """Where the products of ``plan`` land: whether some driving modes
    were left out because their slice misses the plan's box, and one int
    array with a column per mode kept.  Its first d rows index the
    mode's coefficient in the driving factor; the others hold its slice
    bounds (start and stop per axis, then their sources) or, on a box of
    one cell, the index of the cell it meets."""
    lo, hi, modes, by_left = plan
    driver, sliced = (a, b) if by_left else (b, a)
    # where the sliced factor's box lands in the plan's box for each
    # driving mode, and the part of it that lies inside
    shift = modes + list(map(sub, sliced.lo, lo))
    start = np.maximum(shift, 0)
    stop = np.minimum(shift + sliced.values.shape[1:],
                      [h - l + 1 for l, h in zip(lo, hi)])
    hit = (start < stop).all(axis=1)
    missed = not hit.all()
    if missed:
        modes, shift, start, stop = modes[hit], shift[hit], start[hit], stop[hit]
    parts = (-shift,) if lo == hi else (start, stop, start - shift,
                                         stop - shift)
    return missed, np.concatenate([modes - driver.lo, *parts], axis=1).T.copy()


def _slice_adds(out: np.ndarray, plan, a: DenseBlock, b: DenseBlock,
                geometry=None) -> int:
    """Add the products of ``a.convolve(b)`` into ``out``, which holds the
    plan's box, one slice-add per driving mode of the ``plan`` whose
    slice meets it; returns how many there were.  ``geometry`` is
    :func:`_geometry` of the plan, formed here when not given.  The caller
    silences numpy's warnings.

    On a box of one cell, as the balance's zero modes have, each driving
    mode meets one cell of the sliced factor: the products are formed in
    one multiply and added to the cell in loop order by one running sum,
    bitwise the slice-adds."""
    lo, hi, modes, by_left = plan
    missed, rows = _geometry(plan, a, b) if geometry is None else geometry
    driver, sliced = (a, b) if by_left else (b, a)
    o, d = sliced.values, len(lo)
    coefs = driver.values[(slice(None),) + tuple(rows[:d])]
    coefs = coefs.T.reshape((rows.shape[1], driver.batch) + (1,) * d)
    if missed:
        # the contiguous layout that masking all the coefficients gives:
        # numpy's multiply may round by its layout
        coefs = coefs.copy()
    if lo == hi:
        met = o[(slice(None),) + tuple(rows[d:])].T
        coefs = coefs.reshape(len(coefs), driver.batch)
        terms = coefs * met if by_left else met * coefs
        # accumulate adds one row at a time; numpy's reduce might pair them
        rows = np.concatenate((out.reshape(1, -1), np.broadcast_to(
            terms, (len(terms), out.shape[0]))))
        out[...] = np.add.accumulate(rows)[-1].reshape(out.shape)
        return len(coefs)
    bounds = rows[d:].tolist()
    every = repeat(slice(None))
    dst = zip(every, *(map(slice, bounds[i], bounds[d + i]) for i in range(d)))
    src = zip(every, *(map(slice, bounds[2 * d + i], bounds[3 * d + i])
                       for i in range(d)))
    if by_left:
        for c, to, frm in zip(coefs, dst, src):
            cells = out[to]
            cells += c * o[frm]
    else:
        # the left coefficient stays the first operand of the multiply
        for c, to, frm in zip(coefs, dst, src):
            cells = out[to]
            cells += o[frm] * c
    return len(coefs)


def _clean(values: np.ndarray, inside=None) -> np.ndarray:
    """Clean ``values`` in place and return the mask of the cells kept.
    Cleaning is ``0.0 + c``, which turns a -0.0 part into +0.0, and drops
    cells with |c| < ``DROP_THRESHOLD`` (exact zeros, underflows and NaN)
    and, given the mask ``inside``, the cells outside it.  The caller
    silences numpy's warnings.

    |c| is libm's ``hypot``.  numpy's complex ``abs`` is faster but may
    differ from it in the last bits, so it decides only the cells it puts
    clearly below or above the threshold; ``hypot`` decides the rest.
    :func:`sum_of_products` skips it where a bound on the operands shows
    that it would keep every cell as it is."""
    np.add(values, 0.0, out=values)
    mags = np.abs(values)
    keep = mags >= DROP_THRESHOLD
    unsure = ~((mags < 0.5 * DROP_THRESHOLD) | (mags > 2.0 * DROP_THRESHOLD))
    if unsure.any():
        keep[unsure] = np.hypot(values.real[unsure],
                                values.imag[unsure]) >= DROP_THRESHOLD
    if inside is not None:
        keep &= inside
    np.copyto(values, 0, where=~keep)
    return keep


def _finish(values: np.ndarray, lo, real: bool,
            radius: int | None = None) -> DenseBlock:
    """Clean ``values`` in place (see :func:`_clean`), zero the cells
    beyond ``radius``, and cut the box to the nonzero cells."""
    inside = None if radius is None else \
        _norm_grid(tuple(lo), values.shape[1:]) <= radius
    with np.errstate(all="ignore"):
        keep = _clean(values, inside)
    return _cut(values, lo, real, keep.any(axis=0))


def _cut(values: np.ndarray, lo, real: bool, cells=None) -> DenseBlock:
    """The block on ``values`` with its box cut to the ``cells`` (by
    default the cells nonzero in some series)."""
    d = values.ndim - 1
    if cells is None:
        cells = (values != 0).any(axis=0)
    if not cells.any():
        return DenseBlock.empty(d, values.shape[0], real)
    box = [slice(None)]
    new_lo = []
    for i in range(d):
        others = tuple(j for j in range(d) if j != i)
        used = np.flatnonzero(cells.any(axis=others) if others else cells)
        box.append(slice(used[0], used[-1] + 1))
        new_lo.append(lo[i] + int(used[0]))
    return DenseBlock(values[tuple(box)], new_lo, real)


def zero_series(dimension: int, real_valued: bool = True) -> FourierSeries:
    return FourierSeries(dimension, {}, real_valued=real_valued)


def delta(nu: Iterable[int], coefficient=1.0) -> FourierSeries:
    """Series with a single mode."""
    mode = integer_mode(nu)
    return FourierSeries(len(mode), {mode: complex(coefficient)})


def cosine(dimension: int, axis: int, amplitude: float = 1.0) -> FourierSeries:
    """cos(psi_axis) scaled by ``amplitude`` as a real series."""
    plus = tuple(1 if i == axis else 0 for i in range(dimension))
    minus = tuple(-x for x in plus)
    half = 0.5 * amplitude
    return FourierSeries(dimension, {plus: half, minus: half}, real_valued=True)
