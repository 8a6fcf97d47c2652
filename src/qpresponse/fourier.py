"""Exact-support arithmetic on truncated multi-dimensional Fourier series.

A series is a finite map from integer mode vectors ``nu`` (tuples of length
``d``) to complex coefficients; absent modes are zero.  All mode norms are
l1 throughout the package (truncation balls, decay weights, small-divisor
balls), and every coefficient accumulation runs in lexicographic mode order
so results are bit-reproducible run to run.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, SymmetryError

MultiIndex = tuple[int, ...]

# Coefficients with |c| below this are dropped after an operation; the default
# only removes exact zeros (cancellations and untouched box cells).
DROP_THRESHOLD = 1e-300

# Above this dense-box cell count, convolution falls back to dict accumulation.
_DENSE_CELL_LIMIT = 4_000_000

_REALITY_TOL = 1e-14


def mode_norm(nu) -> int:
    """l1 norm of a mode vector."""
    return int(sum(abs(int(x)) for x in nu))


def _norm(nu: MultiIndex) -> int:
    """l1 norm of a mode already held as a tuple of ints."""
    return sum(map(abs, nu))


def _clean(table: dict) -> dict:
    """The coefficient rule of the public constructor without its mode
    checks: values become complex, exact zeros are dropped and ``0j + c``
    turns a -0.0 part into +0.0."""
    return {nu: 0j + c for nu, c in table.items() if abs(c) >= DROP_THRESHOLD}


def _as_mode(nu, d) -> MultiIndex:
    mode = tuple(int(x) for x in nu)
    if len(mode) != d:
        raise DimensionMismatchError(f"mode {nu!r} has length {len(mode)}, expected {d}")
    if any(x != y for x, y in zip(mode, nu)):
        raise ValueError(f"mode {nu!r} has non-integer entries")
    return mode


class FourierSeries:
    """Finitely supported Fourier series on the d-torus.

    Parameters
    ----------
    dimension : int
        Number of angles d >= 1.
    coeffs : mapping or iterable of (mode, coefficient) pairs
        Finite support; modes are integer tuples of length ``dimension``.
    real_valued : bool
        Declares conjugate symmetry ``coeff(-nu) == conj(coeff(nu))``; the
        symmetry is validated (to 1e-14) at construction and the flag is
        preserved by convolve/power/truncate.

    Instances are treated as immutable values: every operation returns a new
    series.  Input is validated here, at the boundary; series built by the
    package's own operations skip the per-mode checks.
    """

    __slots__ = ("dimension", "_coeffs", "real_valued", "_sorted")

    def __init__(self, dimension: int, coeffs=(), real_valued: bool = False):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = int(dimension)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: dict[MultiIndex, complex] = {}
        for nu, c in items:
            mode = _as_mode(nu, self.dimension)
            c = complex(c)
            if abs(c) >= DROP_THRESHOLD:
                table[mode] = table.get(mode, 0j) + c
        self._coeffs = table
        self.real_valued = bool(real_valued)
        self._sorted = None
        if self.real_valued:
            self._check_reality()

    @classmethod
    def _from_table(cls, dimension: int, table: dict,
                    real_valued: bool) -> "FourierSeries":
        """Wrap a table the package built itself: int-tuple keys of length
        ``dimension`` and complex values with no exact zeros and no -0.0
        parts (see :func:`_clean`).  Derived series propagate the
        real-valued flag without re-checking the symmetry; the property
        tests assert it for operation outputs instead."""
        series = object.__new__(cls)
        series.dimension = dimension
        series._coeffs = table
        series.real_valued = real_valued
        series._sorted = None
        return series

    # -- basics ---------------------------------------------------------

    def _check_reality(self):
        for nu, c in self._coeffs.items():
            neg = tuple(-x for x in nu)
            mirror = self._coeffs.get(neg, 0j)
            if abs(mirror - c.conjugate()) > _REALITY_TOL * max(1.0, abs(c)):
                raise SymmetryError(
                    f"coefficient at {nu} breaks conjugate symmetry: "
                    f"{c!r} vs {mirror!r} at {neg}"
                )

    def support(self) -> list[MultiIndex]:
        """Stored modes in lexicographic order."""
        if self._sorted is None:
            self._sorted = sorted(self._coeffs)
        return list(self._sorted)

    def items_sorted(self):
        if self._sorted is None:
            self._sorted = sorted(self._coeffs)
        for nu in self._sorted:
            yield nu, self._coeffs[nu]

    def coeff(self, nu) -> complex:
        return self._coeffs.get(_as_mode(nu, self.dimension), 0j)

    def zero_mode(self) -> complex:
        """Coefficient of the constant mode (0, ..., 0); zero if absent."""
        return self._coeffs.get((0,) * self.dimension, 0j)

    def max_norm(self) -> int:
        """Largest l1 mode norm in the support (0 for the empty series)."""
        return max(map(_norm, self._coeffs), default=0)

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        return f"FourierSeries(d={self.dimension}, modes={len(self._coeffs)})"

    # -- algebra ---------------------------------------------------------

    def _require_same_dim(self, other: "FourierSeries"):
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def add(self, other: "FourierSeries") -> "FourierSeries":
        """Mode-wise sum."""
        self._require_same_dim(other)
        out = dict(self._coeffs)
        for nu in sorted(other._coeffs):
            out[nu] = out.get(nu, 0j) + other._coeffs[nu]
        return FourierSeries._from_table(
            self.dimension, _clean(out), self.real_valued and other.real_valued
        )

    def __add__(self, other):
        return self.add(other)

    def scaled(self, factor) -> "FourierSeries":
        """Series with every coefficient multiplied by ``factor``."""
        factor = complex(factor)
        real = self.real_valued and abs(factor.imag) == 0.0
        return FourierSeries._from_table(
            self.dimension,
            _clean({nu: factor * c for nu, c in self._coeffs.items()}),
            real,
        )

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
        real = self.real_valued and other.real_valued
        d = self.dimension
        if radius is not None and radius < 0:
            raise ValueError("radius must be >= 0")
        a_keys = self.support()
        b_keys = other.support()
        if radius is not None and b_keys:
            # a left mode farther out than this meets a kept mode only
            # through cells outside the right factor's support
            reach = radius + other.max_norm()
            a_keys = [nu for nu in a_keys if _norm(nu) <= reach]
        if not a_keys or not b_keys:
            return FourierSeries._from_table(d, {}, real)

        a_lo = [min(axis) for axis in zip(*a_keys)]
        a_hi = [max(axis) for axis in zip(*a_keys)]
        b_lo = [min(axis) for axis in zip(*b_keys)]
        b_hi = [max(axis) for axis in zip(*b_keys)]
        lo = [a_lo[i] + b_lo[i] for i in range(d)]
        hi = [a_hi[i] + b_hi[i] for i in range(d)]
        if radius is not None:
            lo = [max(x, -radius) for x in lo]
            hi = [min(x, radius) for x in hi]
            if any(lo[i] > hi[i] for i in range(d)):
                return FourierSeries._from_table(d, {}, real)
        shape = tuple(hi[i] - lo[i] + 1 for i in range(d))
        b_vals = np.array([other._coeffs[nu] for nu in b_keys], dtype=complex)

        if math.prod(shape) <= _DENSE_CELL_LIMIT:
            b_shape = tuple(b_hi[i] - b_lo[i] + 1 for i in range(d))
            b_arr = np.zeros(b_shape, dtype=complex)
            b_arr[tuple(np.array(b_keys).T - np.array(b_lo)[:, None])] = b_vals
            out = np.zeros(shape, dtype=complex)
            for nu in a_keys:
                # the part of nu + (b's box) that lies in the output box
                dst, src = [], []
                for i in range(d):
                    first = max(lo[i], nu[i] + b_lo[i])
                    last = min(hi[i], nu[i] + b_hi[i])
                    if first > last:
                        break
                    dst.append(slice(first - lo[i], last - lo[i] + 1))
                    src.append(slice(first - nu[i] - b_lo[i],
                                     last - nu[i] - b_lo[i] + 1))
                else:
                    out[tuple(dst)] += self._coeffs[nu] * b_arr[tuple(src)]
            keep = np.abs(out) >= DROP_THRESHOLD
            if radius is not None:
                norms = sum(np.abs(np.arange(lo[i], hi[i] + 1)).reshape(
                    [-1 if j == i else 1 for j in range(d)]) for i in range(d))
                keep &= norms <= radius
            idx = np.nonzero(keep)
            keys = zip(*((idx[i] + lo[i]).tolist() for i in range(d)))
            table = dict(zip(keys, out[idx].tolist()))
        else:
            # products through numpy, as on the dense path, so both paths
            # give bitwise equal coefficients
            table: dict[MultiIndex, complex] = {}
            for nu1 in a_keys:
                for nu2, term in zip(b_keys, (self._coeffs[nu1] * b_vals).tolist()):
                    key = tuple(nu1[i] + nu2[i] for i in range(d))
                    table[key] = table.get(key, 0j) + term
            table = {k: v for k, v in table.items() if abs(v) >= DROP_THRESHOLD
                     and (radius is None or _norm(k) <= radius)}
        return FourierSeries._from_table(d, table, real)

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
        kept = {nu: c for nu, c in self._coeffs.items() if _norm(nu) <= cutoff}
        return FourierSeries._from_table(self.dimension, kept, self.real_valued)

    def without_zero_mode(self) -> "FourierSeries":
        kept = {nu: c for nu, c in self._coeffs.items() if any(nu)}
        return FourierSeries._from_table(self.dimension, kept, self.real_valued)

    # -- analysis ---------------------------------------------------------

    def evaluate(self, psi) -> complex:
        """Sum of coeff(nu) * exp(i nu . psi), in lexicographic nu order."""
        if len(psi) != self.dimension:
            raise DimensionMismatchError(
                f"angle vector has length {len(psi)}, expected {self.dimension}"
            )
        total = 0j
        for nu, c in self.items_sorted():
            phase = 0.0
            for x, p in zip(nu, psi):
                phase += x * p
            total += c * cmath.exp(1j * phase)
        return total

    def evaluate_many(self, angles) -> np.ndarray:
        """Vectorised :meth:`evaluate` over rows of ``angles`` (m, d).

        Matches the scalar path up to floating-point reassociation.
        """
        angles = np.atleast_2d(np.asarray(angles, dtype=float))
        if angles.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"angle rows have length {angles.shape[1]}, expected {self.dimension}"
            )
        if not self._coeffs:
            return np.zeros(angles.shape[0], dtype=complex)
        keys = np.array(self.support(), dtype=float)
        vals = np.array([self._coeffs[nu] for nu in self.support()])
        # real matmul for the phases, exp in place: bitwise equal to
        # exp((1j * angles) @ keys.T) without the complex matmul
        z = 1j * (angles @ keys.T)
        np.exp(z, out=z)
        return z @ vals

    def weighted_norm(self, xi_prime: float = 0.0) -> float:
        """Majorant sum_nu |coeff(nu)| exp(xi' |nu|) of the sup on a strip."""
        if xi_prime < 0:
            raise ValueError("strip half-width must be >= 0")
        total = 0.0
        for nu, c in self.items_sorted():
            total += abs(c) * math.exp(xi_prime * _norm(nu))
        return total

    def time_derivative(self, omega) -> "FourierSeries":
        """Derivative of t -> series(omega t): multiply each mode by i omega . nu."""
        if len(omega) != self.dimension:
            raise DimensionMismatchError("omega length does not match dimension")
        out = {}
        for nu, c in self._coeffs.items():
            s = 0.0
            for x, w in zip(nu, omega):
                s += x * w
            out[nu] = 1j * s * c
        return FourierSeries._from_table(self.dimension, _clean(out),
                                         self.real_valued)

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


def zero_series(dimension: int, real_valued: bool = True) -> FourierSeries:
    return FourierSeries(dimension, {}, real_valued=real_valued)


def unit_series(dimension: int) -> FourierSeries:
    """Multiplicative identity: the constant 1."""
    return FourierSeries(dimension, {(0,) * dimension: 1.0}, real_valued=True)


def delta(nu: Iterable[int], coefficient=1.0) -> FourierSeries:
    """Series with a single mode."""
    mode = tuple(int(x) for x in nu)
    return FourierSeries(len(mode), {mode: complex(coefficient)})


def cosine(dimension: int, axis: int, amplitude: float = 1.0) -> FourierSeries:
    """cos(psi_axis) scaled by ``amplitude`` as a real series."""
    plus = tuple(1 if i == axis else 0 for i in range(dimension))
    minus = tuple(-x for x in plus)
    half = 0.5 * amplitude
    return FourierSeries(dimension, {plus: half, minus: half}, real_valued=True)


def sine(dimension: int, axis: int, amplitude: float = 1.0) -> FourierSeries:
    """sin(psi_axis) scaled by ``amplitude`` as a real series."""
    plus = tuple(1 if i == axis else 0 for i in range(dimension))
    minus = tuple(-x for x in plus)
    half = 0.5 * amplitude
    return FourierSeries(
        dimension, {plus: -1j * half, minus: 1j * half}, real_valued=True
    )
