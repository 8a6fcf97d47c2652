import json
import math

import numpy as np
import pytest

from qpresponse.errors import DimensionMismatchError, SymmetryError
from qpresponse.fourier import (
    FourierSeries,
    cosine,
    delta,
    mode_norm,
    zero_series,
)


def unit_series(dimension):
    """Multiplicative identity: the constant 1."""
    return FourierSeries(dimension, {(0,) * dimension: 1.0}, real_valued=True)


def sine(dimension, axis, amplitude=1.0):
    """sin(psi_axis) scaled by ``amplitude`` as a real series."""
    plus = tuple(1 if i == axis else 0 for i in range(dimension))
    minus = tuple(-x for x in plus)
    half = 0.5 * amplitude
    return FourierSeries(
        dimension, {plus: -1j * half, minus: 1j * half}, real_valued=True
    )


def random_series(rng, d=2, n_modes=6, span=3, real=False):
    coeffs = {}
    for _ in range(n_modes):
        nu = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        c = complex(rng.normal(), rng.normal())
        coeffs[nu] = coeffs.get(nu, 0j) + c
    if real:
        sym = {}
        for nu, c in coeffs.items():
            neg = tuple(-x for x in nu)
            sym[nu] = sym.get(nu, 0j) + 0.5 * c
            sym[neg] = sym.get(neg, 0j) + 0.5 * c.conjugate()
        return FourierSeries(d, sym, real_valued=True)
    return FourierSeries(d, coeffs)


def max_coeff_diff(a, b):
    modes = set(a.support()) | set(b.support())
    return max((abs(a.coeff(nu) - b.coeff(nu)) for nu in modes), default=0.0)


class TestEvaluate:
    def test_empty_series_is_zero(self):
        assert zero_series(2).evaluate([0.3, -1.2]) == 0j

    def test_single_mode_at_origin(self):
        s = delta((1, 0))
        assert s.evaluate([0.0, 0.0]) == pytest.approx(1.0)

    def test_cosine_identity(self):
        s = cosine(2, axis=0)
        assert s.evaluate([math.pi / 3, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            delta((1, 0)).evaluate([0.0])

    def test_delta_refuses_a_mode_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="non-integer entries"):
            delta((1.5, 0))


class TestConvolve:
    def test_delta_times_delta(self):
        out = delta((1, 2), 3.0).convolve(delta((-2, 1), 0.5))
        assert out.support() == [(-1, 3)]
        assert out.coeff((-1, 3)) == pytest.approx(1.5)

    def test_unit_is_identity(self):
        rng = np.random.default_rng(7)
        s = random_series(rng)
        out = s.convolve(unit_series(2))
        assert max_coeff_diff(out, s) == 0.0

    def test_binomial_square(self):
        s = FourierSeries(1, {(1,): 1.0, (-1,): 1.0})
        sq = s.convolve(s)
        assert sq.coeff((2,)) == pytest.approx(1.0)
        assert sq.coeff((0,)) == pytest.approx(2.0)
        assert sq.coeff((-2,)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            delta((1, 0)).convolve(delta((1,)))


class TestPower:
    def test_delta_cubed(self):
        out = delta((1, -1), 2.0).power(3)
        assert out.support() == [(3, -3)]
        assert out.coeff((3, -3)) == pytest.approx(8.0)

    def test_square_equals_self_convolve(self):
        rng = np.random.default_rng(3)
        s = random_series(rng)
        assert max_coeff_diff(s.power(2), s.convolve(s)) == 0.0

    def test_power_one_is_identity(self):
        s = delta((2,))
        assert s.power(1) is s

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            delta((1,)).power(0)

    def test_power_of_empty_is_empty(self):
        assert len(zero_series(2).power(3)) == 0


class TestTruncate:
    def test_noop_when_within_cutoff(self):
        s = FourierSeries(1, {(3,): 1.0, (1,): 2.0})
        assert max_coeff_diff(s.truncate(3), s) == 0.0

    def test_drops_outer_modes(self):
        s = FourierSeries(1, {(3,): 1.0, (1,): 2.0})
        out = s.truncate(2)
        assert out.support() == [(1,)]
        assert out.coeff((1,)) == 2.0

    def test_empty(self):
        assert len(zero_series(2).truncate(4)) == 0


class TestWeightedNorm:
    def test_empty(self):
        assert zero_series(2).weighted_norm(1.0) == 0.0

    def test_single_mode_flat_weight(self):
        assert delta((2, -1), 3 + 4j).weighted_norm(0.0) == pytest.approx(5.0)

    def test_exponential_weight(self):
        s = delta((2,), 1.0)
        assert s.weighted_norm(0.5) == pytest.approx(math.e)


class TestZeroMode:
    def test_empty(self):
        assert zero_series(3).zero_mode() == 0j

    def test_present(self):
        s = FourierSeries(1, {(0,): 3.0})
        assert s.zero_mode() == pytest.approx(3.0)

    def test_absent(self):
        assert delta((1, 1), 5.0).zero_mode() == 0j


class TestAlgebraProperties:
    def test_commutative_and_associative(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_series(rng)
            b = random_series(rng)
            c = random_series(rng)
            ab = a.convolve(b)
            ba = b.convolve(a)
            scale = max(x.weighted_norm(0.0) for x in (ab, ba)) or 1.0
            assert max_coeff_diff(ab, ba) <= 1e-13 * scale
            left = ab.convolve(c)
            right = a.convolve(b.convolve(c))
            scale = max(x.weighted_norm(0.0) for x in (left, right)) or 1.0
            assert max_coeff_diff(left, right) <= 1e-13 * scale

    def test_real_flag_preserved(self):
        rng = np.random.default_rng(5)
        a = random_series(rng, real=True)
        b = random_series(rng, real=True)
        assert a.convolve(b).real_valued
        assert a.power(3).real_valued
        assert a.truncate(2).real_valued
        a.convolve(b)._check_reality()

    def test_weighted_norm_submultiplicative(self):
        rng = np.random.default_rng(23)
        for xi in (0.0, 0.3, 1.0):
            for _ in range(5):
                a = random_series(rng)
                b = random_series(rng)
                lhs = a.convolve(b).weighted_norm(xi)
                rhs = a.weighted_norm(xi) * b.weighted_norm(xi)
                assert lhs <= rhs * (1 + 1e-12)

    def test_evaluate_is_multiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = random_series(rng)
            b = random_series(rng)
            psi = rng.uniform(-math.pi, math.pi, size=2)
            lhs = a.convolve(b).evaluate(psi)
            rhs = a.evaluate(psi) * b.evaluate(psi)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(31)
        s = random_series(rng, n_modes=8)
        angles = rng.uniform(-3, 3, size=(7, 2))
        vec = s.evaluate_many(angles)
        for row, expected in zip(angles, vec):
            assert abs(s.evaluate(row) - expected) <= 1e-13


class TestRealityFlag:
    def test_violation_rejected(self):
        with pytest.raises(SymmetryError):
            FourierSeries(1, {(1,): 1.0 + 0j, (-1,): 0.5 + 0j}, real_valued=True)

    def test_sine_cosine_are_real(self):
        sine(2, 1, 0.3)._check_reality()
        cosine(2, 0)._check_reality()


class TestSerialization:
    def test_round_trip_and_sorted_modes(self):
        rng = np.random.default_rng(41)
        s = random_series(rng, n_modes=9)
        blob = json.dumps(s.to_json_dict())
        back = FourierSeries.from_json_dict(json.loads(blob))
        assert max_coeff_diff(s, back) == 0.0
        modes = [tuple(m["nu"]) for m in s.to_json_dict()["modes"]]
        assert modes == sorted(modes)


def test_mode_norm():
    assert mode_norm((2, -3, 0)) == 5


def test_time_derivative():
    s = FourierSeries(2, {(1, 0): 2.0, (-1, 0): 2.0}, real_valued=True)
    ds = s.time_derivative((1.5, 0.7))
    assert ds.coeff((1, 0)) == pytest.approx(1j * 1.5 * 2.0)
    assert ds.real_valued
