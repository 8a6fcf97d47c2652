import math
import statistics

import numpy as np
import pytest

from qpresponse.fourier import FourierSeries, cosine, mode_norm
from qpresponse.ladder import (
    Propagator,
    _median,
    assemble,
    build_ladder,
    convergence_ratio,
    first_order,
    next_order_thm1,
    next_order_thm2,
    nonlinearity_series,
    propagator_denominator,
    range_residual,
)
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


def separable(g_taylor, omega=GOLDEN, forcing=None):
    if forcing is None:
        forcing = golden_forcing()
    return recentre(SeparableSystem(omega, forcing, g_taylor), 0.0)


def conv_brute(a: dict, b: dict) -> dict:
    out = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            key = tuple(x + y for x, y in zip(nu1, nu2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


class TestPropagatorDenominator:
    def test_zero_frequency(self):
        assert propagator_denominator(0.1, 0.0, 1.0) == pytest.approx(0.1)

    def test_dissipationless(self):
        assert propagator_denominator(0.0, 2.0, 1.0) == pytest.approx(2j)

    def test_exact_cancellation(self):
        assert propagator_denominator(0.1, 1.0, 1.0) == pytest.approx(1j)

    def test_lower_bound_random(self):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            a = rng.uniform(-3, 3)
            if abs(a) < 1e-3:
                continue
            eps = rng.uniform(-1, 1) / math.sqrt(2 * abs(a))
            s = rng.normal() * 3
            d = abs(propagator_denominator(eps, s, a))
            assert d >= max(abs(a * eps), abs(s)) * (1 - 1e-15)


class TestFirstOrder:
    def test_unit_divisor_cancellation(self):
        f = FourierSeries(1, {(1,): 1.0, (-1,): 1.0}, real_valued=True)
        sys = separable({1: 1.0}, omega=(1.0,), forcing=f)
        u1 = first_order(sys, 0.2, 0.0, 5)
        # D(eps, 1) = i when a = 1, so the coefficient is -i eps
        assert u1.coeff((1,)) == pytest.approx(-0.2j)

    def test_zero_forcing_keeps_zeta(self):
        sys = separable({1: 1.0}, forcing=golden_forcing().scaled(0.0))
        u1 = first_order(sys, 0.1, 0.3, 5)
        assert u1.support() == [(0, 0)]
        assert u1.zero_mode() == pytest.approx(0.3)

    def test_golden_two_mode_per_mode_formula(self):
        eps = 0.05
        sys = separable({1: 1.0, 3: 1.0})
        u1 = first_order(sys, eps, 0.01, 10)
        for nu, c in sys.range_forcing.items_sorted():
            s = nu[0] * 1.0 + nu[1] * PHI
            expected = eps * c / complex(eps * (1 - s * s), s)
            assert u1.coeff(nu) == pytest.approx(expected, abs=1e-16)
        assert u1.zero_mode() == pytest.approx(0.01)


class TestNextOrderThm1:
    def test_second_order_is_structurally_zero(self):
        sys = separable({1: 1.0, 2: 0.7})
        ladder = build_ladder(sys, 0.05, 0.1, 3, 8)
        assert len(ladder.order(2)) == 0
        rebuilt = next_order_thm1(sys, ladder, 2)
        assert len(rebuilt) == 0

    def test_third_order_quadratic_against_brute_force(self):
        eps, zeta, N = 0.04, 0.05, 8
        sys = separable({1: 1.0, 2: 1.0})
        ladder = build_ladder(sys, eps, zeta, 3, N)
        u1 = dict(ladder.order(1).items_sorted())
        square = conv_brute(u1, u1)
        u3 = ladder.order(3)
        for nu, c in square.items():
            if not any(nu) or mode_norm(nu) > N:
                continue
            s = nu[0] + nu[1] * PHI
            expected = -eps * c / complex(eps * (1 - s * s), s)
            assert u3.coeff(nu) == pytest.approx(expected, abs=1e-15)
        assert u3.zero_mode() == 0j

    def test_linear_system_has_no_higher_orders(self):
        sys = separable({1: 1.0})
        ladder = build_ladder(sys, 0.1, 0.2, 6, 8)
        for k in range(2, 7):
            assert len(ladder.order(k)) == 0

    def test_requires_separable(self):
        grid = {((0, 0), 1): 1.0, ((0, 0), 2): 1.0}
        gsys = recentre(GeneralSystem(GOLDEN, grid), 0.0)
        ladder = build_ladder(gsys, 0.05, 0.0, 2, 6)
        with pytest.raises(TypeError):
            next_order_thm1(gsys, ladder, 2)


class TestNextOrderThm2:
    def grid_system(self):
        grid = {
            ((0, 0), 1): 1.0,
            ((1, 0), 1): 0.5,
            ((-1, 0), 1): 0.5,
            ((0, 0), 2): 1.0,
            ((0, 1), 0): -0.15j,
            ((0, -1), 0): 0.15j,
        }
        return recentre(GeneralSystem(GOLDEN, grid), 0.0)

    def test_separable_grid_matches_thm1(self):
        eps, zeta, K, N = 0.04, 0.03, 6, 8
        taylor = {1: 1.0, 2: 0.6, 3: -0.4}
        sys1 = separable(dict(taylor))
        grid = {((0, 0), p): c for p, c in taylor.items()}
        for nu, c in golden_forcing().items_sorted():
            grid[(nu, 0)] = -c  # h = g - f
        sys2 = recentre(GeneralSystem(GOLDEN, grid), 0.0)
        lad1 = build_ladder(sys1, eps, zeta, K, N)
        lad2 = build_ladder(sys2, eps, zeta, K, N)
        for k in range(1, K + 1):
            o1, o2 = lad1.order(k), lad2.order(k)
            modes = set(o1.support()) | set(o2.support())
            for nu in modes:
                assert abs(o1.coeff(nu) - o2.coeff(nu)) <= 1e-14

    def test_second_order_nonzero_with_angle_coupling(self):
        # At k = 2 only the linear angle coupling contributes: the power
        # sums need k_1 + ... + k_p = 1 with p >= 2 parts, which is empty.
        eps, zeta, N = 0.03, 0.05, 6
        sys = self.grid_system()
        ladder = build_ladder(sys, eps, zeta, 3, N)
        u1 = dict(ladder.order(1).items_sorted())
        alpha1 = {(1, 0): 0.5, (-1, 0): 0.5}
        expected_src = conv_brute(alpha1, u1)
        u2 = ladder.order(2)
        assert len(u2) > 0
        for nu, c in expected_src.items():
            if not any(nu) or mode_norm(nu) > N:
                continue
            s = nu[0] + nu[1] * PHI
            expected = -eps * c / complex(eps * (1 - s * s), s)
            assert u2.coeff(nu) == pytest.approx(expected, abs=1e-15)

    def test_third_order_picks_up_the_quadratic_layer(self):
        eps, zeta, N = 0.03, 0.05, 6
        sys = self.grid_system()
        ladder = build_ladder(sys, eps, zeta, 3, N)
        u1 = dict(ladder.order(1).items_sorted())
        u2 = dict(ladder.order(2).items_sorted())
        alpha1 = {(1, 0): 0.5, (-1, 0): 0.5}
        expected_src = conv_brute(alpha1, u2)
        for nu, c in conv_brute({(0, 0): 1.0}, conv_brute(u1, u1)).items():
            expected_src[nu] = expected_src.get(nu, 0j) + c
        u3 = ladder.order(3)
        for nu, c in expected_src.items():
            if not any(nu) or mode_norm(nu) > N:
                continue
            s = nu[0] + nu[1] * PHI
            expected = -eps * c / complex(eps * (1 - s * s), s)
            assert u3.coeff(nu) == pytest.approx(expected, abs=1e-15)

    def test_zero_seed_stays_zero(self):
        grid = {((0, 0), 1): 1.0, ((0, 0), 2): 1.0,
                ((1, 0), 1): 0.5, ((-1, 0), 1): 0.5}
        sys = recentre(GeneralSystem(GOLDEN, grid), 0.0)
        ladder = build_ladder(sys, 0.05, 0.0, 5, 8)
        for k in range(1, 6):
            assert len(ladder.order(k)) == 0

    def test_requires_general(self):
        sys = separable({1: 1.0, 2: 1.0})
        ladder = build_ladder(sys, 0.05, 0.0, 2, 6)
        with pytest.raises(TypeError):
            next_order_thm2(sys, ladder, 2)

    def test_replay_matches_build(self):
        sys = self.grid_system()
        ladder = build_ladder(sys, 0.03, 0.02, 4, 8)
        for k in (2, 3, 4):
            redo = next_order_thm2(sys, ladder, k)
            ref = ladder.order(k)
            modes = set(redo.support()) | set(ref.support())
            for nu in modes:
                assert abs(redo.coeff(nu) - ref.coeff(nu)) == 0.0


class TestAssemble:
    def test_single_order(self):
        sys = separable({1: 1.0})
        ladder = build_ladder(sys, 0.1, 0.2, 1, 8)
        out = assemble(ladder, 1.0)
        assert out.support() == ladder.order(1).support()

    def test_mu_zero(self):
        sys = separable({1: 1.0, 3: 1.0})
        ladder = build_ladder(sys, 0.05, 0.1, 4, 8)
        assert len(assemble(ladder, 0.0)) == 0

    def test_linear_scales_with_mu(self):
        sys = separable({1: 1.0})
        ladder = build_ladder(sys, 0.1, 0.2, 5, 8)
        for mu in (0.3, 1.0):
            out = assemble(ladder, mu)
            for nu, c in ladder.order(1).items_sorted():
                assert out.coeff(nu) == pytest.approx(mu * c, abs=1e-16)

    def test_zero_mode_is_zeta_times_mu(self):
        sys = separable({1: 1.0, 2: 0.8, 3: 0.5})
        ladder = build_ladder(sys, 0.05, 0.07, 6, 10)
        for mu in (0.5, 1.0):
            assert assemble(ladder, mu).zero_mode() == pytest.approx(
                0.07 * mu, abs=1e-18
            )


class TestConvergenceRatio:
    def test_linear_gives_empty(self):
        sys = separable({1: 1.0})
        ladder = build_ladder(sys, 0.1, 0.0, 5, 8)
        ratios, estimate = convergence_ratio(ladder)
        assert ratios == []
        assert estimate == 0.0

    def test_cubic_contracts(self):
        sys = separable({1: 1.0, 3: 1.0})
        ladder = build_ladder(sys, 0.05, 0.0, 13, 14)
        ratios, estimate = convergence_ratio(ladder)
        assert ratios
        assert 0.0 < estimate < 1.0

    def test_epsilon_growth_probe(self):
        sys = separable({1: 1.0, 3: 1.0})
        estimates = []
        for eps in (0.05, 0.1, 0.2):
            ladder = build_ladder(sys, eps, 0.0, 13, 14)
            estimates.append(convergence_ratio(ladder)[1])
        # reported (not asserted as a theorem): larger eps, slower contraction
        print("ratio estimates over eps:", estimates)
        assert estimates[0] < 1.0


class TestLadderInvariants:
    def test_structural_zero_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            taylor = {1: 1.0 + rng.uniform(0.2, 1.0)}
            for p in (2, 3, 4):
                if rng.random() < 0.8:
                    taylor[p] = float(rng.normal())
            modes = set()
            while len(modes) < 2:
                nu = (int(rng.integers(1, 3)), int(rng.integers(-2, 3)))
                if any(nu):
                    modes.add(nu)
            coeffs = {}
            for nu in modes:
                c = complex(rng.normal(), rng.normal())
                coeffs[nu] = 0.5 * c
                coeffs[tuple(-x for x in nu)] = 0.5 * c.conjugate()
            forcing = FourierSeries(2, coeffs, real_valued=True)
            sys = separable(taylor, forcing=forcing)
            ladder = build_ladder(sys, float(rng.uniform(0.01, 0.1)),
                                  float(rng.normal() * 0.05), 2, 8)
            assert len(ladder.order(2)) == 0

    def test_reality_of_all_orders(self):
        sys = separable({1: 1.0, 2: 0.5, 3: 0.25})
        ladder = build_ladder(sys, 0.05, 0.04, 8, 10)
        for series in ladder.orders:
            assert series.real_valued
            for nu, c in series.items_sorted():
                neg = tuple(-x for x in nu)
                assert abs(series.coeff(neg) - c.conjugate()) <= 1e-14

    def test_truncation_ball(self):
        sys = separable({1: 1.0, 2: 1.0})
        ladder = build_ladder(sys, 0.05, 0.1, 6, 3)
        for series in ladder.orders:
            assert series.max_norm() <= 3

    def test_range_residual_small_when_contracting(self):
        eps, K, N = 0.05, 16, 14
        sys = separable({1: 1.0, 3: 1.0})
        ladder = build_ladder(sys, eps, 0.02, K, N)
        _, estimate = convergence_ratio(ladder)
        assert estimate < 0.5
        w = assemble(ladder, 1.0)
        residual = range_residual(sys, eps, w, N)
        assert residual <= 1e-10 * max(w.weighted_norm(0.0), 1e-30)


def test_propagator_object_floor():
    prop = Propagator(0.0, 1.0)
    with pytest.raises(Exception):
        prop(0.0)


def test_nonlinearity_series_zero_mode_quadratic():
    sys = separable({1: 1.0, 2: 1.0})
    ladder = build_ladder(sys, 0.05, 0.0, 6, 10)
    w = assemble(ladder, 1.0)
    nl = nonlinearity_series(sys, w)
    brute = conv_brute(dict(w.items_sorted()), dict(w.items_sorted()))
    assert nl.zero_mode() == pytest.approx(brute.get((0, 0), 0j), abs=1e-15)


def test_general_orders_are_conjugate_symmetric():
    grid = {
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.5,
        ((-1, 0), 1): 0.5,
        ((0, 0), 2): 1.0,
        ((0, 1), 0): -0.15j,
        ((0, -1), 0): 0.15j,
    }
    sys = recentre(GeneralSystem(GOLDEN, grid), 0.0)
    ladder = build_ladder(sys, 0.03, 0.02, 6, 10)
    for series in ladder.orders:
        assert series.real_valued
        for nu, c in series.items_sorted():
            neg = tuple(-x for x in nu)
            assert abs(series.coeff(neg) - c.conjugate()) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
def test_median_is_statistics_median(n):
    # bitwise, on odd and even lengths, ties, huge values and inf or NaN
    rng = np.random.default_rng([n, 44])
    specials = [math.inf, -math.inf, math.nan, 1.7976931348623157e308, 0.0,
                -0.0, 5e-324]
    for _ in range(200):
        values = (rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)).tolist()
        for i in np.flatnonzero(rng.random(n) < 0.3):
            values[i] = specials[rng.integers(len(specials))]
        if rng.random() < 0.2:
            values[-1] = values[0]
        got, want = _median(values), statistics.median(values)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want or (math.isnan(got) and math.isnan(want))
