import math

import numpy as np
import pytest

from qpresponse.errors import HypothesisError, SymmetryError
from qpresponse.fourier import FourierSeries, cosine
from qpresponse.systems import (
    AnalyticityEnvelope,
    GeneralSystem,
    SeparableSystem,
    certify_envelope,
    check_nonresonance,
    find_c0,
    recentre,
)

PHI = (1 + math.sqrt(5)) / 2


def nonlinear_taylor(sys):
    """The Taylor coefficients of g with powers p >= 2."""
    return {p: c for p, c in sorted(sys.averaged_taylor().items())
            if p >= 2 and c != 0.0}


def g_taylor(sys):
    """The Taylor coefficients of g = h_0 + f0 about the centre."""
    taylor = sys.averaged_taylor()
    taylor[0] = taylor.get(0, 0.0) + sys.f0
    return taylor


def g_value(sys, x):
    t = x - sys.center
    return float(sum(c * t**p for p, c in sorted(g_taylor(sys).items())))


def h_value(sys, x, psi):
    """h(x, psi) summed layer by layer from the grid."""
    t = x - sys.center
    total = 0j
    for p in sorted({q for (_, q) in sys.grid}):
        total += sys.alpha_series(p).evaluate(psi) * t**p
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise SymmetryError("h evaluated to a non-real value")
    return total.real


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


class TestFindC0:
    def test_identity_function(self):
        roots = find_c0({1: 1.0}, 0.0, (-1, 1))
        assert len(roots) == 1
        assert roots[0].c0 == pytest.approx(0.0, abs=1e-13)
        assert roots[0].slope == pytest.approx(1.0)
        assert roots[0].simple

    def test_quadratic_two_roots(self):
        # oracle: sign-change bisection on x^2 - 1 gives -1 and 1
        roots = find_c0({0: -1.0, 2: 1.0}, 0.0, (-2, 2))
        assert [r.simple for r in roots] == [True, True]
        assert roots[0].c0 == pytest.approx(-1.0, abs=1e-12)
        assert roots[0].slope == pytest.approx(-2.0, abs=1e-9)
        assert roots[1].c0 == pytest.approx(1.0, abs=1e-12)
        assert roots[1].slope == pytest.approx(2.0, abs=1e-9)

    def test_cubic_flags_non_simple(self):
        roots = find_c0({3: 1.0}, 0.0, (-1, 1))
        assert len(roots) == 1
        assert roots[0].c0 == pytest.approx(0.0, abs=1e-10)
        assert not roots[0].simple

    def test_no_sign_change_gives_empty(self):
        assert find_c0({0: 2.0, 2: 1.0}, 0.0, (-1, 1)) == []

    def test_residual_and_fd_slope(self):
        coeffs = {0: -0.3, 1: 0.7, 2: -0.2, 3: 1.1}
        roots = find_c0(coeffs, 0.25, (-3, 3))
        assert roots

        def g(x):
            return sum(c * x**p for p, c in coeffs.items())

        for r in roots:
            assert abs(g(r.c0) - 0.25) <= 1e-13
            h = 1e-6
            fd = (g(r.c0 + h) - g(r.c0 - h)) / (2 * h)
            assert r.slope == pytest.approx(fd, abs=1e-6)


class TestRecentre:
    def test_identity(self):
        sys = SeparableSystem((1.0, PHI), golden_forcing().scaled(0.0), {1: 1.0})
        out = recentre(sys, 0.0)
        assert out.a == pytest.approx(1.0)
        assert nonlinear_taylor(out) == {}

    def test_already_centred_cubic(self):
        sys = SeparableSystem((1.0, PHI), golden_forcing().scaled(0.0),
                              {1: 1.0, 3: 1.0})
        out = recentre(sys, 0.0)
        assert out.a == pytest.approx(1.0)
        assert nonlinear_taylor(out) == {3: 1.0}

    def test_binomial_shift(self):
        # oracle: (x^2 - 1) about c0 = 1 is 2 t + t^2
        f = FourierSeries(1, {(0,): 0.0}, real_valued=True)
        sys = SeparableSystem((1.0,), f, {0: -1.0, 2: 1.0})
        out = recentre(sys, 1.0)
        assert out.a == pytest.approx(2.0)
        assert g_taylor(out)[2] == pytest.approx(1.0)
        assert g_taylor(out)[0] == pytest.approx(0.0, abs=1e-14)

    def test_round_trip_evaluation(self):
        rng = np.random.default_rng(13)
        coeffs = {p: float(c) for p, c in enumerate(rng.normal(size=5))}
        f0 = coeffs[0] + 0.37 + 0.37**2 * coeffs[2] + coeffs[1] * 0.37 \
            + coeffs[3] * 0.37**3 + coeffs[4] * 0.37**4
        # build a forcing whose average matches g at the new centre
        f = FourierSeries(1, {(0,): f0}, real_valued=True)
        base = dict(coeffs)
        base[1] = base.get(1, 0.0) + 1.0  # ensure a healthy slope
        f = FourierSeries(1, {(0,): sum(c * 0.37**p for p, c in base.items())},
                          real_valued=True)
        sys = SeparableSystem((1.0,), f, base)
        out = recentre(sys, 0.37)
        for x in np.linspace(-1.5, 1.5, 20):
            direct = sum(c * x**p for p, c in base.items())
            assert g_value(out, x) == pytest.approx(direct, abs=1e-12)

    def test_uncertified_hypothesis_raises(self):
        f = FourierSeries(1, {(0,): 0.0}, real_valued=True)
        sys = SeparableSystem((1.0,), f, {2: 1.0})
        with pytest.raises(HypothesisError):
            recentre(sys, 0.0)  # double zero
        with pytest.raises(HypothesisError):
            recentre(sys, 0.5)  # not a zero at all

    def test_general_grid_shift(self):
        omega = (1.0, PHI)
        grid = {((0, 0), 1): 1.0, ((0, 0), 2): 1.0, ((1, 0), 1): 0.5,
                ((-1, 0), 1): 0.5}
        sys = GeneralSystem(omega, grid)
        out = recentre(sys, 0.0)
        assert out.a == pytest.approx(1.0)
        assert out.grid[((0, 0), 2)] == pytest.approx(1.0)
        # shifting the same grid off-centre picks up constant layers
        sys_off = GeneralSystem(omega, grid, center=0.1)
        # h_0(x) = (x - 0.1) + (x - 0.1)^2 has a zero at x ~ 0.1
        out_off = recentre(sys_off, 0.1)
        assert out_off.a == pytest.approx(1.0)
        assert ((0, 0), 0) not in out_off.grid


class TestCertifyEnvelope:
    def test_flat_weight(self):
        sys = recentre(
            SeparableSystem((1.0, PHI), cosine(2, 0), {0: 0.0, 1: 1.0}), 0.0
        )
        env = certify_envelope(sys, xi=1e-12, rho=1.0)
        assert env.Phi == pytest.approx(1.0)

    def test_exponential_weight(self):
        sys = recentre(
            SeparableSystem((1.0, PHI), cosine(2, 0), {0: 0.0, 1: 1.0}), 0.0
        )
        env = certify_envelope(sys, xi=math.log(2.0), rho=1.0)
        assert env.Phi == pytest.approx(2.0)

    def test_gamma_max_over_powers(self):
        sys = recentre(
            SeparableSystem((1.0, PHI), cosine(2, 0).scaled(0.0),
                            {1: 1.0, 3: 1.0}),
            0.0,
        )
        env = certify_envelope(sys, xi=0.5, rho=0.5)
        assert env.Gamma == pytest.approx(0.5)

    def test_decay_inequalities_hold(self):
        sys = recentre(
            SeparableSystem((1.0, PHI), golden_forcing(), {1: 1.0, 3: 1.0}), 0.0
        )
        env = certify_envelope(sys, xi=0.5, rho=0.5)
        forcing = [((0, 0), sys.f0)] + list(sys.range_forcing.items_sorted())
        for nu, c in forcing:
            assert abs(c) <= env.Phi * math.exp(-env.xi * sum(map(abs, nu)))
        for p, c in g_taylor(sys).items():
            if p >= 1:
                assert abs(c) <= env.Gamma * env.rho**-p

    def test_general_decay_inequalities(self):
        grid = {((0, 0), 1): 1.0, ((1, 0), 1): 0.5, ((-1, 0), 1): 0.5,
                ((0, 0), 2): 1.0, ((0, 1), 0): -0.15j, ((0, -1), 0): 0.15j}
        sys = recentre(GeneralSystem((1.0, PHI), grid), 0.0)
        env = certify_envelope(sys, xi=0.4, rho=0.5)
        for (nu, p), c in sys.grid.items():
            bound = env.Gamma * env.rho**-p * math.exp(-env.xi * sum(map(abs, nu)))
            assert abs(c) <= bound * (1 + 1e-12)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            AnalyticityEnvelope(xi=0.0, rho=1.0, Phi=1.0, Gamma=1.0)


class TestCheckNonresonance:
    def test_rational_relation_detected(self):
        # (1, 2) has omega . (2, -1) = 0; the l1 ball needs N >= 3 to see it
        report = check_nonresonance((1.0, 2.0), 3)
        assert report.resonant
        assert report.min_value == 0.0
        assert report.argmin == (2, -1)

    def test_rational_relation_outside_ball(self):
        report = check_nonresonance((1.0, 2.0), 2)
        assert not report.resonant
        assert report.min_value == pytest.approx(1.0)

    def test_golden_small_ball(self):
        report = check_nonresonance((1.0, PHI), 2)
        assert not report.resonant
        assert report.min_value == pytest.approx(PHI - 1.0, abs=1e-14)
        assert report.argmin in ((1, -1), (-1, 1))

    def test_one_dimensional(self):
        report = check_nonresonance((1.0,), 5)
        assert report.min_value == pytest.approx(1.0)
        assert report.argmin == (1,)


class TestGridReality:
    def test_sine_layer_is_real(self):
        grid = {((0, 1), 0): -0.15j, ((0, -1), 0): 0.15j, ((0, 0), 1): 1.0}
        GeneralSystem((1.0, PHI), grid)

    def test_asymmetric_grid_rejected(self):
        grid = {((0, 1), 0): -0.15j, ((0, 0), 1): 1.0}
        with pytest.raises(SymmetryError):
            GeneralSystem((1.0, PHI), grid)

    def test_forcing_and_alpha_layers(self):
        grid = {((0, 0), 1): 1.0, ((1, 0), 1): 0.5, ((-1, 0), 1): 0.5,
                ((0, 0), 2): 1.0, ((0, 1), 0): -0.15j, ((0, -1), 0): 0.15j}
        sys = GeneralSystem((1.0, PHI), grid, c0=0.0)
        assert sys.forcing_series.coeff((0, 1)) == pytest.approx(-0.15j)
        assert sys.alpha1_series.support() == [(-1, 0), (1, 0)]
        assert sys.alpha_series(2).support() == [(0, 0)]
        assert sys.nonlinear_powers() == [2]
        # the p = 0 layer -0.15i e^{i psi_2} + 0.15i e^{-i psi_2} is 0.3 sin(psi_2)
        assert h_value(sys, 0.2, (0.3, 0.9)) == pytest.approx(
            (1 + math.cos(0.3)) * 0.2 + 0.2**2 + 0.3 * math.sin(0.9),
            abs=1e-12,
        )


# -- the shared entry check of both constructors -------------------------------

OMEGAS = {1: (1.0,), 2: (1.0, PHI), 3: (1.0, math.sqrt(2.0), math.sqrt(3.0))}


class TestEntryCheck:
    @pytest.mark.parametrize("power", [-1, 1.5])
    def test_separable_refuses_a_power_that_is_not_a_natural(self, power):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            SeparableSystem((1.0, PHI), golden_forcing(), {power: 2.0, 1: 1.0})

    @pytest.mark.parametrize("power", [-1, 1.5])
    def test_general_refuses_a_power_that_is_not_a_natural(self, power):
        grid = {((0, 0), 1): 1.0, ((0, 0), power): 2.0}
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            GeneralSystem((1.0, PHI), grid)

    def test_both_refuse_a_mode_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="has wrong length"):
            SeparableSystem((1.0, PHI, 2.0), golden_forcing(), {1: 1.0})
        with pytest.raises(ValueError, match="has wrong length"):
            GeneralSystem((1.0, PHI), {((0, 0), 1): 1.0, ((1,), 0): 0.5})

    def test_general_refuses_a_mode_that_is_not_an_integer(self):
        grid = {((0, 0), 1): 1.0, ((1.5, 0), 0): 0.2, ((-1.5, 0), 0): 0.2}
        with pytest.raises(ValueError, match="non-integer entries"):
            GeneralSystem((1.0, 1.618), grid)

    def test_repeated_powers_are_summed_in_input_order(self):
        pairs = [(1, 1.0), (3, 0.25), (2, 0.0), (3, 0.25)]
        sys = SeparableSystem((1.0, PHI), golden_forcing(), pairs)
        assert sys.grid == SeparableSystem(
            (1.0, PHI), golden_forcing(), {1: 1.0, 3: 0.5}).grid
        assert sys.averaged_taylor() == {1: 1.0, 3: 0.5}
        # a general grid given as pairs, a mode as a list among them
        pairs = [(((0, 0), 1), 1.0), (([0, 0], 3), 0.25),
                 (((0, 0), 2), 0.0), (((0, 0), 3), 0.25)]
        assert GeneralSystem((1.0, PHI), pairs).grid == GeneralSystem(
            (1.0, PHI), {((0, 0), 1): 1.0, ((0, 0), 3): 0.5}).grid

    def test_the_forcing_average_and_g0_share_one_entry(self):
        f = golden_forcing().add(FourierSeries(2, {(0, 0): 0.3}))
        sys = SeparableSystem((1.0, PHI), f, {0: 0.3, 1: 1.0})
        assert ((0, 0), 0) not in sys.grid
        assert sys.f0 == 0.3
        assert SeparableSystem((1.0, PHI), f, {1: 1.0}).grid[((0, 0), 0)] == -0.3

    def test_exact_zeros_are_dropped(self):
        grid = {((0, 0), 1): 1.0, ((0, 0), 2): 0.0, ((1, 0), 0): 0j,
                ((-1, 0), 0): 0.0}
        assert GeneralSystem((1.0, PHI), grid).grid == {((0, 0), 1): 1.0}

    def test_each_input_keeps_its_own_reality_rule(self):
        # the forcing is checked relative to its coefficient, the grid
        # absolutely
        big = FourierSeries(1, {(1,): 100.0, (-1,): 100.0 + 5e-13j})
        SeparableSystem((1.0,), big, {1: 1.0})
        with pytest.raises(SymmetryError):
            GeneralSystem((1.0,), {((0,), 1): 1.0, ((1,), 0): 100.0,
                                   ((-1,), 0): 100.0 + 5e-13j})

    def test_a_general_system_has_no_forcing_average(self):
        grid = {((0, 0), 0): 0.4, ((0, 0), 1): 1.0}
        assert GeneralSystem((1.0, PHI), grid).f0 == 0.0


def real_forcing(rng, d, average):
    """A conjugate-symmetric forcing on a few modes of |nu| <= 3, plus a
    real average."""
    table = {(0,) * d: average}
    for _ in range(4):
        nu = tuple(int(x) for x in rng.integers(-1, 2, size=d))
        if any(nu):
            c = complex(*rng.normal(scale=0.3, size=2))
            table[nu] = c
            table[tuple(-x for x in nu)] = c.conjugate()
    return FourierSeries(d, table, real_valued=True)


class TestEnvelopeForcingMajorant:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("average", [0.0, 0.3])
    def test_theorem1_phi_is_the_forcing_norm(self, d, average):
        # the cli's path: the simple zero of h_0 = g - f0, recentred
        forcing = real_forcing(np.random.default_rng([d, 9]), d, average)
        raw = SeparableSystem(OMEGAS[d], forcing, {1: 1.0, 2: 0.4, 3: 0.5},
                              center=0.1)
        (root,) = find_c0(raw.averaged_taylor(), 0.0, (-2.0, 2.0),
                          center=raw.center)
        sys = recentre(raw, root.c0)
        assert sys.f0 == average
        for xi in (0.25, 0.5, 2.0):
            env = certify_envelope(sys, xi=xi, rho=0.5)
            assert env.Phi.hex() == forcing.weighted_norm(xi).hex()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_theorem2_phi_is_the_forcing_layer_norm(self, d):
        rng = np.random.default_rng([d, 10])
        grid = {((0,) * d, 1): 1.0, ((0,) * d, 2): 0.5}
        for nu, c in real_forcing(rng, d, 0.0).items_sorted():
            grid[(nu, 0)] = c
        for nu, c in real_forcing(rng, d, 0.0).items_sorted():
            grid[(nu, 1)] = 0.5 * c
        sys = recentre(GeneralSystem(OMEGAS[d], grid), 0.0)
        for xi in (0.25, 0.5, 2.0):
            env = certify_envelope(sys, xi=xi, rho=0.5)
            assert env.Phi.hex() == sys.forcing_series.weighted_norm(xi).hex()
