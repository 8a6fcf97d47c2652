import math
import re

import pytest

from qpresponse.diophantine import (
    alpha_n,
    epsilon_n,
    estimate_epsilon_bar,
    min_small_divisor,
    profile,
    recheck_bounds,
)
from qpresponse.errors import GuardExceededError, ResonanceError
from qpresponse.systems import AnalyticityEnvelope

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)
# sum_{j<=4} 10^{-j!}; the last term is below double resolution
LIOUVILLE = (1.0, 1e-1 + 1e-2 + 1e-6 + 1e-24)
# same with a 0.1 offset (the robustness-test vector)
LIOUVILLE_OFFSET = (1.0, 0.1 + 1e-1 + 1e-2 + 1e-6 + 1e-24)


class TestAlphaN:
    def test_golden_n1(self):
        value, arg = alpha_n(GOLDEN, 1)
        assert value == pytest.approx(PHI - 1.0, abs=1e-14)
        assert arg == (1, -1)

    def test_golden_n2_ball_decides(self):
        # brute force over the radius-4 ball: (2, -1) wins at 2 - phi;
        # the better combination (-3, 2) has l1 norm 5 and is excluded
        value, arg = alpha_n(GOLDEN, 2)
        assert value == pytest.approx(2.0 - PHI, abs=1e-14)
        assert arg == (2, -1)

    def test_one_dimensional(self):
        for n in (0, 3):
            value, arg = alpha_n((1.0,), n)
            assert value == 1.0
            assert arg == (1,)

    def test_resonant_raises(self):
        with pytest.raises(ResonanceError):
            alpha_n((1.0, 2.0), 2)  # ball radius 4 contains (2, -1)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            alpha_n(GOLDEN, 13)  # 8192 > default d=2 guard
        with pytest.raises(GuardExceededError):
            alpha_n((1.0, PHI, math.sqrt(2)), 7)  # 128 > default d=3 guard

    def test_three_dimensional(self):
        value, arg = alpha_n((1.0, PHI, math.sqrt(2)), 2)
        # independent brute force
        import itertools

        best = min(
            abs(1.0 * a + PHI * b + math.sqrt(2) * c)
            for a, b, c in itertools.product(range(-4, 5), repeat=3)
            if (a, b, c) != (0, 0, 0) and abs(a) + abs(b) + abs(c) <= 4
        )
        assert value == pytest.approx(best, abs=1e-15)


class TestProfile:
    def test_golden_decays(self):
        prof = profile(GOLDEN, 8)
        assert prof.alpha == sorted(prof.alpha, reverse=True)
        assert prof.eps[8] < prof.eps[2]
        # partial sums visibly converging: late increments much smaller
        inc_late = prof.bryuno_partial[8] - prof.bryuno_partial[7]
        inc_early = prof.bryuno_partial[2] - prof.bryuno_partial[1]
        assert inc_late < 0.2 * inc_early
        assert prof.classification == "diophantine-like"

    def test_liouville_spikes(self):
        prof = profile(LIOUVILLE, 8)
        spikes = [n for n in range(len(prof.eps) - 1)
                  if prof.eps[n + 1] > prof.eps[n]]
        assert spikes, "expected a spike where a near-resonance enters the ball"
        # the 10^{-2!} layer enters at radius 16: alpha drops hard
        assert prof.alpha[4] == pytest.approx(0.009991, abs=1e-12)
        assert prof.classification == "liouville-suspect"

    @pytest.mark.parametrize("omega, n_max, label", [
        (GOLDEN, 8, "diophantine-like"),
        ((1.0, math.sqrt(2.0)), 8, "diophantine-like"),
        ((1.0, math.e), 8, "diophantine-like"),
        ((1.0, math.pi), 8, "diophantine-like"),
        ((1.0, math.sqrt(2.0), math.sqrt(3.0)), 6, "diophantine-like"),
        (LIOUVILLE, 8, "liouville-suspect"),
        (LIOUVILLE_OFFSET, 8, "liouville-suspect"),
    ], ids=["golden", "sqrt2", "e", "pi", "sqrt2-sqrt3", "liouville",
            "liouville-offset"])
    def test_classification_by_alpha_drop(self, omega, n_max, label):
        # a near-resonance makes alpha_{n+1}/alpha_n fall to 0.01; the
        # Diophantine vectors bottom out at 0.0625 ((1, pi), d = 2) and
        # 0.0714 ((1, sqrt 2, sqrt 3), d = 3), above a tenth of 2^-(d-1)
        prof = profile(omega, n_max)
        assert prof.classification == label
        drops = [prof.alpha[n + 1] / prof.alpha[n] for n in range(n_max)]
        floor = 0.1 * 2.0 ** (1 - len(omega))
        assert (min(drops) < floor) is (label == "liouville-suspect")

    def test_one_dimensional_degenerate(self):
        prof = profile((0.7,), 6)
        assert prof.n_max == 0
        assert len(prof.alpha) == 1
        assert prof.alpha[0] == pytest.approx(0.7)
        assert prof.eps[0] == pytest.approx(math.log(1 / 0.7))

    def test_r_table_consistency(self):
        prof = profile(GOLDEN, 5, N_list=(1, 2, 4, 8, 16, 32, 20))
        for n in range(6):
            assert prof.r_table[2**n] == prof.alpha[n]
        assert prof.r_table[20] <= prof.r_table[16]


class TestEpsilonBounds:
    def envelope(self):
        # matches the cubic acceptance system at xi = 0.5, rho = 0.5
        return AnalyticityEnvelope(xi=0.5, rho=0.5, Phi=2 * math.exp(0.5),
                                   Gamma=0.5)

    def test_irregular_frequency_needs_more_dissipation(self):
        env = self.envelope()
        b_gold = estimate_epsilon_bar(env, 1.0, GOLDEN)
        for omega in (LIOUVILLE, LIOUVILLE_OFFSET):
            b_liou = estimate_epsilon_bar(env, 1.0, omega)
            assert b_liou.n0 == b_gold.n0  # identical envelopes
            assert b_liou.eps_bar < b_gold.eps_bar

    def test_A_scaling_with_pinned_n0(self):
        env = self.envelope()
        b1 = estimate_epsilon_bar(env, 1.0, GOLDEN, A_fraction=0.4, n0=4)
        b2 = estimate_epsilon_bar(env, 1.0, GOLDEN, A_fraction=0.8, n0=4)
        assert b2.eps_bar / b1.eps_bar == pytest.approx(4.0, rel=1e-12)

    def test_C0_scaling_with_pinned_A_and_n0(self):
        env = self.envelope()
        doubled = AnalyticityEnvelope(xi=env.xi, rho=env.rho, Phi=2 * env.Phi,
                                      Gamma=2 * env.Gamma)
        A = 0.3 * min(
            estimate_epsilon_bar(env, 1.0, GOLDEN).C0,
            estimate_epsilon_bar(doubled, 1.0, GOLDEN).C0,
        )
        b1 = estimate_epsilon_bar(env, 1.0, GOLDEN, A=A, n0=4)
        b2 = estimate_epsilon_bar(doubled, 1.0, GOLDEN, A=A, n0=4)
        assert b2.C0 == pytest.approx(2 * b1.C0)
        assert b1.eps_bar / b2.eps_bar == pytest.approx(4.0, rel=1e-12)

    def test_recheck_theorem1(self):
        env = self.envelope()
        bounds = estimate_epsilon_bar(env, 1.0, GOLDEN, theorem=1)
        assert all(recheck_bounds(bounds, 1.0).values())

    def test_recheck_theorem2(self):
        env = AnalyticityEnvelope(xi=0.4, rho=0.5, Phi=0.5, Gamma=1.2)
        bounds = estimate_epsilon_bar(env, 1.0, GOLDEN, theorem=2)
        assert bounds.beta is not None
        assert all(recheck_bounds(bounds, 1.0).values())

    def test_guard_limited_flag(self):
        # a thin strip forces a huge n0; the guard caps the ball
        env = AnalyticityEnvelope(xi=1e-3, rho=0.5, Phi=1.0, Gamma=1.0)
        bounds = estimate_epsilon_bar(env, 1.0, GOLDEN, guard=64)
        assert bounds.guard_limited
        assert bounds.eps_bar > 0

    def test_monotone_alpha(self):
        prof = profile(GOLDEN, 9)
        for a, b in zip(prof.alpha, prof.alpha[1:]):
            assert b <= a


def test_min_small_divisor_matches_brute_force():
    import itertools

    omega = (0.83, 1.37)
    value, arg = min_small_divisor(omega, 6)
    best = min(
        (abs(omega[0] * a + omega[1] * b), (a, b))
        for a, b in itertools.product(range(-6, 7), repeat=2)
        if (a, b) != (0, 0) and abs(a) + abs(b) <= 6
    )
    assert value == pytest.approx(best[0], abs=1e-15)


def test_epsilon_n_formula():
    assert epsilon_n(0.25, 2) == pytest.approx(math.log(4.0) / 4.0)


def bisected_eps_bar(alpha, delta, a, A, C0):
    """The theorem-2 eps_bar as a halving, doubling and bisection search
    finds it: the reference for the direct computation."""
    margin_budget = (A / C0) ** 4 * (1.0 - 1e-12)
    zeta_bar = 0.5 * margin_budget

    def admissible(eps):
        b = max(delta, 2.0 * abs(eps * a) / alpha)
        worst = max(zeta_bar, delta / abs(a), eps / alpha, b)
        return worst <= margin_budget

    hi = alpha * margin_budget
    while not admissible(hi):
        hi *= 0.5
        if hi < 1e-300:
            raise ValueError("no admissible eps_bar found (envelope too tight)")
    lo = hi
    grow = hi * 2.0
    for _ in range(200):
        if admissible(grow):
            lo = grow
            grow *= 2.0
        else:
            break
    hi = grow
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_theorem2_eps_bar_is_the_bisection_limit():
    import numpy as np

    from qpresponse.diophantine import propagator_floor_constant

    rng = np.random.default_rng(2024)
    omegas = [GOLDEN, (1.0, math.sqrt(2.0)), (0.83, 1.37), (1.0,)]
    outcomes = {"value": 0, "error": 0}
    for _ in range(3000):
        omega = omegas[rng.integers(len(omegas))]
        env = AnalyticityEnvelope(
            xi=10 ** rng.uniform(-1.5, 0.5), rho=10 ** rng.uniform(-1, 0.5),
            Phi=10 ** rng.uniform(-1, 1), Gamma=10 ** rng.uniform(-1, 1))
        a = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2))
        A_fraction = rng.uniform(0.02, 0.98)
        n0 = int(rng.integers(0, 5))
        C0 = propagator_floor_constant(env, a, 2)
        alpha = min_small_divisor(omega, 2**n0)[0]
        delta = math.exp(-env.xi * 2**n0 / 4.0)
        try:
            want = bisected_eps_bar(alpha, delta, a, A_fraction * C0, C0)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                estimate_epsilon_bar(env, a, omega, A_fraction, theorem=2,
                                     n0=n0)
            outcomes["error"] += 1
            continue
        bounds = estimate_epsilon_bar(env, a, omega, A_fraction, theorem=2,
                                      n0=n0)
        assert (bounds.alpha_n0, bounds.delta, bounds.C0) == (alpha, delta, C0)
        assert bounds.eps_bar.hex() == want.hex()
        assert bounds.beta.hex() == \
            max(delta, 2.0 * abs(want * a) / alpha).hex()
        outcomes["value"] += 1
    assert min(outcomes.values()) > 300
