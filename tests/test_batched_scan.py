"""The batched zeta scan against per-zeta scalar evaluation.

``solve_zeta`` evaluates zeta = 0 and every scan point in one batched
ladder build on dense blocks, and the lockstep solves mix rows at
several eps in one build.  Each (eps, zeta) row of a batch must get, bit
for bit, what evaluating it alone through the full-support reference
recursion of ``test_fast_paths`` gives: the orders, their norms, the
ratios, the assembled sum and the balance, or the same exception.  The
scan must then read those outcomes in the order the sequential solve
reads them, so a point's error counts only once the scan reaches it.
"""

import math
import re
import warnings

import numpy as np
import pytest

from qpresponse.bifurcation import (
    H,
    _Evaluation,
    _lockstep,
    solve_response,
    solve_zeta,
)
from qpresponse.diophantine import estimate_epsilon_bar
from qpresponse.errors import (
    LadderDivergenceError,
    ResonanceError,
    SymmetryError,
)
from qpresponse.fourier import (
    DenseBlock,
    FourierSeries,
    cosine,
    mode_norm,
    zero_series,
)
from qpresponse.ladder import (
    OrderLadder,
    assemble,
    convergence_ratio,
    forcing_term,
    nonlinearity_series,
    propagator_denominator,
    range_residual,
)
from qpresponse.systems import (
    GeneralSystem,
    SeparableSystem,
    certify_envelope,
    recentre,
)

from test_fast_paths import (
    TAYLOR,
    bits,
    general_system,
    random_series,
    reference_ladder,
    reference_next,
    separable_system,
    spy_builds,
    unmemoized_solve_zeta,
)

PHI = (1 + math.sqrt(5)) / 2


def powers(sys):
    if sys.theorem == 2:
        return sys.nonlinear_powers()
    return sorted(p for p, c in sys.averaged_taylor().items() if p >= 2 and c)


def real_part(value, what):
    if abs(value.imag) > 1e-12:
        raise SymmetryError(
            f"{what} has imaginary part {value.imag:.3e} beyond tolerance")
    return value.real


def reference_balance(sys, w):
    """The zero-mode balance with every power of ``w`` at full support."""
    zeta = real_part(w.zero_mode(), "the assembled zero mode")
    total = zero_series(sys.dimension)
    if sys.theorem == 2:
        total = total.add(sys.forcing_series)
        if len(sys.alpha1_series) and len(w):
            total = total.add(sys.alpha1_series.convolve(w))
        for p in powers(sys):
            total = total.add(sys.alpha_series(p).convolve(w.power(p)))
    else:
        for p in powers(sys):
            total = total.add(w.power(p).scaled(sys.averaged_taylor()[p]))
    return sys.a * zeta + real_part(total.zero_mode(), "the zero-mode balance")


def reference_h(sys, eps, zeta, K, N):
    """One zeta alone: (ladder, ratios, estimate, w, balance), or the
    exception the scalar evaluation raises."""
    try:
        orders = reference_ladder(sys, eps, zeta, 1, N)
        for k in range(2, K + 1):
            u = reference_next(sys, eps, orders, N)
            if u.weighted_norm(0.0) > 1e12:
                raise LadderDivergenceError(
                    f"order {k} norm exceeded 1e+12: expansion is blowing up")
            orders.append(u)
        ladder = OrderLadder(orders=orders, zeta=zeta, eps=eps, N=N,
                             norms=[s.weighted_norm(0.0) for s in orders])
        ratios, estimate = convergence_ratio(ladder)
        if not np.isfinite(estimate) or estimate >= 1.0:
            raise LadderDivergenceError(
                f"expansion does not contract at eps={eps!r}, zeta={zeta!r} "
                f"(ratio estimate {estimate:.3g})")
        w = assemble(ladder, 1.0)
        return ladder, ratios, estimate, w, reference_balance(sys, w)
    except (LadderDivergenceError, ResonanceError, SymmetryError) as exc:
        return exc


def hexes(values):
    return [float(v).hex() for v in values]


def assert_failed_rows_are_zero(evaluation):
    """Every row of ``evaluation`` keeps its position in the batch, and a
    row whose ladder failed is the zero series in each stored order, each
    norm and the assembled sum."""
    exp, batch = evaluation.expansion, len(evaluation.outcomes)
    blocks = exp.orders + [evaluation.w]
    assert all(block.batch == batch for block in blocks)
    for pos, error in exp.errors.items():
        assert evaluation.outcomes[pos] is error
        assert pos not in evaluation.ratios
        assert not any(block.values[pos].any() for block in blocks)
        assert not any(n[pos] for n in exp.norms)


def assert_batch_matches_alone(sys, eps, zetas, K, N):
    """Every (eps, zeta) row of the batch against its own reference
    evaluation; ``eps`` is one value for all rows or one per row.  Returns
    the reference outcomes."""
    eps_rows = list(eps) if isinstance(eps, list) else [eps] * len(zetas)
    batch = _Evaluation(sys, eps, zetas, K, N)
    expected = [reference_h(sys, e, z, K, N)
                for e, z in zip(eps_rows, zetas)]
    assert_failed_rows_are_zero(batch)
    for pos, (got, want) in enumerate(zip(batch.outcomes, expected)):
        e = eps_rows[pos]
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        ladder, ratios, estimate, w, value = want
        assert float(got).hex() == value.hex()
        mine = batch.expansion.ladder(pos)
        assert mine.zeta == zetas[pos] and mine.eps == e and mine.N == N
        assert [bits(s) for s in mine.orders] == [bits(s) for s in ladder.orders]
        assert hexes(mine.norms) == hexes(ladder.norms)
        got_ratios, got_estimate = batch.ratios[pos]
        assert hexes(got_ratios) == hexes(ratios)
        assert float(got_estimate).hex() == float(estimate).hex()
        assert bits(batch.w.series(pos)) == bits(w)
        # what a solve hands on when this row holds its root
        held_ladder, held_ratios, held_estimate, held_w = batch.result(pos)
        assert held_ladder.zeta == zetas[pos] and held_ladder.eps == e
        assert [bits(s) for s in held_ladder.orders] == \
            [bits(s) for s in ladder.orders]
        assert hexes(held_ladder.norms) == hexes(ladder.norms)
        assert hexes(held_ratios) == hexes(ratios)
        assert float(held_estimate).hex() == float(estimate).hex()
        assert bits(held_w) == bits(w)
        # the batch of one that H evaluates gives the same numbers
        assert H(zetas[pos], e, sys, K, N).hex() == value.hex()
    return expected


def near_resonant_system():
    """omega . nu = -1e-7 at nu = (1, -1): a small divisor inside the ball."""
    forcing = cosine(2, 0, 0.4).add(cosine(2, 1, 0.3))
    return recentre(SeparableSystem((1.0, 1.0 + 1e-7), forcing, TAYLOR), 0.0)


def eps_near_bar():
    sys = separable_system(2, TAYLOR)
    env = certify_envelope(sys, xi=0.5, rho=0.5)
    return sys, 0.95 * estimate_epsilon_bar(env, sys.a, sys.omega).eps_bar


SYSTEMS = {
    "separable-d1": (lambda: (separable_system(1, TAYLOR), 0.05), 8, 4),
    "separable-d2": (lambda: (separable_system(2, TAYLOR), 0.05), 7, 4),
    "separable-d3": (lambda: (separable_system(3, TAYLOR), 0.05), 5, 2),
    "general": (lambda: (general_system(), 0.04), 6, 3),
    "near-resonant": (lambda: (near_resonant_system(), 0.05), 6, 3),
    "eps-near-bar": (eps_near_bar, 6, 3),
}
BATCHES = {
    1: [0.0],
    2: [0.0, 0.07],
    3: [-0.1, -0.0, 0.07],
    7: [-0.2, -0.1, 0.0, 0.05, 0.1, 0.15, 0.2],
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batch_matches_each_zeta_alone(name, size):
    make, K, N = SYSTEMS[name]
    sys, eps = make()
    expected = assert_batch_matches_alone(sys, eps, BATCHES[size], K, N)
    assert not any(isinstance(e, Exception) for e in expected)


@pytest.mark.parametrize("name", ["separable-d2", "general"])
def test_one_diverging_zeta_leaves_the_others_alone(name):
    make, K, N = SYSTEMS[name]
    sys, eps = make()
    zetas = [0.0, 0.1, 40.0, -0.05]
    expected = assert_batch_matches_alone(sys, eps, zetas, K + 2, N)
    failed = [isinstance(e, Exception) for e in expected]
    assert failed == [False, False, True, False]
    assert isinstance(expected[2], LadderDivergenceError)


def test_blow_up_and_contraction_errors_in_one_batch():
    # a wide bracket: the far points blow up at some order, the near
    # ones converge, and in between the ratio test fails
    sys = separable_system(2, TAYLOR)
    zetas = [0.0, 0.3, 3.0, 1000.0]
    expected = assert_batch_matches_alone(sys, 0.05, zetas, 12, 3)
    messages = [str(e) for e in expected if isinstance(e, Exception)]
    assert any("norm exceeded" in m for m in messages)
    assert any("does not contract" in m for m in messages)


# -- rows at different eps ---------------------------------------------------

PROBE_FRACTIONS = (1.0, 0.5, 0.25)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_mixed_eps_batch_matches_each_row_alone(name):
    make, K, N = SYSTEMS[name]
    sys, eps = make()
    rows = [(eps * f, z) for z in BATCHES[3] for f in PROBE_FRACTIONS]
    expected = assert_batch_matches_alone(
        sys, [e for e, _ in rows], [z for _, z in rows], K, N)
    assert not any(isinstance(e, Exception) for e in expected)


def test_rows_that_fail_at_one_eps_only():
    # at K = 12, N = 3: zeta = 1 contracts at eps = 0.2 but not at 0.4,
    # and zeta = 100 blows up at eps = 0.4 but only fails the ratio test
    # at eps = 0.1
    sys = separable_system(2, TAYLOR)
    eps = [0.4, 0.2, 0.1, 0.4, 0.1, 0.2]
    zetas = [1.0, 1.0, 100.0, 100.0, 0.3, 0.3]
    expected = assert_batch_matches_alone(sys, eps, zetas, 12, 3)
    messages = [str(e) if isinstance(e, Exception) else None
                for e in expected]
    assert "does not contract at eps=0.4" in messages[0]
    assert messages[1] is None
    assert "does not contract at eps=0.1" in messages[2]
    assert "norm exceeded" in messages[3]
    assert messages[4:] == [None, None]


def assert_rows_match_batches_of_one(sys, eps, zetas, K, N):
    """Every row of the batch against its own batch of one (the reference
    recursion cannot stand in: it divides by a vanishing D).  Returns the
    batch."""
    batch = _Evaluation(sys, eps, zetas, K, N)
    assert_failed_rows_are_zero(batch)
    for pos, (e, z) in enumerate(zip(eps, zetas)):
        alone = _Evaluation(sys, e, [z], K, N)
        (want,) = alone.outcomes
        got = batch.outcomes[pos]
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert got.hex() == want.hex()
        mine, theirs = batch.result(pos), alone.result(0)
        assert mine[0].to_json_dict() == theirs[0].to_json_dict()
        assert [bits(s) for s in mine[0].orders] == \
            [bits(s) for s in theirs[0].orders]
        assert bits(mine[3]) == bits(theirs[3])
    return batch


def test_resonant_source_mode_fails_only_at_its_eps():
    # the forcing mode (2, -1) is resonant at eps = 0 only
    resonant = FourierSeries(2, {(2, -1): 0.1, (-2, 1): 0.1},
                             real_valued=True)
    sys = rational_system(cosine(2, 0, 0.3).add(resonant))
    eps = [0.0, 0.05, 0.0, 0.05]
    zetas = [0.1, 0.1, 0.0, 0.0]
    batch = assert_rows_match_batches_of_one(sys, eps, zetas, 4, 4)
    assert [isinstance(o, ResonanceError) for o in batch.outcomes] == \
        [True, False, True, False]


# -- the scan replays the sequential solve -----------------------------------

def odd_cubic_system():
    """g = x + x^3 with forcing on odd modes only: u has odd modes at
    zeta = 0, so u^3 has no zero mode and H(0) is exactly 0."""
    forcing = cosine(2, 0, 0.5).add(cosine(2, 1, 0.4))
    return recentre(SeparableSystem((1.0, PHI), forcing, {1: 1.0, 3: 1.0}),
                    0.0)


def test_later_divergence_does_not_mask_a_zero_at_the_origin():
    sys = odd_cubic_system()
    bracket = (-40.0, 40.0)
    scan = _Evaluation(sys, 0.05, [0.0, -40.0, 40.0], 10, 4)
    assert scan.outcomes[0] == 0.0
    assert all(isinstance(e, LadderDivergenceError) for e in scan.outcomes[1:])
    assert solve_zeta(0.05, sys, 10, 4, bracket) == 0.0
    assert unmemoized_solve_zeta(0.05, sys, 10, 4, bracket) == 0.0
    (z, (ladder, _, _, w), _), = _lockstep(sys, [0.05], 10, 4, bracket)
    assert z == 0.0 and ladder.zeta == 0.0 and len(ladder) == 10


@pytest.mark.parametrize("bracket", [(-40.0, 0.25), (-0.25, 40.0),
                                     (-0.2, 5.0)])
def test_scan_raises_what_the_sequential_scan_raises(bracket):
    sys = separable_system(2, TAYLOR)
    with pytest.raises(LadderDivergenceError) as slow:
        unmemoized_solve_zeta(0.05, sys, 9, 3, bracket)
    with pytest.raises(LadderDivergenceError) as fast:
        solve_zeta(0.05, sys, 9, 3, bracket)
    # the sequential helper hands H the numpy scalars of the scan grid,
    # where solve_zeta hands it floats: only the repr of zeta may differ
    assert str(fast.value) == \
        re.sub(r"np\.float64\(([^)]*)\)", r"\1", str(slow.value))
    assert fast.value.advice == slow.value.advice


def rational_system(forcing):
    """omega = (1, 2): omega . nu = 0 at nu = +-(2, -1), so at eps = 0 the
    propagator vanishes there."""
    return recentre(SeparableSystem((1.0, 2.0), forcing, TAYLOR), 0.0)


def test_resonance_only_where_the_source_has_the_mode():
    quiet = rational_system(cosine(2, 0, 0.3))
    # at eps = 0 the ladder is the constant zeta, so H(zeta) = g(zeta)
    for zeta in (0.0, 0.1):
        assert H(zeta, 0.0, quiet, 4, 4) == \
            pytest.approx(zeta + zeta**2 + 0.5 * zeta**3)
    scan = _Evaluation(quiet, 0.0, [0.0, 0.1], 4, 4)
    assert not any(isinstance(e, Exception) for e in scan.outcomes)

    resonant = FourierSeries(2, {(2, -1): 0.1, (-2, 1): 0.1},
                             real_valued=True)
    loud = rational_system(cosine(2, 0, 0.3).add(resonant))
    with pytest.raises(ResonanceError) as alone:
        H(0.1, 0.0, loud, 4, 4)
    assert alone.value.value == 0.0
    scan = _Evaluation(loud, 0.0, [0.0, 0.1], 4, 4)
    for exc in scan.outcomes:
        assert isinstance(exc, ResonanceError)
        assert str(exc) == str(alone.value) and exc.value == 0.0
    with pytest.raises(ResonanceError, match="s = 0.0"):
        solve_zeta(0.0, loud, 4, 4)


def coupled_rational_system():
    """omega = (1, 2) with an angle coupling on the mode (2, -1), where
    omega . nu = 0: at eps = 0 the first order is the constant zeta, and
    the coupling carries it onto that resonant mode at order 2 only when
    zeta != 0."""
    grid = {
        ((0, 0), 1): 1.0,
        ((2, -1), 1): 0.1,
        ((-2, 1), 1): 0.1,
        ((0, 0), 2): 1.0,
        ((0, 1), 0): 0.05,
        ((0, -1), 0): 0.05,
    }
    return recentre(GeneralSystem((1.0, 2.0), grid), 0.0)


def test_resonance_at_a_higher_order_fails_only_its_zeta():
    sys = coupled_rational_system()
    scan = _Evaluation(sys, 0.0, [0.0, 0.1, -0.2], 3, 4)
    assert scan.outcomes[0] == H(0.0, 0.0, sys, 3, 4)
    for pos, zeta in ((1, 0.1), (2, -0.2)):
        with pytest.raises(ResonanceError) as alone:
            H(zeta, 0.0, sys, 3, 4)
        assert isinstance(scan.outcomes[pos], ResonanceError)
        assert str(scan.outcomes[pos]) == str(alone.value)
    assert sorted(scan.expansion.errors) == [1, 2]
    assert_failed_rows_are_zero(scan)


def test_failed_rows_stay_in_place_as_zero_series():
    # each way a row fails, in one batch between live rows: a resonant
    # source mode at order 2, no contraction, and a blow-up at order 8
    eps = [0.0, 0.0, 0.05, 0.05, 0.05]
    zetas = [0.0, 0.1, 0.0, 0.3, 1000.0]
    batch = assert_rows_match_batches_of_one(coupled_rational_system(), eps,
                                             zetas, 8, 3)
    assert sorted(batch.ratios) == [0, 2]
    assert isinstance(batch.outcomes[1], ResonanceError)
    assert "does not contract" in str(batch.outcomes[3])
    assert "order 8 norm exceeded" in str(batch.outcomes[4])


def stacked(series_list):
    """One block holding the given series, one per batch row."""
    blocks = [DenseBlock.of(s) for s in series_list]
    d = series_list[0].dimension
    lo = [min(b.lo[i] for b in blocks if b.values.size) for i in range(d)]
    hi = [max(b.hi[i] for b in blocks if b.values.size) for i in range(d)]
    values = np.zeros((len(blocks),) + tuple(h - l + 1 for l, h in zip(lo, hi)),
                      dtype=complex)
    for row, b in enumerate(blocks):
        if b.values.size:
            values[(row,) + tuple(slice(a - l, z - l + 1) for a, z, l
                                  in zip(b.lo, b.hi, lo))] = b.values[0]
    return DenseBlock(values, lo, all(s.real_valued for s in series_list))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_operations_match_series_operations(d):
    rng = np.random.default_rng([d, 13])
    left = [random_series(rng, d, 8, 3, real=False) for _ in range(3)]
    right = [random_series(rng, d, 6, 2, real=False) for _ in range(3)]
    left[1] = zero_series(d, real_valued=False)
    a, b = stacked(left), stacked(right)
    for radius in (None, 0, 2, 4):
        prod = a.convolve(b, radius=radius)
        for row in range(3):
            want = left[row].convolve(right[row], radius=radius)
            assert bits(prod.series(row)) == bits(want)
    total = a.add(b)
    scaled = a.scaled(0.3 - 1.7j)
    for row in range(3):
        assert bits(total.series(row)) == bits(left[row].add(right[row]))
        assert bits(scaled.series(row)) == bits(left[row].scaled(0.3 - 1.7j))
    assert hexes(a.norms()) == hexes([s.weighted_norm(0.0) for s in left])


# -- held expansions ---------------------------------------------------------

@pytest.mark.parametrize("make, eps, K, N, kwargs", [
    (lambda: separable_system(2, TAYLOR), 0.05, 8, 6, dict(probe=True)),
    (general_system, 0.04, 7, 4, dict(probe=False)),
    (general_system, 0.04, 7, 4, dict(probe=True)),
])
def test_solve_builds_no_ladder_twice(make, eps, K, N, kwargs, monkeypatch):
    sys = make()
    built, _ = spy_builds(monkeypatch)
    sol = solve_response(eps, sys, K, N, **kwargs)
    # the roots' expansions were held: no (eps, zeta) row is built twice
    assert len(built) == len(set(built))
    assert sol.ladder.zeta == sol.zeta


@pytest.mark.parametrize("make, eps, K, N", [
    (lambda: separable_system(2, TAYLOR), 0.05, 8, 6),
    (general_system, 0.04, 7, 4),
])
def test_probe_norms_are_those_of_the_solves_at_smaller_eps(make, eps, K, N):
    sys = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_response(eps, sys, K, N, probe=True)
    assert sol.probe_norms[0].hex() == sol.response_norm().hex()
    for norm, frac in zip(sol.probe_norms[1:], (0.5, 0.25)):
        alone = solve_response(eps * frac, sys, K, N, probe=False)
        assert norm.hex() == alone.response_norm().hex()


# -- the per-mode loops left outside the kernel ---------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_weighted_norm_at_zero_width_is_unchanged(d):
    rng = np.random.default_rng([d, 11])
    coeffs = {tuple(int(x) for x in rng.integers(-4, 5, size=d)):
              complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-9, 9)
              for _ in range(40)}
    s = FourierSeries(d, coeffs)
    total = 0.0
    for nu, c in s.items_sorted():
        total += abs(c) * math.exp(0.0 * mode_norm(nu))
    assert s.weighted_norm(0.0).hex() == total.hex()


def scalar_range_residual(sys, eps, w, N):
    """The range residual read mode by mode through ``coeff``."""
    nl = nonlinearity_series(sys, w, radius=N)
    f = forcing_term(sys)
    worst = 0.0
    modes = set(w.support()) | set(nl.support()) | set(f.support())
    for nu in sorted(modes):
        if not any(nu) or mode_norm(nu) > N:
            continue
        s = 0.0
        for x, om in zip(nu, sys.omega):
            s += x * om
        d = propagator_denominator(eps, s, sys.a)
        r = d * w.coeff(nu) + eps * nl.coeff(nu) - eps * f.coeff(nu)
        worst = max(worst, abs(r))
    return worst


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_range_residual_is_unchanged(name):
    make, K, N = SYSTEMS[name]
    sys, eps = make()
    sol = solve_response(eps, sys, K, N, probe=False)
    for w in (sol.u, sol.u.scaled(1.5)):
        assert range_residual(sys, eps, w, N).hex() == \
            scalar_range_residual(sys, eps, w, N).hex()
