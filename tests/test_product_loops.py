"""The product kernel against the kernel it replaced.

``DenseBlock.convolve`` runs its slice-add loop over the shorter of the two
supports, and ``sum_of_products`` forms a sum of products in one buffer,
cleaning each product and each partial sum in place.  The loop they
replaced is kept below, as it was, as the reference: the left factor's
modes always drive, every product is a block of its own, and a sum is the
chain of ``DenseBlock.add``.  Every result must be the reference's block
bit for bit: the same box, the same cells, signed zeros included, also
for operands that hold inf or NaN.  Rows of finite operands are checked
against the dict convolution of ``test_series_storage`` too, and whole
ladder builds against the full-support recursion of ``test_fast_paths``.
On a one-cell box ``_slice_adds`` forms its products in one multiply and
one running sum; the slice-add loop it runs elsewhere is kept below too,
and the two must leave the same bits in the cell.
"""

from itertools import repeat
from operator import sub

import numpy as np
import pytest

from qpresponse.diophantine import estimate_epsilon_bar
from qpresponse.fourier import (DenseBlock, FourierSeries, _finish, _slice_adds,
                                sum_of_products)
from qpresponse.ladder import _Expansion, _zeroed, build_ladder
from qpresponse.systems import certify_envelope

from test_batched_scan import eps_near_bar, near_resonant_system
from test_fast_paths import bits, general_system, reference_ladder
from test_series_storage import ref_convolve, table_bits

# -- the replaced kernel -------------------------------------------------------


def old_convolve(a, b, radius=None):
    """The left-driven slice-add loop, each product cleaned and cut."""
    if a.real and a.values.size == 1 and not any(a.lo) \
            and a.values.imag.item() == 0.0:
        scaled = b.scaled(a.values.real.item())
        return scaled if radius is None else scaled.truncate(radius)
    d = a.dimension
    real = a.real and b.real
    batch = max(a.batch, b.batch)
    if not a.values.size or not b.values.size:
        return DenseBlock.empty(d, batch, real)
    left = np.argwhere((a.values != 0).any(axis=0)) + a.lo
    if radius is not None:
        right = np.argwhere((b.values != 0).any(axis=0)) + b.lo
        top = int(np.abs(right).sum(axis=1).max()) if len(right) else 0
        left = left[np.abs(left).sum(axis=1) <= radius + top]
    if not len(left):
        return DenseBlock.empty(d, batch, real)
    lo = (left.min(axis=0) + b.lo).tolist()
    hi = (left.max(axis=0) + b.hi).tolist()
    if radius is not None:
        lo = [max(x, -radius) for x in lo]
        hi = [min(x, radius) for x in hi]
        if any(l > h for l, h in zip(lo, hi)):
            return DenseBlock.empty(d, batch, real)
    out = np.zeros((batch,) + tuple(h - l + 1 for l, h in zip(lo, hi)),
                   dtype=complex)
    first = np.maximum(lo, left + b.lo)
    last = np.minimum(hi, left + b.hi)
    hit = (first <= last).all(axis=1)
    left, first, last = left[hit], first[hit], last[hit]
    dst = [map(slice, (first[:, i] - lo[i]).tolist(),
               (last[:, i] - lo[i] + 1).tolist()) for i in range(d)]
    src = [map(slice, (first[:, i] - left[:, i] - b.lo[i]).tolist(),
               (last[:, i] - left[:, i] - b.lo[i] + 1).tolist())
           for i in range(d)]
    coefs = a.values[(slice(None),) + tuple((left - a.lo).T)]
    coefs = coefs.T.reshape((len(left), a.batch) + (1,) * d)
    every = repeat(slice(None))
    with np.errstate(all="ignore"):
        for c, to, frm in zip(coefs, zip(every, *dst), zip(every, *src)):
            cells = out[to]
            cells += c * b.values[frm]
    return _finish(out, lo, real, radius)


def slice_add_loop(out, plan, a, b):
    """``_slice_adds`` as one slice-add per driving mode, on any box."""
    lo, _, modes, by_left = plan
    driver, sliced = (a, b) if by_left else (b, a)
    o, d = sliced.values, len(lo)
    coefs = driver.values[(slice(None),) + tuple((modes - driver.lo).T)]
    coefs = coefs.T.reshape((len(modes), driver.batch) + (1,) * d)
    shift = modes + list(map(sub, sliced.lo, lo))
    start = np.maximum(shift, 0)
    stop = np.minimum(shift + o.shape[1:], out.shape[1:])
    hit = (start < stop).all(axis=1)
    shift, start, stop, coefs = shift[hit], start[hit], stop[hit], coefs[hit]
    every = repeat(slice(None))
    dst = zip(every, *(map(slice, start[:, i].tolist(), stop[:, i].tolist())
                       for i in range(d)))
    src = zip(every, *(map(slice, (start - shift)[:, i].tolist(),
                           (stop - shift)[:, i].tolist()) for i in range(d)))
    for c, to, frm in zip(coefs, dst, src):
        cells = out[to]
        cells += c * o[frm] if by_left else o[frm] * c
    return len(coefs)


def old_sum(pairs, radius, d):
    total = DenseBlock.empty(d)
    for a, b in pairs:
        total = total.add(old_convolve(a, b, radius))
    return total


def assert_same_block(got, want):
    """The same box, flag and cells bit for bit; a batch of one stands
    for every row, as it does in every operation."""
    assert got.lo == want.lo and got.real == want.real
    batch = max(got.batch, want.batch)
    shape = (batch,) + got.values.shape[1:]
    assert got.values.shape[1:] == want.values.shape[1:]
    assert np.broadcast_to(got.values, shape).tobytes() == \
        np.broadcast_to(want.values, shape).tobytes()


# -- operands -------------------------------------------------------------------


def random_block(rng, d, batch, span, fill, real=False, special=None):
    """A cleaned batch on the box [-span, span]^d with about ``fill`` of
    its cells set; ``real`` makes every row conjugate-symmetric, and
    ``special`` (inf or NaN) goes into the first cell of the last row of
    the cut box, which is redrawn until it holds a cell."""
    shape = (batch,) + (2 * span + 1,) * d
    while True:
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values[rng.random(shape) >= fill] = 0
        if real:
            mirror = np.conj(np.flip(values, axis=tuple(range(1, d + 1))))
            values = 0.5 * (values + mirror)
        block = _finish(values, (-span,) * d, real)
        if special is None or block.values.size:
            break
    if special is None:
        return block
    values = block.values.copy()
    values.reshape(batch, -1)[-1, 0] = complex(special, 1.0)
    return DenseBlock(values, block.lo, real)


def sparse_block(rng, d, batch, n_modes, real=False):
    """A cleaned batch holding ``n_modes`` modes of [-3, 3]^d, and their
    mirrors when ``real``."""
    shape = (batch,) + (7,) * d
    values = np.zeros(shape, dtype=complex)
    flat = values.reshape(batch, -1)
    for cell in rng.choice(flat.shape[1], size=n_modes, replace=False):
        flat[:, cell] = rng.normal(size=batch) + 1j * rng.normal(size=batch)
        if real:
            flat[:, -1 - cell] = np.conj(flat[:, cell])
    if real:
        flat[:, flat.shape[1] // 2] = flat[:, flat.shape[1] // 2].real
    return _finish(values, (-3,) * d, real)


def direction(a, b, radius):
    plan = a.product_plan(b, radius)
    return None if plan is None else ("left" if plan[3] else "right")


def assert_rows_match_the_dict_convolution(got, a, b, radius):
    for row in range(max(a.batch, b.batch)):
        ta = dict(a.series(min(row, a.batch - 1)).items_sorted())
        tb = dict(b.series(min(row, b.batch - 1)).items_sorted())
        have = dict(got.series(min(row, got.batch - 1)).items_sorted())
        assert table_bits(have) == table_bits(ref_convolve(ta, tb, radius))


RADII = [None, 0, 1, 3]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("radius", RADII)
def test_both_loop_directions_match_the_replaced_kernel(d, real, radius):
    rng = np.random.default_rng([d, real, 0 if radius is None else radius + 1, 31])
    dense = random_block(rng, d, 3, 3, 0.6, real)
    sparse = sparse_block(rng, d, 3, 2, real)
    seen = set()
    for a, b in ((dense, sparse), (sparse, dense), (dense, dense),
                 (sparse, sparse)):
        got = a.convolve(b, radius)
        assert_same_block(got, old_convolve(a, b, radius))
        assert_rows_match_the_dict_convolution(got, a, b, radius)
        seen.add(direction(a, b, radius))
    if radius is None:
        assert direction(dense, sparse, radius) == "right"
        assert direction(sparse, dense, radius) == "left"
        # equal lengths: the left factor drives
        assert direction(dense, dense, radius) == "left"
        assert seen == {"left", "right"}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", RADII)
def test_batches_of_one_broadcast_in_either_position(d, radius):
    rng = np.random.default_rng([d, 0 if radius is None else radius + 1, 32])
    one = random_block(rng, d, 1, 2, 0.9)
    many = random_block(rng, d, 4, 4, 0.5)
    few = sparse_block(rng, d, 4, 3)
    seen = set()
    for a, b in ((one, many), (many, one), (one, few), (few, one)):
        got = a.convolve(b, radius)
        assert got.batch == 4
        assert_same_block(got, old_convolve(a, b, radius))
        assert_rows_match_the_dict_convolution(got, a, b, radius)
        seen.add(direction(a, b, radius))
        if radius is None:
            shorter = len(b.support()[0]) < len(a.support()[0])
            assert direction(a, b, radius) == ("right" if shorter else "left")
    assert "right" in seen


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", RADII)
def test_rows_made_zero_by_a_failure(d, radius):
    rng = np.random.default_rng([d, 0 if radius is None else radius + 1, 33])
    dead = np.array([False, True, False, True])
    a = _zeroed(random_block(rng, d, 4, 3, 0.5), dead)
    b = _zeroed(sparse_block(rng, d, 4, 2), np.array([False, False, True, False]))
    for x, y in ((a, b), (b, a)):
        got = x.convolve(y, radius)
        assert_same_block(got, old_convolve(x, y, radius))
        assert not got.values[1:].any()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("radius", RADII)
def test_inf_and_nan_operands_give_the_replaced_block(d, special, radius):
    rng = np.random.default_rng([d, 0 if radius is None else radius + 1, 34])
    dense = random_block(rng, d, 3, 3, 0.6, special=special)
    sparse = sparse_block(rng, d, 3, 2)
    assert not dense.finite() and sparse.finite()
    for a, b in ((dense, sparse), (sparse, dense), (dense, dense)):
        with np.errstate(all="ignore"):
            want = old_convolve(a, b, radius)
        assert_same_block(a.convolve(b, radius), want)
        # a non-finite operand keeps the loop on the left modes
        assert direction(a, b, radius) in ("left", None)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("batches", [(3, 3), (1, 4), (4, 1)])
@pytest.mark.parametrize("special", [None, np.inf, -np.inf, np.nan])
def test_one_cell_products_are_the_slice_adds(d, batches, special):
    # the balance's zero modes: radius 0 cuts every product to one cell
    rng = np.random.default_rng([d, *batches, 38])
    seen = set()
    for trial in range(12):
        dense = random_block(rng, d, batches[0], 3, 0.6, special=special)
        sparse = sparse_block(rng, d, batches[1], 2)
        for a, b in ((dense, sparse), (sparse, dense), (dense, dense)):
            plan = a.product_plan(b, 0)
            if plan is None:
                continue
            assert plan[0] == plan[1] == [0] * d
            seen.add(plan[3])
            shape = (max(a.batch, b.batch),) + (1,) * d
            # the cell may hold a value already, as a running total does
            start = np.zeros(shape, dtype=complex) if trial % 2 else \
                rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got, want = start.copy(), start.copy()
            with np.errstate(all="ignore"):
                assert _slice_adds(got, plan, a, b) == \
                    slice_add_loop(want, plan, a, b)
            assert got.tobytes() == want.tobytes()
    # finite operands drive over the shorter support, so both directions run
    assert seen == ({False, True} if special is None else {True})


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", RADII)
def test_a_sum_of_products_is_the_add_chain(d, radius):
    rng = np.random.default_rng([d, 0 if radius is None else radius + 1, 35])
    blocks = [random_block(rng, d, 3, 2, 0.7), sparse_block(rng, d, 3, 1),
              random_block(rng, d, 3, 3, 0.3, real=True),
              sparse_block(rng, d, 3, 4, real=True),
              _zeroed(random_block(rng, d, 3, 1, 0.9),
                      np.array([True, False, False])),
              random_block(rng, d, 1, 1, 0.8),
              DenseBlock.empty(d, 3)]
    pairs = [(blocks[i], blocks[j]) for i, j in
             ((0, 1), (1, 0), (2, 3), (3, 2), (4, 0), (5, 2), (1, 6), (2, 5))]
    for n in range(len(pairs) + 1):
        assert_same_block(sum_of_products(pairs[:n], radius, d),
                          old_sum(pairs[:n], radius, d))


@pytest.mark.parametrize("special", [np.inf, np.nan])
def test_a_sum_of_products_with_inf_or_nan_is_the_add_chain(special):
    rng = np.random.default_rng([36])
    bad = random_block(rng, 2, 2, 2, 0.6, special=special)
    good = random_block(rng, 2, 2, 3, 0.5)
    pairs = [(good, bad), (bad, good), (good, good), (bad, bad)]
    for radius in RADII:
        with np.errstate(all="ignore"):
            want = old_sum(pairs, radius, 2)
        assert_same_block(sum_of_products(pairs, radius, 2), want)


def test_sums_that_cancel_are_cleaned_at_every_step():
    # the first two products cancel below the drop threshold in cell 0
    # and exactly in cell 1; the sum drops both before the third is added
    one = DenseBlock(np.ones((1, 1), dtype=complex), (0,), True)
    x = DenseBlock(np.array([[1.0 + 1.5e-300j, 3.0, 2.0]]), (0,), True)
    y = DenseBlock(np.array([[-1.0 - 1e-300j, -3.0, 1e-310]]), (0,), True)
    z = DenseBlock(np.array([[0.5, 2.0, 2.0]], dtype=complex), (0,), True)
    pairs = [(one, x), (one, y), (one, z)]
    got = sum_of_products(pairs, None, 1)
    assert_same_block(got, old_sum(pairs, None, 1))
    assert got.values.tolist() == [[0.5 + 0j, 2.0 + 0j, 4.0 + 0j]]


def test_built_blocks_are_read_only():
    s = FourierSeries(2, {(1, 0): 1.0, (0, -1): 2.0 - 1j})
    rng = np.random.default_rng([37])
    a = random_block(rng, 2, 2, 2, 0.5)
    blocks = [DenseBlock.of(s), a, a.convolve(a), a.add(a), a.scaled(2.0),
              sum_of_products([(a, a), (a, DenseBlock.of(s))], 2, 2)]
    exp = _Expansion(general_system(), 0.04, [0.0, 0.1], 3)
    exp.build(4)
    blocks += exp.orders + [exp.assembled()]
    for block in blocks:
        with pytest.raises(ValueError):
            block.values[(0,) * block.values.ndim] = 1.0
        with pytest.raises(ValueError):
            block.values += 1.0


def general_eps_near_bar():
    sys = general_system()
    env = certify_envelope(sys, xi=0.4, rho=0.5)
    return sys, 0.95 * estimate_epsilon_bar(env, sys.a, sys.omega).eps_bar


@pytest.mark.parametrize("make", [lambda: (near_resonant_system(), 0.05),
                                  eps_near_bar, general_eps_near_bar],
                         ids=["near-resonant", "eps-near-bar",
                              "general-eps-near-bar"])
@pytest.mark.parametrize("zeta", [0.0, 0.05])
def test_a_build_matches_the_full_support_ladder(make, zeta):
    sys, eps = make()
    # K well above N, so the products overflow the ball and the radius
    # cuts, both loop directions and the one-buffer sums all take part
    ladder = build_ladder(sys, eps, zeta, 8, 3)
    expected = reference_ladder(sys, eps, zeta, 8, 3)
    assert [bits(s) for s in ladder.orders] == [bits(s) for s in expected]
