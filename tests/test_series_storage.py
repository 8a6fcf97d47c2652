"""A series is one dense block: property tests against the dict storage it
replaced.

Until the dense core took over, a :class:`FourierSeries` kept its
coefficients in a dict of mode tuples and did its own arithmetic on it.
That code is kept below, as it was, as the reference: the constructor's
accumulation, ``add``, ``scaled``, the dict convolution (products through
numpy rows, as on the dense path), ``truncate`` and ``without_zero_mode``.
Every operation of the block-backed series must give the reference's
modes with coefficients of the same bits, signed zeros included.

Two behaviours changed on purpose and are pinned at the end: modes whose
inputs cancel exactly, or sum below ``DROP_THRESHOLD``, are no longer
stored, and a series holds the whole bounding box of its support.
"""

import numpy as np
import pytest

import qpresponse.fourier as fourier
from qpresponse.fourier import (
    DROP_THRESHOLD,
    DenseBlock,
    FourierSeries,
    mode_norm,
    zero_series,
)

# -- the dict reference ------------------------------------------------------


def ref_build(d, items):
    """The old constructor's accumulation, without its mode checks."""
    table = {}
    for nu, c in items:
        c = complex(c)
        if abs(c) >= DROP_THRESHOLD:
            table[nu] = table.get(nu, 0j) + c
    return table


def ref_clean(table):
    return {nu: 0j + c for nu, c in table.items() if abs(c) >= DROP_THRESHOLD}


def ref_add(a, b):
    out = dict(a)
    for nu in sorted(b):
        out[nu] = out.get(nu, 0j) + b[nu]
    return ref_clean(out)


def ref_scaled(a, factor):
    factor = complex(factor)
    return ref_clean({nu: factor * c for nu, c in a.items()})


def ref_convolve(a, b, radius=None):
    """The old dict convolution: each left mode's products with the right
    factor as one numpy row, accumulated in lexicographic left order."""
    b_keys = sorted(b)
    b_vals = np.array([b[nu] for nu in b_keys], dtype=complex)
    table = {}
    for nu1 in sorted(a):
        for nu2, term in zip(b_keys, (a[nu1] * b_vals).tolist()):
            key = tuple(x + y for x, y in zip(nu1, nu2))
            table[key] = table.get(key, 0j) + term
    return {k: v for k, v in table.items() if abs(v) >= DROP_THRESHOLD
            and (radius is None or mode_norm(k) <= radius)}


def ref_truncate(a, cutoff):
    return {nu: c for nu, c in a.items() if mode_norm(nu) <= cutoff}


def ref_without_zero_mode(a):
    return {nu: c for nu, c in a.items() if any(nu)}


# -- inputs --------------------------------------------------------------------


def bits(pairs):
    return [(nu, c.real.hex(), c.imag.hex()) for nu, c in pairs]


def series_bits(series):
    return bits(series.items_sorted())


def table_bits(table):
    return bits(sorted(table.items()))


def raw_items(rng, d, n_modes, span, real):
    """(mode, coefficient) input pairs with repeated modes, -0.0 parts,
    exact zeros and parts below the drop threshold; ``real`` makes the
    input conjugate-symmetric pair by pair."""
    items = []
    for k in range(n_modes):
        nu = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        re, im = rng.normal(size=2) * 10.0 ** rng.integers(-3, 3, size=2)
        kind = k % 7
        if kind == 1:
            re = -0.0
        elif kind == 2:
            im = -0.0
        elif kind == 3:
            re = 1e-310
        elif kind == 4:
            re, im = 1e-310, -0.0
        elif kind == 5:
            re, im = 0.0, 0.0
        c = complex(re, im)
        items.append((nu, c))
        if real:
            items.append((tuple(-x for x in nu), c.conjugate()))
    if real:
        items.append(((0,) * d, complex(rng.normal(), -0.0)))
    return items


def make(rng, d, n_modes, span, real):
    """A series and its reference table from the same input."""
    items = raw_items(rng, d, n_modes, span, real)
    # the reference keeps modes that cancel to 0j; the series drops them
    # (pinned below), so the operations are compared from the cleaned table
    return FourierSeries(d, items, real_valued=real), ref_clean(ref_build(d, items))


def radii(a, b):
    """None, 0, a radius inside the full product's box and one beyond it."""
    top = max(map(mode_norm, a), default=0) + max(map(mode_norm, b), default=0)
    return (None, 0, max(1, top // 2), top + 3)


CASES = [(d, real) for d in (1, 2, 3) for real in (False, True)]


@pytest.mark.parametrize("d, real", CASES)
def test_constructor_matches_the_dict_accumulation(d, real):
    rng = np.random.default_rng([d, real, 21])
    for _ in range(5):
        s, table = make(rng, d, 14, 3, real)
        assert series_bits(s) == table_bits(table)
        assert s.support() == sorted(table)
        assert len(s) == len(table)
        assert s.real_valued is real and s.dimension == d
        zero = (0,) * d
        assert s.zero_mode() == table.get(zero, 0j)
        assert s.max_norm() == max(map(mode_norm, table), default=0)
        for nu in list(table)[:4] + [(9,) * d]:
            got, want = s.coeff(nu), table.get(nu, 0j)
            assert (got.real.hex(), got.imag.hex()) == \
                (want.real.hex(), want.imag.hex())
        total = 0.0
        for nu in sorted(table):
            total += abs(table[nu])
        assert s.weighted_norm(0.0).hex() == total.hex()


@pytest.mark.parametrize("d, real", CASES)
def test_add_and_scaled_match_the_dict_path(d, real):
    rng = np.random.default_rng([d, real, 22])
    for _ in range(5):
        a, ta = make(rng, d, 12, 3, real)
        b, tb = make(rng, d, 9, 2, real)
        assert series_bits(a.add(b)) == table_bits(ref_add(ta, tb))
        assert series_bits(b.add(a)) == table_bits(ref_add(tb, ta))
        assert series_bits(a.add(a.scaled(-1.0))) == \
            table_bits(ref_add(ta, ref_scaled(ta, -1.0)))
        for factor in (-1.0, 0.3, 2.5 - 0.0j, -1.7 + 0.4j, 1e-310, 0.0):
            got = a.scaled(factor)
            assert series_bits(got) == table_bits(ref_scaled(ta, factor))
            assert got.real_valued == (real and complex(factor).imag == 0.0)


@pytest.mark.parametrize("d, real", CASES)
def test_convolve_matches_the_dict_convolution(d, real):
    rng = np.random.default_rng([d, real, 23])
    for _ in range(4):
        a, ta = make(rng, d, 12, 3, real)
        b, tb = make(rng, d, 9, 2, real)
        for radius in radii(ta, tb):
            got = a.convolve(b, radius=radius)
            assert series_bits(got) == table_bits(ref_convolve(ta, tb, radius))
            assert got.real_valued is real
        assert series_bits(a.power(3)) == \
            table_bits(ref_convolve(ref_convolve(ta, ta), ta))


@pytest.mark.parametrize("d, real", CASES)
def test_truncate_and_zero_mode_removal_match_the_dict_path(d, real):
    rng = np.random.default_rng([d, real, 24])
    for _ in range(5):
        a, ta = make(rng, d, 14, 4, real)
        top = max(map(mode_norm, ta), default=0)
        for cutoff in (1, max(1, top // 2), top, top + 2):
            assert series_bits(a.truncate(cutoff)) == \
                table_bits(ref_truncate(ta, cutoff))
        assert series_bits(a.without_zero_mode()) == \
            table_bits(ref_without_zero_mode(ta))


def test_empty_and_single_mode_series():
    for d in (1, 2, 3):
        empty = zero_series(d)
        assert series_bits(empty.add(empty)) == []
        assert series_bits(empty.convolve(empty, radius=0)) == []
        assert series_bits(empty.without_zero_mode()) == []
        assert series_bits(empty.truncate(1)) == []
        assert empty.weighted_norm(0.0) == 0.0 and empty.max_norm() == 0
        only_zero = FourierSeries(d, {(0,) * d: complex(-0.0, 2.0)})
        assert series_bits(only_zero.without_zero_mode()) == []
        assert series_bits(only_zero) == [((0,) * d, "0x0.0p+0", "0x1.0000000000000p+1")]


# -- one storage format --------------------------------------------------------


def test_a_series_is_one_block_shared_without_copies():
    s = FourierSeries(2, {(1, -2): 1.5 - 0.5j, (-3, 0): 2.0, (0, 0): -0.0})
    block = DenseBlock.of(s)
    assert FourierSeries.__slots__ == ("_block",)
    assert not hasattr(s, "__dict__")
    assert block is s._block
    assert np.shares_memory(DenseBlock.of(s).values, s._block.values)
    assert block.batch == 1 and block.lo == (-3, -2)
    # series() on a batch of one wraps that block
    t = block.series()
    assert DenseBlock.of(t) is block
    assert np.shares_memory(DenseBlock.of(t).values, block.values)
    assert series_bits(t) == series_bits(s)


def test_rows_of_a_batch_are_cut_to_their_own_box():
    values = np.zeros((3, 7), dtype=complex)
    values[0, 1] = 1.0
    values[1, 5] = 2.0 + 1j
    values[2, 2:4] = 3.0
    batch = DenseBlock(values, (-3,), False)
    for row, lo, n in ((0, (-2,), 1), (1, (2,), 1), (2, (-1,), 2)):
        block = DenseBlock.of(batch.series(row))
        assert block.batch == 1 and block.lo == lo
        assert block.values.shape == (1, n)
    assert not np.shares_memory(DenseBlock.of(batch.series(0)).values, values)


# -- the two behaviour changes ---------------------------------------------------


def test_cancelled_and_underflowing_input_leaves_no_mode():
    items = [((1,), 1.0), ((2,), 2e-300), ((1,), -1.0), ((2,), -1.5e-300),
             ((3,), 0.5)]
    # the dict kept both sums: 0j at (1,) and 5e-301 at (2,)
    assert ref_build(1, items) == {(1,): 0j, (2,): 2e-300 - 1.5e-300,
                                   (3,): 0.5 + 0j}
    s = FourierSeries(1, items)
    assert len(s) == 1 and s.support() == [(3,)]
    assert DenseBlock.of(s).lo == (3,) and DenseBlock.of(s).values.shape == (1, 1)
    assert len(FourierSeries(2, [((1, 1), 1.0), ((1, 1), -1.0)])) == 0


def test_a_series_holds_the_bounding_box_of_its_support():
    s = FourierSeries(2, {(5, -3): 1.0, (-2, 4): 2.0})
    block = DenseBlock.of(s)
    assert block.lo == (-2, -3)
    assert block.values.shape == (1, 8, 8)
    assert np.count_nonzero(block.values) == len(s) == 2


# -- the keep mask -----------------------------------------------------------------


def modulus(c):
    """abs(c), or inf where it overflows."""
    try:
        return abs(c)
    except OverflowError:
        return np.inf


def test_clean_keeps_the_cells_that_abs_keeps():
    # the mask is decided by numpy's complex abs where it is clear of the
    # threshold and by hypot near it; the reference is Python's abs, which
    # is libm's hypot (math.hypot is not), one cell at a time
    rng = np.random.default_rng(11)
    t = DROP_THRESHOLD
    parts = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e-310, 1.0, 1e300, 1.7e308,
             0.5 * t, 2.0 * t, t / np.sqrt(2.0)]
    x = t
    for _ in range(4):
        x = np.nextafter(x, 0.0)
        parts += [x, -x]
    x = t
    for _ in range(4):
        x = np.nextafter(x, 1.0)
        parts += [x, -x]
    parts.append(t)
    parts = np.array(parts)
    pairs = np.array(np.meshgrid(parts, parts)).reshape(2, -1)
    # cells whose modulus is within a few ulp of the threshold, from both parts
    theta = rng.uniform(0.0, 2.0 * np.pi, 4000)
    scale = t * (1.0 + rng.integers(-8, 9, theta.size) * 2.0 ** -52)
    near = np.array([scale * np.cos(theta), scale * np.sin(theta)])
    re, im = np.concatenate((pairs, near, rng.normal(size=(2, 500))), axis=1)
    values = np.empty((1, re.size), dtype=complex)
    values.real, values.imag = re, im
    inside = rng.random(values.shape[1:]) < 0.8
    for mask in (None, inside):
        got = values.copy()
        with np.errstate(all="ignore"):
            keep = fourier._clean(got, mask)
        want = [modulus(c) >= t for c in (0j + values).ravel().tolist()]
        if mask is not None:
            want = [k and m for k, m in zip(want, mask.ravel().tolist())]
        assert keep.ravel().tolist() == want
        expected = np.where(np.reshape(want, values.shape), 0j + values, 0)
        assert got.tobytes() == expected.tobytes()
