"""The block formatter: byte for byte ``float.__repr__``, and which rows fall back to it."""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcontract import reprs
from hypcontract.harness import default_config, run_suite
from hypcontract.reprs import WIDTH, fallback_rows, repr_matrix

FORMS = 21  # decpt -3 .. 16 in fixed notation, then the exponent form


def _expected(x):
    """The NUL-padded ``float.__repr__`` bytes of each value and their lengths, by the per-value call."""
    texts = [repr(v).encode() for v in np.asarray(x, dtype=float).tolist()]
    return np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH), [len(t) for t in texts]


def _lengths(mat):
    """Each row's length: its count of non-NUL bytes, as no repr holds a NUL."""
    return np.count_nonzero(mat, axis=1).tolist()


def _assert_reprs(x):
    mat = repr_matrix(x)
    want, want_lengths = _expected(x)
    bad = np.flatnonzero((mat != want).any(axis=1))
    assert bad.size == 0, [(repr(float(x[i])), mat[i].tobytes()) for i in bad[:5]]
    assert _lengths(mat) == want_lengths


def _parts(text):
    """Sign, digits as an int, digit count and decimal point position of a finite repr."""
    sign, digits, exp = Decimal(text).normalize().as_tuple()
    return sign, int("".join(map(str, digits))), len(digits), len(digits) + exp


def _key(text):
    sign, _, n, decpt = _parts(text)
    return sign, n, decpt + 3 if -3 <= decpt <= 16 else FORMS - 1


def _values_of_every_key():
    """One float per layout key (sign, digit count, form), found by construction or search."""
    rng = np.random.default_rng(5)
    values = {}
    for sign in (0, 1):
        for n in range(1, 18):
            for f in range(FORMS):
                # exponent forms: one- and two-digit exponents of both signs
                decpt = f - 3 if f < FORMS - 1 else [-4, -9, -98, 17, 23, 99][(n + sign) % 6]
                for _ in range(2000):
                    if n <= 15:  # at most 15 digits always round-trip
                        digits = "7" if n == 1 else "1" + "2" * (n - 2) + "3"
                    else:
                        digits = str(rng.integers(10 ** (n - 1), 10**n) // 10 * 10 + rng.integers(1, 10))
                    x = float(f"{'-' if sign else ''}{digits}e{decpt - n}")
                    if _key(repr(x)) == (sign, n, f):
                        values[sign, n, f] = x
                        break
    return values


class TestBytes:
    def test_every_layout_key(self):
        values = _values_of_every_key()
        assert len(values) == 2 * 17 * FORMS
        x = np.array(list(values.values()))
        _assert_reprs(x)
        # The table alone, on the digits repr prints: on the fast path a
        # value printed as an integer ("123.0") never occurs.
        sign, out, n, decpt = (np.array(c) for c in zip(*map(_parts, map(repr, x.tolist()))))
        mat = reprs._layout(sign, out.astype(np.uint64), n, decpt)
        want, want_lengths = _expected(x)
        assert np.array_equal(mat, want) and _lengths(mat) == want_lengths

    def test_signed_powers_of_two(self):
        x = np.array([s * 2.0**k for k in range(-1074, 1024) for s in (1.0, -1.0)])
        assert len(x) == 4196
        _assert_reprs(x)

    def test_random_bit_patterns_in_one_call(self):
        bits = np.random.default_rng(23).integers(0, 2**64, 2**20, dtype=np.uint64)
        _assert_reprs(bits.view(np.float64))

    def test_fast_range_and_near_dyadics(self):
        rng = np.random.default_rng(29)
        count = 2**17
        fast = (rng.integers(1, 1077, count, dtype=np.uint64) << np.uint64(52)) | rng.integers(
            0, 2**52, count, dtype=np.uint64
        )
        sparse = (rng.integers(900, 1077, count, dtype=np.uint64) << np.uint64(52)) | (
            rng.integers(0, 2**12, count, dtype=np.uint64) << rng.integers(0, 41, count, dtype=np.uint64)
        )
        margins = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 3, count)
        _assert_reprs(np.concatenate([fast.view(np.float64), -sparse.view(np.float64), margins]))

    def test_neighbours_of_powers_of_ten_and_short_decimals(self):
        tens = np.array([10.0**k for k in range(-307, 309)])
        short = np.array([float(f"{d}e{e}") for d in (1, 5, 25, 123, 999999999999999) for e in range(-30, 23)])
        x = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), short, -short])
        _assert_reprs(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        _assert_reprs(np.array(values))

    def test_empty(self):
        mat = repr_matrix(np.array([]))
        assert mat.shape == (0, WIDTH) and _lengths(mat) == []


EDGES = [
    (0.0, False),
    (-0.0, False),
    (math.nan, True),
    (math.inf, True),
    (-math.inf, True),
    (5e-324, True),  # subnormal
    (2.2250738585072014e-308, True),  # the least normal: a three-digit exponent
    (1e-05, False),
    (0.0001, False),
    (9999999999999998.0, True),  # an even integer above 2**53: q <= 1
    (1e16, True),
    (np.nextafter(2.0**54, 0), True),
    (2.0**54, True),
    (np.nextafter(2.0**54, math.inf), True),
    (1e22, True),
    (1e-100, True),
    (1.7976931348623157e308, True),
    (0.5, True),  # an exact small dyadic: mv is divisible by 2**q
    (3.0, True),
    (0.1, False),
    (-1.2345678901234567e-17, False),
]


class TestFallback:
    def test_edges(self):
        x = np.array([v for v, _ in EDGES])
        _assert_reprs(x)
        assert fallback_rows(x).tolist() == [i for i, (_, falls) in enumerate(EDGES) if falls]

    def test_rows_across_format_blocks(self, monkeypatch):
        monkeypatch.setattr(reprs, "FORMAT_ROWS", 3)
        x = np.array([v for v, _ in EDGES] * 2)
        _assert_reprs(x)
        assert fallback_rows(x).tolist() == [
            i for i, (_, falls) in enumerate(EDGES * 2) if falls
        ]

    def test_into_a_strided_view(self, monkeypatch):
        # the margins CSV formats into its row buffer, fallback rows and format blocks included
        monkeypatch.setattr(reprs, "FORMAT_ROWS", 3)
        x = np.array([v for v, _ in EDGES] * 2)
        rows = np.full((len(x), WIDTH + 5), 0xFF, dtype=np.uint8)
        mat = repr_matrix(x, out=rows[:, 2:-3])
        assert mat.base is rows
        assert (rows[:, 2:-3] == _expected(x)[0]).all()
        assert _lengths(mat) == _expected(x)[1]
        assert (rows[:, :2] == 0xFF).all() and (rows[:, -3:] == 0xFF).all()

    def test_every_row_when_repr_is_not_short(self, monkeypatch):
        monkeypatch.setattr(sys, "float_repr_style", "legacy")
        x = np.array([0.1, -0.0, 1e-05])
        assert fallback_rows(x).tolist() == [0, 1, 2]
        _assert_reprs(x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_suite_margins_rarely_fall_back(self, seed):
        result = run_suite(default_config(seed=seed, count=4096))
        margins = np.concatenate([r.margins for r in result.reports if r.margins is not None])
        _assert_reprs(margins)
        assert len(fallback_rows(margins)) < len(margins) // 1000
