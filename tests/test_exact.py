"""Exact scalar helpers: decimal wire strings, floats and logs of integer
ratios."""

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptiling.exact import (
    decimal_string,
    log_ratio,
    scalar_to_json,
    to_float,
)


class TestDecimalStrings:
    @given(n=st.integers(-(2**3000), 2**3000))
    @settings(max_examples=200, deadline=None)
    def test_matches_str_below_the_digit_limit(self, n):
        assert decimal_string(n) == str(n)

    @pytest.mark.parametrize("bits", [2049, 4096, 14_000, 20_000, 100_003])
    def test_large_ints_past_the_digit_limit(self, bits):
        rng = random.Random(bits)
        for n in (rng.getrandbits(bits) | (1 << (bits - 1)), 1 << bits,
                  -(rng.getrandbits(bits) | 1)):
            digits = decimal_string(n)
            assert digits.lstrip("-")[0] != "0"
            assert decimal.Decimal(digits) == decimal.Decimal(n)

    def test_matches_str_past_the_digit_limit(self):
        """Powers of two take their own route; both routes must match str()."""
        rng = random.Random(9)
        cases = [sign << k for k in (2047, 2048, 2049, 531_416)
                 for sign in (1, -1)]
        cases += [rng.getrandbits(100_000) | (1 << 99_999) for _ in range(3)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n in cases:
                assert decimal_string(n) == str(n)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_dyadic_reduction(self):
        assert scalar_to_json(20, 4) == {"num": "5", "den": "4"}
        assert scalar_to_json(16, 4) == {"num": "1", "den": "1"}
        assert scalar_to_json(0, 9) == {"num": "0", "den": "1"}
        assert scalar_to_json(12, 0) == {"num": "12", "den": "1"}
        assert scalar_to_json(3 << 5000, 5002) == {"num": "3", "den": "4"}

    def test_scalar_with_huge_denominator(self):
        wire = scalar_to_json(Fraction(3, 2**20_000))
        assert wire["num"] == "3"
        assert decimal.Decimal(wire["den"]) == decimal.Decimal(2**20_000)


class TestToFloat:
    def test_in_range(self):
        assert to_float(Fraction(1, 3)) == 1 / 3
        assert to_float(-7) == -7.0

    def test_beyond_the_float_range_is_infinite(self):
        assert to_float(10**400) == math.inf
        assert to_float(-(10**400)) == -math.inf
        assert to_float(Fraction(10**400, 3)) == math.inf


class TestLogRatio:
    def test_ordinary_ratios(self):
        assert log_ratio(3, 1) == math.log(3)
        assert log_ratio(1, 3) == math.log(1 / 3)
        assert log_ratio(7, 7) == 0.0

    def test_ratio_near_one_keeps_relative_precision(self):
        d = 10**40
        assert log_ratio(d + 1, d) == pytest.approx(1e-40, rel=1e-15)
        assert log_ratio(d, d + 1) == pytest.approx(-1e-40, rel=1e-15)

    def test_ratios_beyond_float_range(self):
        assert log_ratio(2**5000, 3) == pytest.approx(
            5000 * math.log(2) - math.log(3), rel=1e-15)
        assert log_ratio(3, 2**5000) == pytest.approx(
            math.log(3) - 5000 * math.log(2), rel=1e-15)
