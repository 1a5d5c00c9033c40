"""Exact scalar helpers.

Exact scalars in the package are ints and `fractions.Fraction` values;
dyadics (m * 2**e) are the subset whose denominator is a power of two.  This
module provides constructors, logarithms that survive arbitrarily large
integers, and the JSON wire form {"num": "<decimal>", "den": "<decimal>"},
written without Python's int-to-str digit limit.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

from .errors import DomainError

_LN2 = math.log(2.0)


def exact(value) -> Fraction:
    """Coerce an int, Fraction, decimal string, or float to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"non-finite value {value!r} is not an exact scalar")
        return Fraction(value)
    raise DomainError(f"cannot coerce {type(value).__name__} to an exact scalar")


def pow2(e: int) -> Fraction:
    """2**e as an exact Fraction, for any integer e."""
    if e >= 0:
        return Fraction(1 << e)
    return Fraction(1, 1 << (-e))


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size."""
    if n <= 0:
        raise DomainError("log of a non-positive integer")
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * _LN2


def log_ratio(n: int, d: int) -> float:
    """Natural log of n / d for positive integers of any size.  Near 1 it is
    log1p of the correctly rounded (n - d) / d, so small logs keep their
    relative precision."""
    if n <= 0 or d <= 0:
        raise DomainError("log of a non-positive ratio")
    try:
        x = n / d
    except OverflowError:
        x = math.inf
    if 0.5 <= x <= 2.0:
        return math.log1p((n - d) / d)
    if 0.0 < x < math.inf:
        return math.log(x)
    return log_int(n) - log_int(d)


def to_float(x) -> float:
    """Exact scalar to float: +inf or -inf when it is beyond the float range."""
    f = exact(x)
    try:
        return float(f)
    except OverflowError:
        return math.inf if f > 0 else -math.inf


def reduce_dyadic(x: int, shift: int) -> tuple:
    """(numerator, denominator) of x / 2**shift in lowest terms, found by
    stripping common factors of 2 rather than by a gcd."""
    tz = shift if x == 0 else min((x & -x).bit_length() - 1, shift)
    return x >> tz, 1 << (shift - tz)


def scalar_to_json(x, shift: int = 0) -> dict:
    """Wire form of an exact scalar, or of the int x over 2**shift."""
    if shift:
        num, den = reduce_dyadic(x, shift)
    else:
        f = exact(x)
        num, den = f.numerator, f.denominator
    return {"num": decimal_string(num), "den": decimal_string(den)}


def decimal_string(n: int) -> str:
    """Decimal digits of an int of any size, without the int-to-str limit:
    halves of the bits are converted recursively and recombined by exact
    `decimal` arithmetic (CPython 3.12's _pylong algorithm, faster than str);
    a power of two, such as a dyadic denominator, is one exact power."""
    if n.bit_length() <= 2048:  # below any digit limit Python allows
        return str(n)
    D = decimal.Decimal
    powers = {}

    def convert(m, w):
        if w <= 128:
            return D(m)
        half = w >> 1
        if half not in powers:
            powers[half] = D(2) ** half
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * powers[half]

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact])
    m = abs(n)
    with decimal.localcontext(ctx):
        digits = str(convert(m, m.bit_length()) if m & (m - 1)
                     else D(2) ** (m.bit_length() - 1))
    return "-" + digits if n < 0 else digits
