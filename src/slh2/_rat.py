"""Exact rational number backend.

gmpy2's mpq is used when available (10-15x faster on small rationals);
fractions.Fraction is the drop-in fallback. Both are arbitrary precision,
hash-compatible and interchangeable for everything this package does.
"""

try:
    from gmpy2 import mpq as Q

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

    RAT_BACKEND = "fractions"


def qstr(q) -> str:
    """Canonical "p/q" text of a rational, denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


def qparse(text: str):
    """Inverse of qstr; also accepts plain integers."""
    return Q(text)


def num(x):
    """x as an exact rational, stored as an int when it is integral.

    This is the int rule of the flat terms (see kernel): an integral
    value held as Q(n, 1) would make every later product a rational one.
    """
    if type(x) is int:
        return x
    q = Q(x)
    return int(q) if q.denominator == 1 else q
