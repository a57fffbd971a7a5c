"""Finite-dimensional representation data of the twisted algebra U_h(sl(2)).

Spins and magnetic numbers are stored doubled (twoj = 2j, twom = 2m) so
that all index arithmetic stays in integers.  Bases are ordered by
magnetic number DESCENDING, from +j down to -j; on a product of two spins
the ordering is (m1 descending, then m2 descending), `pair_basis`.  With
this choice the raising generator and the twist exponent
sigma = -ln(1 - 2h J+) are strictly upper triangular, so every series
below is finite.

Conventions: J0|jm> = 2m|jm>, J+-|jm> = sqrt((j-+m)(j+-m+1)) |j,m+-1>,
which realize [J0, J+-] = +-2 J+- and [J+, J-] = J0 exactly.

Every table is a plain dict keyed by (row, column) with its zero entries
left out: {(2m', 2m): RadScalar} on one spin (the twist series),
{((2m1, 2m2), (2s1, 2s2)): RadScalar} on a product of two (F, F^-1, R)
and {((2m1, 2m2), 2m): RadScalar} from the product basis to spin j (the
coupling tables C, Omega = F C and mho = (F^-1)^T C), so matmul,
transpose and rows take each of them as it is.  The twist series has
the closed form, for k = 0 .. j - m,

    (1 - 2h J+)^e [m + k, m] = (-2h)^k binom(e, k)
                               sqrt((j-m)! (j+m+k)! / ((j-m-k)! (j+m)!)),

the square root being the amplitude of J+^k |jm>.
"""

from functools import lru_cache
from math import factorial

from ._rat import Q, num
from .kernel import scalar_key, sqrt_split
from .scalar import ZERO, RadScalar, sqrt_nat


def magnetics(twoj):
    """Doubled magnetic numbers of spin twoj/2, descending from +2j."""
    return range(twoj, -twoj - 2, -2)


def check_spin(*twojs):
    for twoj in twojs:
        if twoj < 0:
            raise ValueError(f"spin {twoj}/2 must be non-negative")


def _binom(e, k: int):
    out = Q(1)
    for i in range(k):
        out = out * (e - i) / (k - i)
    return out


@lru_cache(maxsize=None)
def power_one_minus(twoj: int, exponent) -> dict:
    """(1 - 2h J+)^exponent as {(2m', 2m): c}, by the closed form of the
    module docstring.

    The exponent may be any rational (half-integers appear throughout the
    twist); the result equals exp(-exponent * sigma).
    """
    e = Q(exponent)
    out = {}
    for twom in magnetics(twoj):
        a, b = (twoj - twom) // 2, (twoj + twom) // 2
        for k in range(a + 1):
            c = _binom(e, k)
            if c:
                amp = factorial(a) // factorial(a - k) * factorial(b + k) // factorial(b)
                s, r = sqrt_split(amp)
                out[(twom + 2 * k, twom)] = RadScalar({scalar_key(r, k): num((-2) ** k * s * c)})
    return out


def pair_basis(twoj1, twoj2):
    """The product basis as (m1, m2) pairs, in matrix index order."""
    return [(m1, m2) for m1 in magnetics(twoj1) for m2 in magnetics(twoj2)]


def rows(matrix):
    """A sparse matrix read once into rows {row: [(col, c), ...]}, zero
    entries left out.  A contraction over one index of the matrix is then
    a sum over one row."""
    out = {}
    for (row, col), c in matrix.items():
        if not c.is_zero():
            out.setdefault(row, []).append((col, c))
    return out


def transpose(matrix):
    return {(col, row): c for (row, col), c in matrix.items()}


def matmul(a: dict, b: dict) -> dict:
    """The product of two sparse matrices {(row, col): c}, zeros left out:
    each entry of a meets the row of b its column names."""
    b_rows = rows(b)
    out = {}
    for (row, mid), c in a.items():
        for col, d in b_rows.get(mid, ()):
            out[(row, col)] = out.get((row, col), ZERO) + c * d
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def f_matrix(twoj1: int, twoj2: int) -> dict:
    """Twist matrix F = exp(-1/2 J0 x sigma) on the product basis.

    Block diagonal over the first magnetic number: the column block with
    first slot value s1 is (1 - 2h J+)^(s1) acting on the second slot.
    """
    return _f_like(twoj1, twoj2, +1)


@lru_cache(maxsize=None)
def f_inv_matrix(twoj1: int, twoj2: int) -> dict:
    return _f_like(twoj1, twoj2, -1)


def _f_like(twoj1, twoj2, sign):
    check_spin(twoj1, twoj2)
    return {
        ((twos1, twom2), (twos1, twos2)): c
        for twos1 in magnetics(twoj1)
        for (twom2, twos2), c in power_one_minus(twoj2, Q(sign * twos1, 2)).items()
    }


@lru_cache(maxsize=None)
def r_matrix(twoj1: int, twoj2: int) -> dict:
    """R = F21 F^{-1} on the product basis of (twoj1, twoj2)."""
    f21 = {
        ((a1, a2), (b1, b2)): c
        for ((a2, a1), (b2, b1)), c in f_matrix(twoj2, twoj1).items()
    }
    return matmul(f21, f_inv_matrix(twoj1, twoj2))


# ---------------------------------------------------------------------
# Clebsch-Gordan coefficients: each table is a matrix
# {((twom1, twom2), twom): RadScalar} for fixed (j1, j2, j), zeros left out
# ---------------------------------------------------------------------


def triangle(twoj1, twoj2):
    """The doubled spins 2j that couple twoj1/2 and twoj2/2, ascending."""
    return range(abs(twoj1 - twoj2), twoj1 + twoj2 + 2, 2)


def triangle_ok(twoj1, twoj2, twoj):
    return (
        abs(twoj1 - twoj2) <= twoj <= twoj1 + twoj2
        and (twoj1 + twoj2 + twoj) % 2 == 0
    )


def _check_triangle(twoj1, twoj2, twoj):
    if not triangle_ok(twoj1, twoj2, twoj):
        raise ValueError(
            f"spins ({twoj1}/2, {twoj2}/2, {twoj}/2) violate the triangle condition"
        )


@lru_cache(maxsize=None)
def cgc_classical(twoj1: int, twoj2: int, twoj: int) -> dict:
    """Classical sl(2) CGC by the closed finite sum, Condon-Shortley phases;
    each entry takes one square root of its product of factorials."""
    _check_triangle(twoj1, twoj2, twoj)
    f = factorial
    ja = (twoj1 + twoj2 - twoj) // 2
    jb = (twoj1 - twoj2 + twoj) // 2
    jc = (-twoj1 + twoj2 + twoj) // 2
    jt = (twoj1 + twoj2 + twoj) // 2 + 1
    pref = (twoj + 1) * f(ja) * f(jb) * f(jc) * f(jt)
    table = {}
    for twom in magnetics(twoj):
        for twom1 in magnetics(twoj1):
            twom2 = twom - twom1
            if abs(twom2) > twoj2:
                continue
            a1 = (twoj1 + twom1) // 2
            b1 = (twoj1 - twom1) // 2
            a2 = (twoj2 + twom2) // 2
            b2 = (twoj2 - twom2) // 2
            am = (twoj + twom) // 2
            bm = (twoj - twom) // 2
            # van der Waerden sum bounds
            t1 = (twoj - twoj2 + twom1) // 2  # j - j2 + m1
            t2 = (twoj - twoj1 - twom2) // 2  # j - j1 - m2
            klo = max(0, -t1, -t2)
            khi = min(ja, b1, a2)
            s = Q(0)
            for k in range(klo, khi + 1):
                den = f(k) * f(ja - k) * f(b1 - k) * f(a2 - k) * f(t1 + k) * f(t2 + k)
                s += Q(-1 if k % 2 else 1, den)
            if s:
                root = sqrt_nat(pref * f(a1) * f(b1) * f(a2) * f(b2) * f(am) * f(bm))
                table[((twom1, twom2), twom)] = root.scaled(s / f(jt))
    return table


@lru_cache(maxsize=None)
def omega(twoj1: int, twoj2: int, twoj: int) -> dict:
    """Coupling CGC of the twisted algebra: F times the classical table."""
    return matmul(f_matrix(twoj1, twoj2), cgc_classical(twoj1, twoj2, twoj))


@lru_cache(maxsize=None)
def mho(twoj1: int, twoj2: int, twoj: int) -> dict:
    """Decoupling CGC of the twisted algebra: (F^-1)^T times the classical
    table."""
    return matmul(transpose(f_inv_matrix(twoj1, twoj2)), cgc_classical(twoj1, twoj2, twoj))
