"""Finite-dimensional representation data of the twisted algebra U_h(sl(2)).

Spins and magnetic numbers are stored doubled (twoj = 2j, twom = 2m) so
that all index arithmetic stays in integers.  Matrix bases are ordered by
magnetic number DESCENDING, from +j down to -j; on a product of two spins
the ordering is (m1 descending, then m2 descending).  With this choice
the raising generator and the twist exponent sigma = -ln(1 - 2h J+) are
strictly upper triangular and every series below terminates by nilpotency.

Conventions: J0|jm> = 2m|jm>, J+-|jm> = sqrt((j-+m)(j+-m+1)) |j,m+-1>,
which realize [J0, J+-] = +-2 J+- and [J+, J-] = J0 exactly.
"""

from functools import lru_cache
from math import factorial

from ._rat import Q
from .scalar import ONE, ZERO, H, RadScalar, rational, sqrt_nat

_TWO_H = H + H


def magnetics(twoj):
    """Doubled magnetic numbers of spin twoj/2, descending from +2j."""
    return range(twoj, -twoj - 2, -2)


def check_spin(*twojs):
    for twoj in twojs:
        if twoj < 0:
            raise ValueError(f"spin {twoj}/2 must be non-negative")


def mag_index(twoj, twom):
    if abs(twom) > twoj or (twoj - twom) % 2:
        raise ValueError(f"invalid magnetic number {twom}/2 for spin {twoj}/2")
    return (twoj - twom) // 2


class RepMatrix:
    """Dense square matrix over RadScalar."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    @staticmethod
    def zeros(n):
        return RepMatrix([[ZERO] * n for _ in range(n)])

    @staticmethod
    def identity(n):
        return RepMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @property
    def n(self):
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, RepMatrix) and self.rows == other.rows

    def __add__(self, other):
        return RepMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return RepMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, RadScalar):
            return self.scaled(other)
        n = self.n
        rows = []
        for i in range(n):
            ri = self.rows[i]
            row = []
            for j in range(n):
                s = ZERO
                for k in range(n):
                    a = ri[k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if not b.is_zero():
                        s = s + a * b
                row.append(s)
            rows.append(row)
        return RepMatrix(rows)

    def scaled(self, c):
        return RepMatrix([[c * a for a in row] for row in self.rows])

    @staticmethod
    def lincomb(pairs, n):
        """The n x n sum of c * m over (c, m) pairs."""
        rows = [[ZERO] * n for _ in range(n)]
        for c, m in pairs:
            if c.is_zero():
                continue
            for row, mrow in zip(rows, m.rows):
                for j, a in enumerate(mrow):
                    if not a.is_zero():
                        row[j] = row[j] + c * a
        return RepMatrix(rows)

    def is_zero(self):
        return all(a.is_zero() for row in self.rows for a in row)

    def specialize(self, h_value):
        return RepMatrix([[a.specialize(h_value) for a in row] for row in self.rows])

    def to_json(self):
        return [[a.to_json() for a in row] for row in self.rows]

    def __repr__(self):
        return "\n".join(
            "[" + ", ".join(repr(a) for a in row) + "]" for row in self.rows
        )


def kron(a: RepMatrix, b: RepMatrix) -> RepMatrix:
    na, nb = a.n, b.n
    rows = []
    for i1 in range(na):
        for i2 in range(nb):
            row = []
            for j1 in range(na):
                aij = a.rows[i1][j1]
                if aij.is_zero():
                    row.extend([ZERO] * nb)
                else:
                    row.extend(aij * b.rows[i2][j2] for j2 in range(nb))
            rows.append(row)
    return RepMatrix(rows)


def nilpotent_exp(m: RepMatrix) -> RepMatrix:
    """exp of a nilpotent matrix, summed until the power vanishes."""
    powers = [RepMatrix.identity(m.n)]
    while True:
        term = powers[-1] * m
        if term.is_zero():
            pairs = ((rational(1, factorial(k)), p) for k, p in enumerate(powers))
            return RepMatrix.lincomb(pairs, m.n)
        if len(powers) > m.n:
            raise ArithmeticError("matrix is not nilpotent")
        powers.append(term)


@lru_cache(maxsize=None)
def j_matrices(twoj: int):
    """(J0, J+, J-) of the spin-twoj/2 irrep, exact."""
    n = twoj + 1
    j0 = RepMatrix.zeros(n)
    jp = RepMatrix.zeros(n)
    jm = RepMatrix.zeros(n)
    for i, twom in enumerate(magnetics(twoj)):
        j0.rows[i][i] = RadScalar.from_rational(twom)
        if twom < twoj:
            # J+|j m> = sqrt((j-m)(j+m+1)) |j m+1>: row i-1, column i
            amp = (twoj - twom) * (twoj + twom + 2) // 4
            jp.rows[i - 1][i] = sqrt_nat(amp)
        if twom > -twoj:
            amp = (twoj + twom) * (twoj - twom + 2) // 4
            jm.rows[i + 1][i] = sqrt_nat(amp)
    return j0, jp, jm


@lru_cache(maxsize=None)
def _jp_power(twoj: int, k: int) -> RepMatrix:
    if k == 0:
        return RepMatrix.identity(twoj + 1)
    return _jp_power(twoj, k - 1) * j_matrices(twoj)[1]


@lru_cache(maxsize=None)
def sigma_matrix(twoj: int) -> RepMatrix:
    """sigma = -ln(1 - 2h J+) = sum_{n>=1} (2h J+)^n / n, a finite sum."""
    pairs = (((_TWO_H**k).scaled(Q(1, k)), _jp_power(twoj, k)) for k in range(1, twoj + 1))
    return RepMatrix.lincomb(pairs, twoj + 1)


def _binom(e, k: int):
    out = Q(1)
    for i in range(k):
        out = out * (e - i) / (k - i)
    return out


@lru_cache(maxsize=None)
def power_one_minus(twoj: int, exponent) -> RepMatrix:
    """(1 - 2h J+)^exponent by the binomial series, exact by nilpotency.

    The exponent may be any rational (half-integers appear throughout the
    twist); the result equals exp(-exponent * sigma).
    """
    e = Q(exponent)
    pairs = ((((-_TWO_H) ** k).scaled(_binom(e, k)), _jp_power(twoj, k)) for k in range(twoj + 1))
    return RepMatrix.lincomb(pairs, twoj + 1)


def prod_index(twoj1, twoj2, twom1, twom2):
    return mag_index(twoj1, twom1) * (twoj2 + 1) + mag_index(twoj2, twom2)


def pair_basis(twoj1, twoj2):
    """The product basis as (m1, m2) pairs, in matrix index order."""
    return [(m1, m2) for m1 in magnetics(twoj1) for m2 in magnetics(twoj2)]


def pair_items(mat, twoj1, twoj2):
    """The non-zero entries of a product-basis matrix as ((row, col), c),
    row and col (m1, m2) pairs."""
    basis = pair_basis(twoj1, twoj2)
    for row, mrow in zip(basis, mat.rows):
        for col, c in zip(basis, mrow):
            if not c.is_zero():
                yield (row, col), c


def rows(items, split):
    """A sparse table read once into rows {row: [(col, c), ...]}, where
    split(key) = (row, col); zero entries are left out.  A contraction
    over one index of the table is then a sum over one row."""
    out = {}
    for key, c in items:
        if not c.is_zero():
            row, col = split(key)
            out.setdefault(row, []).append((col, c))
    return out


@lru_cache(maxsize=None)
def f_matrix(twoj1: int, twoj2: int) -> RepMatrix:
    """Twist matrix F = exp(-1/2 J0 x sigma) on the product basis.

    Block diagonal over the first magnetic number: the column block with
    first slot value s1 is (1 - 2h J+)^(s1) acting on the second slot.
    """
    return _f_like(twoj1, twoj2, +1)


@lru_cache(maxsize=None)
def f_inv_matrix(twoj1: int, twoj2: int) -> RepMatrix:
    return _f_like(twoj1, twoj2, -1)


def _f_like(twoj1, twoj2, sign):
    check_spin(twoj1, twoj2)
    n1, n2 = twoj1 + 1, twoj2 + 1
    out = RepMatrix.zeros(n1 * n2)
    for i1, twos1 in enumerate(magnetics(twoj1)):
        block = power_one_minus(twoj2, Q(sign * twos1, 2))
        for i2 in range(n2):
            for j2 in range(n2):
                a = block.rows[i2][j2]
                if not a.is_zero():
                    out.rows[i1 * n2 + i2][i1 * n2 + j2] = a
    return out


@lru_cache(maxsize=None)
def r_matrix(twoj1: int, twoj2: int) -> RepMatrix:
    """R = F21 F^{-1} on the product basis of (twoj1, twoj2)."""
    f21 = RepMatrix.zeros((twoj1 + 1) * (twoj2 + 1))
    for ((a2, a1), (b2, b1)), c in pair_items(f_matrix(twoj2, twoj1), twoj2, twoj1):
        f21.rows[prod_index(twoj1, twoj2, a1, a2)][prod_index(twoj1, twoj2, b1, b2)] = c
    return f21 * f_inv_matrix(twoj1, twoj2)


# ---------------------------------------------------------------------
# Clebsch-Gordan coefficients: each table is a plain dict
# {(twom1, twom2, twom): RadScalar} for fixed (j1, j2, j), zeros left out
# ---------------------------------------------------------------------


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
    """Classical sl(2) CGC by the closed finite sum, Condon-Shortley phases."""
    _check_triangle(twoj1, twoj2, twoj)
    f = factorial
    ja = (twoj1 + twoj2 - twoj) // 2
    jb = (twoj1 - twoj2 + twoj) // 2
    jc = (-twoj1 + twoj2 + twoj) // 2
    jt = (twoj1 + twoj2 + twoj) // 2 + 1
    pref = sqrt_nat(twoj + 1)
    for m in (f(ja), f(jb), f(jc), f(jt)):
        pref = pref * sqrt_nat(m)
    pref = pref.scaled(Q(1, f(jt)))
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
            root = pref
            for m_ in (f(a1), f(b1), f(a2), f(b2), f(am), f(bm)):
                root = root * sqrt_nat(m_)
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
                table[(twom1, twom2, twom)] = root.scaled(s)
    return table


@lru_cache(maxsize=None)
def omega(twoj1: int, twoj2: int, twoj: int) -> dict:
    """Coupling CGC of the twisted algebra: classical CGC contracted with F."""
    return _twisted_cgc(twoj1, twoj2, twoj, f_matrix, False)


@lru_cache(maxsize=None)
def mho(twoj1: int, twoj2: int, twoj: int) -> dict:
    """Decoupling CGC of the twisted algebra, via the inverse twist."""
    return _twisted_cgc(twoj1, twoj2, twoj, f_inv_matrix, True)


def _twisted_cgc(twoj1, twoj2, twoj, twist, transpose):
    """table[m1, m2, m] = sum_{s1,s2} C(s1, s2, m) T[(m1, m2), (s1, s2)].

    T is twist(twoj1, twoj2), transposed when transpose is set: one pass
    over the classical items C(s1, s2, m), each spread down column
    (s1, s2) of T, and the sums that cancel are dropped at the end.
    """
    split = (lambda k: k) if transpose else (lambda k: k[::-1])
    cols = rows(pair_items(twist(twoj1, twoj2), twoj1, twoj2), split)
    table = {}
    for (twos1, twos2, twom), c in cgc_classical(twoj1, twoj2, twoj).items():
        for (twom1, twom2), a in cols.get((twos1, twos2), ()):
            key = (twom1, twom2, twom)
            table[key] = table.get(key, ZERO) + c * a
    return {k: v for k, v in table.items() if v}
