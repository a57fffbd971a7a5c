"""Representation-function matrices D^j in their equivalent closed forms.

Three deformed constructions and the classical limit are provided:

  ordered1   sum over (K, L, M, N) of X_K v^L U_{K,L,M} Y_{K,L,M,N}
  ordered2   sum over (K, L, M, N) of U_M X_{K,M} Y_{K,M,N} v^L
  jacobi     Jacobi-polynomial form, four sign cases, SL ring only
  classical  the undeformed matrix element (h = 0)

The exponents run over non-negative integers constrained by

  K + L = j + m,   M + N = j - m,   K + M = j + m',  L + N = j - m',

and every product factor is an explicit linear polynomial in the
generators; empty products are 1.  The equality of all these forms, entry
by entry after normal ordering, is one of the central verified facts of
the package.
"""

from functools import lru_cache
from math import comb, factorial

from ._rat import Q
from . import ncalg
from .exprio import render_latex, render_text
from .ncalg import GL, SL, NCPoly
from .rep import check_spin, mag_index, magnetics
from .scalar import H, RadScalar, rational, sqrt_nat

ORDERED1 = "ordered1"
ORDERED2 = "ordered2"
JACOBI = "jacobi"
CLASSICAL = "classical"
SCHEMES = (ORDERED1, ORDERED2, JACOBI, CLASSICAL)


def iter_klmn(twoj, twomp, twom):
    """All (K, L, M, N) solving the four exponent-sum constraints."""
    p = (twoj + twom) // 2  # K + L
    q = (twoj - twom) // 2  # M + N
    r = (twoj + twomp) // 2  # K + M
    for K in range(max(0, r - q), min(p, r) + 1):
        yield K, p - K, r - K, q - r + K


def check_indices(twoj, twomp, twom):
    check_spin(twoj)
    for twomm in (twomp, twom):
        if abs(twomm) > twoj or (twoj - twomm) % 2:
            raise ValueError(
                f"invalid magnetic index {twomm}/2 for spin {twoj}/2"
            )


def norm_factor(twoj, twomp, twom) -> RadScalar:
    out = sqrt_nat(factorial((twoj + twomp) // 2))
    out = out * sqrt_nat(factorial((twoj - twomp) // 2))
    out = out * sqrt_nat(factorial((twoj + twom) // 2))
    return out * sqrt_nat(factorial((twoj - twom) // 2))


def _lin(ring, parts):
    """Linear combination of generators: parts maps name -> RadScalar."""
    out = NCPoly.zero(ring)
    for name, coef in parts:
        if isinstance(coef, int):
            coef = rational(coef)
        if not coef.is_zero():
            out = out + NCPoly.generator(name, ring).scaled(coef)
    return out


def _hmul(k: int) -> RadScalar:
    return H.scaled(Q(k))


def jacobi_poly(n: int, alpha: int, beta: int, z: NCPoly) -> NCPoly:
    """P_n^(alpha,beta) as the terminating series sum_r c_r z^r with

        c_r = (-n)_r (alpha+beta+n+1)_r / ((1)_r (alpha+1)_r).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative for this series")
    out = NCPoly.one(z.ring)
    zr = NCPoly.one(z.ring)
    c = Q(1)
    for r in range(n):
        c = c * (-n + r) * (alpha + beta + n + 1 + r)
        c = c / ((1 + r) * (alpha + 1 + r))
        zr = zr * z
        out = out + zr.scaled(c)
    return out


def _ordered1_term(K, L, M, N, ring):
    term = NCPoly.one(ring)
    for i in range(K):
        term = term * _lin(ring, [("x", 1), ("v", _hmul(i))])
    for _ in range(L):
        term = term * NCPoly.generator("v", ring)
    for i in range(M, 0, -1):
        term = term * _lin(
            ring,
            [
                ("u", 1),
                ("x", -_hmul(K + L - M + i)),
                ("y", _hmul(K - L + M - i)),
                ("v", -(H * H).scaled(Q(K * K - (L - M + i) ** 2))),
            ],
        )
    for t in range(N):
        term = term * _lin(ring, [("y", 1), ("v", -_hmul(K + L - M - t))])
    return term


def _ordered2_term(K, L, M, N, ring):
    term = NCPoly.one(ring)
    for i in range(M):
        term = term * _lin(
            ring,
            [
                ("u", 1),
                ("x", _hmul(i)),
                ("y", _hmul(i)),
                ("v", (H * H).scaled(Q(i * i))),
            ],
        )
    for t in range(K):
        term = term * _lin(ring, [("x", 1), ("v", _hmul(M + t))])
    for t in range(N):
        term = term * _lin(ring, [("y", 1), ("v", -_hmul(K - M - t))])
    for _ in range(L):
        term = term * NCPoly.generator("v", ring)
    return term


def _ordered_sum(twoj, twomp, twom, ring, term_builder):
    out = NCPoly.zero(ring)
    norm = norm_factor(twoj, twomp, twom)
    for K, L, M, N in iter_klmn(twoj, twomp, twom):
        coef = norm.scaled(
            Q(1, factorial(K) * factorial(L) * factorial(M) * factorial(N))
        )
        out = out + term_builder(K, L, M, N, ring).scaled(coef)
    return out


def _jacobi_form(twoj, twomp, twom):
    ring = SL
    z = -(NCPoly.generator("u", ring) * NCPoly.generator("v", ring))
    mp_minus_m = (twomp - twom) // 2
    mp_plus_m = (twomp + twom) // 2
    plus = twomp + twom >= 0
    upper = twomp >= twom

    if upper:
        # factors u (u + h(x+y) + h^2 v) ... for the m' >= m cases
        lead = NCPoly.one(ring)
        for i in range(mp_minus_m):
            lead = lead * _lin(
                ring,
                [
                    ("u", 1),
                    ("x", _hmul(i)),
                    ("y", _hmul(i)),
                    ("v", (H * H).scaled(Q(i * i))),
                ],
            )
    if plus and upper:
        n = (twoj - twomp) // 2
        series = jacobi_poly(n, mp_minus_m, mp_plus_m, z)
        tail = NCPoly.one(ring)
        for t in range(mp_minus_m, mp_minus_m + mp_plus_m):
            tail = tail * _lin(ring, [("x", 1), ("v", _hmul(t))])
        nrm = sqrt_nat(comb((twoj + twomp) // 2, mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj - twom) // 2, mp_minus_m))
        return (series * lead * tail).scaled(nrm)
    if plus and not upper:
        n = (twoj - twom) // 2
        series = jacobi_poly(n, -mp_minus_m, mp_plus_m, z)
        tail = NCPoly.one(ring)
        for t in range(mp_plus_m):
            tail = tail * _lin(ring, [("x", 1), ("v", _hmul(t))])
        for _ in range(-mp_minus_m):
            tail = tail * NCPoly.generator("v", ring)
        nrm = sqrt_nat(comb((twoj - twomp) // 2, -mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj + twom) // 2, -mp_minus_m))
        return (series * tail).scaled(nrm)
    if not plus and upper:
        n = (twoj + twom) // 2
        series = jacobi_poly(n, mp_minus_m, -mp_plus_m, z)
        tail = NCPoly.one(ring)
        for s in range(-mp_plus_m):
            t = -mp_minus_m - s  # from m - m' down to 2m + 1
            tail = tail * _lin(ring, [("y", 1), ("v", -_hmul(t))])
        nrm = sqrt_nat(comb((twoj + twomp) // 2, mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj - twom) // 2, mp_minus_m))
        return (series * lead * tail).scaled(nrm)
    # m' + m <= 0, m' <= m
    n = (twoj + twomp) // 2
    series = jacobi_poly(n, -mp_minus_m, -mp_plus_m, z)
    tail = NCPoly.one(ring)
    for _ in range(-mp_minus_m):
        tail = tail * NCPoly.generator("v", ring)
    for s in range(-mp_plus_m):
        t = -mp_minus_m - s
        tail = tail * _lin(ring, [("y", 1), ("v", -_hmul(t))])
    nrm = sqrt_nat(comb((twoj - twomp) // 2, -mp_minus_m))
    nrm = nrm * sqrt_nat(comb((twoj + twom) // 2, -mp_minus_m))
    return (series * tail).scaled(nrm)


def _classical(twoj, twomp, twom, ring):
    terms = {}
    norm = norm_factor(twoj, twomp, twom)
    for K, L, M, N in iter_klmn(twoj, twomp, twom):
        coef = norm.scaled(
            Q(1, factorial(K) * factorial(L) * factorial(M) * factorial(N))
        )
        terms[(L, K, N, M)] = coef  # v^L x^K y^N u^M, a normal GL word
    out = NCPoly(GL, terms)
    if ring == SL:
        out = out.with_ring(SL)
    return out.specialize(h_value=0, g_value=0)


@lru_cache(maxsize=None)
def dfunc(twoj: int, twomp: int, twom: int, scheme=ORDERED1, ring=SL) -> NCPoly:
    """One matrix element D^j_{m'm} in normal form."""
    ncalg.check_ring(ring)
    check_indices(twoj, twomp, twom)
    if scheme == ORDERED1:
        return _ordered_sum(twoj, twomp, twom, ring, _ordered1_term)
    if scheme == ORDERED2:
        return _ordered_sum(twoj, twomp, twom, ring, _ordered2_term)
    if scheme == JACOBI:
        if ring != SL:
            raise ValueError("the Jacobi form assumes determinant 1 (SL ring)")
        return _jacobi_form(twoj, twomp, twom)
    if scheme == CLASSICAL:
        return _classical(twoj, twomp, twom, ring)
    raise ValueError(f"unknown scheme {scheme!r}")


class DFunctionMatrix:
    """(2j+1) x (2j+1) matrix of D-function entries.

    Rows are indexed by m' descending, columns by m descending.
    """

    def __init__(self, twoj, ring, scheme, entries):
        self.twoj = twoj
        self.ring = ring
        self.scheme = scheme
        self.entries = entries

    def entry(self, twomp, twom) -> NCPoly:
        return self.entries[mag_index(self.twoj, twomp)][mag_index(self.twoj, twom)]

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def to_json(self):
        return {
            "twoj": self.twoj,
            "ring": self.ring,
            "scheme": self.scheme,
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    def to_text(self) -> str:
        lines = []
        for twomp, row in zip(magnetics(self.twoj), self.entries):
            for twom, p in zip(magnetics(self.twoj), row):
                lines.append(f"D[{twomp}/2,{twom}/2] = {render_text(p)}")
        return "\n".join(lines)

    def to_latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(render_latex(p) for p in row) for row in self.entries
        )
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def dmatrix(twoj: int, scheme=ORDERED1, ring=SL) -> DFunctionMatrix:
    """The full D^j matrix in the requested scheme."""
    check_spin(twoj)
    entries = [
        [dfunc(twoj, twomp, twom, scheme, ring) for twom in magnetics(twoj)]
        for twomp in magnetics(twoj)
    ]
    return DFunctionMatrix(twoj, ring, scheme, entries)
