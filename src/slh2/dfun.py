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
from .scalar import ONE, H, RadScalar, sqrt_nat

ORDERED1 = "ordered1"
ORDERED2 = "ordered2"
JACOBI = "jacobi"
CLASSICAL = "classical"
SCHEMES = (ORDERED1, ORDERED2, JACOBI, CLASSICAL)


def iter_klmn(twoj, twomp, twom):
    """All (K, L, M, N) solving the four exponent-sum constraints.

    Yields ((K, L, M, N), norm_factor / (K! L! M! N!)).
    """
    norm = norm_factor(twoj, twomp, twom)
    p = (twoj + twom) // 2  # K + L
    q = (twoj - twom) // 2  # M + N
    r = (twoj + twomp) // 2  # K + M
    for K in range(max(0, r - q), min(p, r) + 1):
        L, M, N = p - K, r - K, q - r + K
        coef = norm.scaled(Q(1, factorial(K) * factorial(L) * factorial(M) * factorial(N)))
        yield (K, L, M, N), coef


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
    """Linear combination of generators: parts holds (name, coefficient) pairs."""
    return ncalg.lincomb(((c, NCPoly.generator(name, ring)) for name, c in parts), ring)


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
    zr = NCPoly.one(z.ring)
    c = Q(1)
    pairs = [(ONE, zr)]
    for r in range(n):
        c = c * (-n + r) * (alpha + beta + n + 1 + r)
        c = c / ((1 + r) * (alpha + 1 + r))
        zr = zr * z
        pairs.append((c, zr))
    return ncalg.lincomb(pairs, z.ring)


# Runs of linear factors; each multiplies term on the right by one factor
# per t, in the order of ts.


def _x_run(term, ts):
    """term * prod_t (x + h t v)."""
    for t in ts:
        term = term * _lin(term.ring, [("x", 1), ("v", _hmul(t))])
    return term


def _y_run(term, ts):
    """term * prod_t (y - h t v)."""
    for t in ts:
        term = term * _lin(term.ring, [("y", 1), ("v", -_hmul(t))])
    return term


def _u_run(term, ts):
    """term * prod_t (u + h t x + h t y + h^2 t^2 v)."""
    for t in ts:
        term = term * _lin(
            term.ring,
            [("u", 1), ("x", _hmul(t)), ("y", _hmul(t)), ("v", (H * H).scaled(Q(t * t)))],
        )
    return term


def _v_run(term, n):
    """term * v^n."""
    v = NCPoly.generator("v", term.ring)
    for _ in range(n):
        term = term * v
    return term


def _ordered1_term(K, L, M, N, ring):
    term = _v_run(_x_run(NCPoly.one(ring), range(K)), L)
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
    return _y_run(term, (K + L - M - t for t in range(N)))


def _ordered2_term(K, L, M, N, ring):
    term = _x_run(_u_run(NCPoly.one(ring), range(M)), range(M, M + K))
    return _v_run(_y_run(term, (K - M - t for t in range(N))), L)


def _ordered_sum(twoj, twomp, twom, ring, term_builder):
    return ncalg.lincomb(
        ((coef, term_builder(*klmn, ring)) for klmn, coef in iter_klmn(twoj, twomp, twom)),
        ring,
    )


def _jacobi_form(twoj, twomp, twom):
    ring = SL
    one = NCPoly.one(ring)
    z = -(NCPoly.generator("u", ring) * NCPoly.generator("v", ring))
    mp_minus_m = (twomp - twom) // 2
    mp_plus_m = (twomp + twom) // 2
    plus = twomp + twom >= 0
    upper = twomp >= twom

    if upper:
        # factors u (u + h(x+y) + h^2 v) ... for the m' >= m cases
        lead = _u_run(one, range(mp_minus_m))
    if plus and upper:
        n = (twoj - twomp) // 2
        series = jacobi_poly(n, mp_minus_m, mp_plus_m, z)
        tail = _x_run(one, range(mp_minus_m, mp_minus_m + mp_plus_m))
        nrm = sqrt_nat(comb((twoj + twomp) // 2, mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj - twom) // 2, mp_minus_m))
        return (series * lead * tail).scaled(nrm)
    # t runs from m - m' down to 2m + 1 in the y factors
    y_ts = range(-mp_minus_m, -mp_minus_m + mp_plus_m, -1)
    if plus and not upper:
        n = (twoj - twom) // 2
        series = jacobi_poly(n, -mp_minus_m, mp_plus_m, z)
        tail = _v_run(_x_run(one, range(mp_plus_m)), -mp_minus_m)
        nrm = sqrt_nat(comb((twoj - twomp) // 2, -mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj + twom) // 2, -mp_minus_m))
        return (series * tail).scaled(nrm)
    if not plus and upper:
        n = (twoj + twom) // 2
        series = jacobi_poly(n, mp_minus_m, -mp_plus_m, z)
        tail = _y_run(one, y_ts)
        nrm = sqrt_nat(comb((twoj + twomp) // 2, mp_minus_m))
        nrm = nrm * sqrt_nat(comb((twoj - twom) // 2, mp_minus_m))
        return (series * lead * tail).scaled(nrm)
    # m' + m <= 0, m' <= m
    n = (twoj + twomp) // 2
    series = jacobi_poly(n, -mp_minus_m, -mp_plus_m, z)
    tail = _y_run(_v_run(one, -mp_minus_m), y_ts)
    nrm = sqrt_nat(comb((twoj - twomp) // 2, -mp_minus_m))
    nrm = nrm * sqrt_nat(comb((twoj + twom) // 2, -mp_minus_m))
    return (series * tail).scaled(nrm)


def _classical(twoj, twomp, twom, ring):
    # v^L x^K y^N u^M, a normal GL word
    terms = {(L, K, N, M): coef for (K, L, M, N), coef in iter_klmn(twoj, twomp, twom)}
    out = NCPoly.from_terms(GL, terms)
    if ring == SL:
        out = out.with_ring(SL)
    return out.specialize(h_value=0)


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
