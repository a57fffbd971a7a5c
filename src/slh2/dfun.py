"""Representation-function matrices D^j in their equivalent closed forms.

Three deformed constructions and the classical limit are provided:

  ordered1   sum over (K, L, M, N) of X_K v^L U_{K,L,M} Y_{K,L,M,N}
  ordered2   sum over (K, L, M, N) of U_M X_{K,M} Y_{K,M,N} v^L
  jacobi     Jacobi-polynomial form, SL ring only
  classical  the undeformed matrix element (h = 0)

The exponents run over non-negative integers constrained by

  K + L = j + m,   M + N = j - m,   K + M = j + m',  L + N = j - m',

and every product factor is an explicit linear polynomial in the
generators; empty products are 1.  The equality of all these forms, entry
by entry after normal ordering, is one of the central verified facts of
the package.

An ordered term of degree K + L + M + N is a term of degree one less
times one more linear factor, so the terms of all spins form a trie, and
_term builds each as its parent's term times its last factor (the same
products in the same order as building it from 1, so the same exact
polynomial).  The parent of a node drops its last factor:

  ordered1 (K, L, M, N)
    N > 0   (K, L, M, N-1)  times  y - h(K+L-M-N+1) v
    M > 0   (K, L, M-1, 0)  times  u - h(K+L-s) x + h(K-L+s) y
                                     - h^2 (K^2 - (L-s)^2) v,  s = M-1
    L > 0   (K, L-1, 0, 0)  times  v
    else    (K-1, 0, 0, 0)  times  x + h(K-1) v

  ordered2 (K, L, M, N)
    L > 0   (K, L-1, M, N)  times  v
    N > 0   (K, 0, M, N-1)  times  y - h(K-M-N+1) v
    K > 0   (K-1, 0, M, 0)  times  x + h(M+K-1) v
    else    (0, 0, M-1, 0)  times  u + h t x + h t y + h^2 t^2 v,  t = M-1

so an ordered1 node has 1 + [N=0] + [M=N=0] + [L=M=N=0] children and an
ordered2 node 1 + [L=0] + [L=N=0] + [L=N=K=0].  _TERM_MEMO stores each
term that _term builds, the leaves that dfunc sums included, and drops a
stored term once each of its children has been stored.  So after the
matrices of spin j and below (in one scheme and ring) the memo holds the
terms of degree 2j alone, the parents of the matrix of spin j + 1/2,
which builds each of its terms with one product.  The memo decides only
what is rebuilt, never a value.
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
    return H.scaled(k)


_H2 = H * H


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


# The linear factors.


def _x(ring, t):
    """x + h t v."""
    return _lin(ring, [("x", 1), ("v", _hmul(t))])


def _y(ring, t):
    """y - h t v."""
    return _lin(ring, [("y", 1), ("v", -_hmul(t))])


def _u(ring, t):
    """u + h t x + h t y + h^2 t^2 v."""
    return _lin(ring, [("u", 1), ("x", _hmul(t)), ("y", _hmul(t)), ("v", _H2.scaled(t * t))])


def _run(term, factor, ts):
    """term times factor(ring, t) for each t, in the order of ts."""
    for t in ts:
        term = term * factor(term.ring, t)
    return term


def _v_run(term, n):
    """term * v^n."""
    v = NCPoly.generator("v", term.ring)
    for _ in range(n):
        term = term * v
    return term


# The ordered terms as a trie: the parent of a node drops its last factor.


def _ordered1_parent(K, L, M, N, ring):
    """(parent, last factor) of the ordered1 node (K, L, M, N) != 0, the
    product X_K v^L U_{K,L,M} Y_{K,L,M,N}."""
    if N:
        return (K, L, M, N - 1), _y(ring, K + L - M - N + 1)
    if M:
        s = M - 1
        return (K, L, s, 0), _lin(
            ring,
            [
                ("u", 1),
                ("x", -_hmul(K + L - s)),
                ("y", _hmul(K - L + s)),
                ("v", -_H2.scaled(K * K - (L - s) ** 2)),
            ],
        )
    if L:
        return (K, L - 1, 0, 0), NCPoly.generator("v", ring)
    return (K - 1, 0, 0, 0), _x(ring, K - 1)


def _ordered2_parent(K, L, M, N, ring):
    """(parent, last factor) of the ordered2 node (K, L, M, N) != 0, the
    product U_M X_{K,M} Y_{K,M,N} v^L."""
    if L:
        return (K, L - 1, M, N), NCPoly.generator("v", ring)
    if N:
        return (K, 0, M, N - 1), _y(ring, K - M - N + 1)
    if K:
        return (K - 1, 0, M, 0), _x(ring, M + K - 1)
    return (0, 0, M - 1, 0), _u(ring, M - 1)


def _ordered1_children(K, L, M, N):
    return 1 + (N == 0) + (M == N == 0) + (L == M == N == 0)


def _ordered2_children(K, L, M, N):
    return 1 + (L == 0) + (L == N == 0) + (L == N == K == 0)


_TRIE = {
    ORDERED1: (_ordered1_parent, _ordered1_children),
    ORDERED2: (_ordered2_parent, _ordered2_children),
}

# (scheme, ring, K, L, M, N) -> [term, children not yet stored]
_TERM_MEMO = {}


def _term(scheme, klmn, ring):
    """The ordered term of klmn, built as its parent's term times its last
    factor.  Each term built is stored, and a stored term is dropped once
    each of its children has been stored.  A term stored a second time
    counts again against its parent, which may then be dropped early:
    that costs a rebuild, never a value."""
    parent_of, children = _TRIE[scheme]
    tag = (scheme, ring)
    path = []
    while any(klmn) and tag + klmn not in _TERM_MEMO:
        parent, factor = parent_of(*klmn, ring)
        path.append((klmn, parent, factor))
        klmn = parent
    term = _TERM_MEMO[tag + klmn][0] if any(klmn) else NCPoly.one(ring)
    for node, parent, factor in reversed(path):
        term = term * factor
        _TERM_MEMO[tag + node] = [term, children(*node)]
        up = _TERM_MEMO.get(tag + parent)
        if up is not None:
            up[1] -= 1
            if not up[1]:
                del _TERM_MEMO[tag + parent]
    return term


def _ordered_sum(twoj, twomp, twom, ring, scheme):
    return ncalg.lincomb(
        ((coef, _term(scheme, klmn, ring)) for klmn, coef in iter_klmn(twoj, twomp, twom)),
        ring,
    )


def _jacobi_form(twoj, twomp, twom):
    """P_n^(a,b)(-uv) times the u-run (m' >= m), then the x-run (m' + m
    >= 0) or the y-run, with v^a after the x-run or before the y-run
    (m' < m); a = |m' - m|, b = |m' + m| and n = j - max(|m|, |m'|)."""
    ring = SL
    d, s = (twomp - twom) // 2, (twomp + twom) // 2
    a, b = abs(d), abs(s)
    up, va = max(d, 0), max(-d, 0)
    z = -(NCPoly.generator("u", ring) * NCPoly.generator("v", ring))
    n = (twoj - max(abs(twomp), abs(twom))) // 2
    term = _run(jacobi_poly(n, a, b, z), _u, range(up))
    if s >= 0:
        term = _v_run(_run(term, _x, range(up, up + s)), va)
    else:
        # t runs from m - m' down to 2m + 1 in the y factors
        term = _run(_v_run(term, va), _y, range(-d, -d + s, -1))
    p, q = (twomp, twom) if d >= 0 else (twom, twomp)
    nrm = sqrt_nat(comb((twoj + p) // 2, a)) * sqrt_nat(comb((twoj - q) // 2, a))
    return term.scaled(nrm)


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
    if scheme in _TRIE:
        return _ordered_sum(twoj, twomp, twom, ring, scheme)
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
