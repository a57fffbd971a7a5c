"""Representation-function matrices D^j in their equivalent closed forms.

Three deformed constructions and the classical limit are provided:

  ordered1   sum over (K, L, M, N) of X_K v^L U_{K,L,M} Y_{K,L,M,N}
  ordered2   sum over (K, L, M, N) of U_M X_{K,M} Y_{K,M,N} v^L
  jacobi     Jacobi-polynomial form, SL ring only
  classical  the undeformed matrix element (h = 0)

The exponents run over non-negative integers constrained by

  K + L = j + m,   M + N = j - m,   K + M = j + m',  L + N = j - m',

and every product factor is an explicit linear polynomial in the
generators; empty products are 1.  A factor is made straight as flat
terms (_lin): one key per generator, its letter key plus the h power
of its coefficient, with an int value, and no scalar arithmetic; the
run v^n is one product by the word v^n.  The equality of all these
forms, entry by entry after normal ordering, is one of the central
verified facts of the package.

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
stored term once each of its children that dfunc builds has been
stored.  So after the matrices of spin j and below (in one scheme and
ring) the memo holds the terms of degree 2j alone, the parents of the
matrix of spin j + 1/2, which builds each of its terms with one product.
The memo decides only what is rebuilt, never a value.

The half build.  Let sigma be the algebra automorphism that swaps x and
y and fixes v, u and h (ncalg.NCPoly.swap_xy).  It maps each matrix
antitransposed onto itself: sigma(D^j_{m'm}) = D^j_{-m,-m'}, with sign
+1, in every scheme.  In SL, sigma is a relabeling of the flat terms with
no product, so dfunc builds the entries with m' + m >= 0 by the closed
form and takes each entry with m' + m < 0 as sigma of its cached partner.
In GL sigma would need a rewrite; there the entries are lifts (below),
and the closed form in GL (_formula, which the tests read) builds every
entry.  The upper entries use only the nodes with K >= N, since
m' + m = K - N, and a parent of such a node has K >= N too.  So in SL a
node counts only its children that lead to an upper node of the degree
being built (of the next degree, for a leaf): the child (K, L, M, N + 1)
counts in ordered1 when K - N is at least the degrees still to climb,
and (K, 0, M, N + 1) in ordered2 when K > N.  An ordered1 node with
K == N > 0 has no such child and is not stored, so after spin j the SL
memo holds the degree-2j nodes with K >= N less those (41 of the 84
nodes at 2j = 6).  Caution: a lower SL entry is sigma of the formula,
not the formula evaluated.  tests/test_dfun.py checks that the two
agree for SL ordered1 with 2j <= 10 and for ordered2, jacobi and
classical with 2j <= 8; no proof that each closed form commutes with
sigma is given here.  The caution reaches the products of the suites
too: in SL, hopfcheck takes half of its D D and D-entry-times-letter
products as sigma of their partners, which is exact for the entries as
built, and so as far as a lower entry is the formula.

The lift to GL.  Let delta = xy - uv - h xv be the quantum determinant.
In GL, dfunc takes each ordered1 and ordered2 entry as
ncalg.lift_to_gl of the cached SL entry: each SL term c_w w times
delta^((2j - |w|)/2), normal-ordered in GL.  This is the closed form
evaluated in GL:

- every GL rule keeps word length, so GL is graded by degree; the closed
  form F is a sum of products of 2j linear factors, so homogeneous of
  degree 2j, and the lift L is homogeneous of degree 2j too;
- the quotient pi: GL -> SL (delta -> 1) maps both to the SL entry:
  pi(F) is the closed form in SL, pi(L) = sum c_w w;
- delta is central, and it is not a zero divisor: the normal words are
  a basis over the scalars, at h = 0 the rules make the generators
  commute and delta is xy - uv in a polynomial ring, and a nonzero b
  with delta b = 0 would be h^k b' with b' nonzero at h = 0 and
  delta b' = 0, false at h = 0;
- so pi is injective on each degree: if (delta - 1) b is homogeneous of
  degree n, its component of degree d is delta b_{d-2} - b_d; the top
  component b_t of b gives delta b_t = 0 unless t = n - 2, and the
  bottom one b_s = 0 unless s = n, so b = 0.  Hence F - L = 0.

So the GL matrices build no term of the trie.  Jacobi stays SL only and
classical keeps its formula in GL.  The caution above carries over: a
GL entry lifted from a lower SL entry is the closed form in GL as far as
that SL entry is.  tests/test_dfun.py compares dfunc with the closed
form in GL for ordered1 with 2j <= 8 and ordered2 with 2j <= 6, and
fock.twisted_dop_check evaluates the lifted ordered1 entries with
2j <= 4 on the Fock oracle.
"""

from functools import lru_cache
from math import comb, factorial, lcm

from ._rat import Q
from . import ncalg
from .exprio import render_latex, render_text
from .kernel import H_ONE, pack
from .ncalg import GL, LETTER_KEYS, SL, U, V, X, Y, NCPoly
from .rep import check_spin, magnetics
from .scalar import RadScalar, sqrt_nat

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
    """sqrt((j+m')! (j-m')! (j+m)! (j-m)!), one square root of the product."""
    return sqrt_nat(
        factorial((twoj + twomp) // 2) * factorial((twoj - twomp) // 2)
        * factorial((twoj + twom) // 2) * factorial((twoj - twom) // 2)
    )


def _lin(ring, *parts):
    """The linear factor sum of c h^k g over its (g, c, k) parts, for a
    generator index g and an int c, as flat terms: one key a part, a zero
    part left out."""
    return NCPoly(ring, {LETTER_KEYS[g] + k * H_ONE: c for g, c, k in parts if c})


def _jacobi_ints(n: int, alpha: int, beta: int, z: NCPoly):
    """(den, den * P_n^(alpha,beta)(z)) for den the lcm of the denominators
    of the c_r of jacobi_poly, so that the series has int coefficients."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative for this series")
    coefs = [Q(1)]
    for r in range(n):
        c = coefs[-1] * (-n + r) * (alpha + beta + n + 1 + r)
        coefs.append(c / ((1 + r) * (alpha + 1 + r)))
    den = lcm(*(c.denominator for c in coefs))
    zr = NCPoly.one(z.ring)
    pairs = []
    for r, c in enumerate(coefs):
        if r:
            zr = zr * z
        pairs.append((int(c * den), zr))
    return den, ncalg.lincomb(pairs, z.ring)


def jacobi_poly(n: int, alpha: int, beta: int, z: NCPoly) -> NCPoly:
    """P_n^(alpha,beta) as the terminating series sum_r c_r z^r with

        c_r = (-n)_r (alpha+beta+n+1)_r / ((1)_r (alpha+1)_r).
    """
    den, series = _jacobi_ints(n, alpha, beta, z)
    return series.scaled(Q(1, den))


# The linear factors.


def _x(ring, t):
    """x + h t v."""
    return _lin(ring, (X, 1, 0), (V, t, 1))


def _y(ring, t):
    """y - h t v."""
    return _lin(ring, (Y, 1, 0), (V, -t, 1))


def _u(ring, t):
    """u + h t x + h t y + h^2 t^2 v."""
    return _lin(ring, (U, 1, 0), (X, t, 1), (Y, t, 1), (V, t * t, 2))


def _run(term, factor, ts):
    """term times factor(ring, t) for each t, in the order of ts."""
    for t in ts:
        term = term * factor(term.ring, t)
    return term


def _v_run(term, n):
    """term * v^n, one product by the word v^n."""
    return term * NCPoly(term.ring, {pack(((n, 0, 0, 0),)): 1}) if n else term


# The ordered terms as a trie: the parent of a node drops its last factor.


def _ordered1_parent(K, L, M, N, ring):
    """(parent, last factor) of the ordered1 node (K, L, M, N) != 0, the
    product X_K v^L U_{K,L,M} Y_{K,L,M,N}."""
    if N:
        return (K, L, M, N - 1), _y(ring, K + L - M - N + 1)
    if M:
        s = M - 1
        return (K, L, s, 0), _lin(
            ring, (U, 1, 0), (X, s - K - L, 1), (Y, K - L + s, 1), (V, (L - s) ** 2 - K * K, 2)
        )
    if L:
        return (K, L - 1, 0, 0), _lin(ring, (V, 1, 0))
    return (K - 1, 0, 0, 0), _x(ring, K - 1)


def _ordered2_parent(K, L, M, N, ring):
    """(parent, last factor) of the ordered2 node (K, L, M, N) != 0, the
    product U_M X_{K,M} Y_{K,M,N} v^L."""
    if L:
        return (K, L - 1, M, N), _lin(ring, (V, 1, 0))
    if N:
        return (K, 0, M, N - 1), _y(ring, K - M - N + 1)
    if K:
        return (K - 1, 0, M, 0), _x(ring, M + K - 1)
    return (0, 0, M - 1, 0), _u(ring, M - 1)


def _ordered1_children(K, L, M, N, ring, ahead):
    """The children of the node that lead to an entry built at the degree
    `ahead` above the node (1: the next spin).  The closed form in GL
    builds every entry, so each child counts; SL builds those with
    K >= N alone, and the child (K, L, M, N + 1) leads only to the nodes
    (K, L, M, N + i), so it counts when K - N >= ahead."""
    return (ring == GL or K - N >= ahead) + (N == 0) + (M == N == 0) + (L == M == N == 0)


def _ordered2_children(K, L, M, N, ring, ahead):
    """As _ordered1_children.  The child (K, 0, M, N + 1), there when
    L == 0, leads to the nodes (K, i, M, N + 1) of every degree, so in SL
    it counts when K > N."""
    return 1 + (L == 0 and (ring == GL or K > N)) + (L == N == 0) + (L == N == K == 0)


_TRIE = {
    ORDERED1: (_ordered1_parent, _ordered1_children),
    ORDERED2: (_ordered2_parent, _ordered2_children),
}

# (scheme, ring, K, L, M, N) -> [term, children not yet stored]
_TERM_MEMO = {}


def _term(scheme, klmn, ring):
    """The ordered term of klmn, built as its parent's term times its last
    factor.  Each term built is stored with its count of children (for
    the degree of klmn, see _ordered1_children) and dropped once each of
    them has been stored; a term with no such child is not stored.  A
    term stored a second time counts again against its parent, which may
    then be dropped early: that costs a rebuild, never a value."""
    parent_of, children = _TRIE[scheme]
    tag = (scheme, ring)
    top = sum(klmn)
    path = []
    while any(klmn) and tag + klmn not in _TERM_MEMO:
        parent, factor = parent_of(*klmn, ring)
        path.append((klmn, parent, factor))
        klmn = parent
    term = _TERM_MEMO[tag + klmn][0] if any(klmn) else NCPoly.one(ring)
    for node, parent, factor in reversed(path):
        term = term * factor
        pending = children(*node, ring, max(top - sum(node), 1))
        if pending:
            _TERM_MEMO[tag + node] = [term, pending]
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
    (m' < m); a = |m' - m|, b = |m' + m| and n = j - max(|m|, |m'|).
    The series is taken times den (_jacobi_ints), so the products run on
    ints, and 1/den joins the norm at the end."""
    ring = SL
    d, s = (twomp - twom) // 2, (twomp + twom) // 2
    a, b = abs(d), abs(s)
    up, va = max(d, 0), max(-d, 0)
    z = -(NCPoly.generator("u", ring) * NCPoly.generator("v", ring))
    n = (twoj - max(abs(twomp), abs(twom))) // 2
    den, term = _jacobi_ints(n, a, b, z)
    term = _run(term, _u, range(up))
    if s >= 0:
        term = _v_run(_run(term, _x, range(up, up + s)), va)
    else:
        # t runs from m - m' down to 2m + 1 in the y factors
        term = _run(_v_run(term, va), _y, range(-d, -d + s, -1))
    p, q = (twomp, twom) if d >= 0 else (twom, twomp)
    nrm = sqrt_nat(comb((twoj + p) // 2, a) * comb((twoj - q) // 2, a))
    return term.scaled(nrm.scaled(Q(1, den)))


def _classical(twoj, twomp, twom, ring):
    # v^L x^K y^N u^M, a normal GL word
    terms = {(L, K, N, M): coef for (K, L, M, N), coef in iter_klmn(twoj, twomp, twom)}
    out = NCPoly.from_terms(GL, terms)
    if ring == SL:
        out = out.with_ring(SL)
    return out.specialize(h_value=0)


def _formula(twoj, twomp, twom, scheme, ring):
    """D^j_{m'm} by the closed form of the scheme, for every entry."""
    if scheme in _TRIE:
        return _ordered_sum(twoj, twomp, twom, ring, scheme)
    if scheme == JACOBI:
        if ring != SL:
            raise ValueError("the Jacobi form assumes determinant 1 (SL ring)")
        return _jacobi_form(twoj, twomp, twom)
    if scheme == CLASSICAL:
        return _classical(twoj, twomp, twom, ring)
    raise ValueError(f"unknown scheme {scheme!r}")


@lru_cache(maxsize=None)
def dfunc(twoj: int, twomp: int, twom: int, scheme=ORDERED1, ring=SL) -> NCPoly:
    """One matrix element D^j_{m'm} in normal form: in SL, an entry with
    m' + m < 0 is sigma of the entry D^j_{-m,-m'}; in GL, an ordered entry
    is the lift of its SL entry (see the module docstring); every other
    entry is the scheme's closed form."""
    ncalg.check_ring(ring)
    check_indices(twoj, twomp, twom)
    if ring == SL and twomp + twom < 0:
        return dfunc(twoj, -twom, -twomp, scheme, ring).swap_xy()
    if ring == GL and scheme in _TRIE:
        return ncalg.lift_to_gl(dfunc(twoj, twomp, twom, scheme, SL), twoj)
    return _formula(twoj, twomp, twom, scheme, ring)


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
        check_indices(self.twoj, twomp, twom)
        return self.entries[(self.twoj - twomp) // 2][(self.twoj - twom) // 2]

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
