"""Coproduct, counit and the executable corepresentation-law suites.

The coproduct is the matrix coalgebra on the generator matrix
[[x, u], [v, y]]:

    Delta(x) = x(x)x + u(x)v        Delta(u) = x(x)u + u(x)y
    Delta(v) = v(x)x + y(x)v        Delta(y) = v(x)u + y(x)y

extended as an algebra homomorphism, with counit eps(x) = eps(y) = 1,
eps(u) = eps(v) = 0.  Compatibility with the defining relations is itself
part of the test surface, not an assumption.

A tensor is a plain dict of 2-slot flat terms {key: q}, the NCPoly
layout with a word in each of the two slot fields of the key; tensor
builds one from NCPoly factors and tensor_text prints it.  coproduct
returns the 2-slot dict and counit a RadScalar; the counit test of a
term is a mask of its v and u fields.  Delta of a word is Delta(the
word without its last letter) times Delta(its last letter): the head's
slot-0 terms are grouped by their slot-1 word, and each group and each
letter pair of Delta(letter) make two slot products through ncalg._mul,
put together by kernel.outer_into.  It is memoised in _DELTA_MEMO per
word key with radicand 1 and int values.  The coproduct of a
polynomial is kernel.scale_into of each term's memo entry by the term's
scalar part and value, and tensor and the right sides of check_corep
are outer_into too: this module has no pair loop and no radicand rule
of its own, and moves no word between slots.

Delta commutes with sigma up to the flip tau of the two slots:
Delta sigma = tau (sigma (x) sigma) Delta, since sigma swaps T_11 with
T_22 of T = [[x, u], [v, y]] and fixes T_12 and T_21.  On a packed key
tau (sigma (x) sigma) is a permutation of the word fields, so in SL
check_corep takes Delta of each entry with m' + m < 0, which is sigma of
D_{-m,-m'} (see dfun), as that image of its partner's coproduct; every
case is still computed and reported, and GL calls no sigma.

The suites verify, by exact symbolic expansion: the corepresentation law
for D^j, the twisted product law and its corollaries, the eight
recurrence relations, the orthogonality-like relations, and the RTT
relations (including that at spin (1/2, 1/2) the RTT system spans exactly
the six defining relations).

With P = D^{j1} (x) D^{j2} on the product basis and the twisted CGC
tables Omega^j, mho^j, which rep returns as matrices with rows (m1, m2)
and columns m, the product law and its corollaries read

    mho^{j'}T P Omega^j = delta_{jj'} D^j      P Omega^j = Omega^j D^j
    mho^jT P = D^j mho^jT                      P = sum_j Omega^j D^j mho^jT

and RTT reads R T1 T2 = T2 T1 R.  Each law is written once, as an
entrywise contraction: _rel reads rel1 and rel2 for wigner_check and
the recurrences, _rtt reads R for rtt_check and the free-algebra span
check, and ortho1 and ortho2 share one loop.  rep.rows reads a coupling
table or R, or its rep.transpose, once per call into rows (or columns),
and each entry is one ncalg.lincomb over a row.

The recurrences couple D^{j -+ 1/2} with T = D^{1/2} = [[x, u], [v, y]]:
each is rel1 (i, ii, v, vi) or rel2 (iii, iv, vii, viii) at the spins
(j -+ 1/2, 1/2), read by _rel at the rows of one pair (k - t, t) of
omega or mho, with P = D^{j -+ 1/2} (x) T.  The paper writes them s
times these sides, s = sqrt(2j) for i-iv, -sqrt(2j+2) for v and vii and
+sqrt(2j+2) for vi and viii.

The sigma-partner products.  Let sigma swap x and y and fix v, u and
h; in SL it is an algebra automorphism, NCPoly.swap_xy is sigma on
SL-normal terms, and dfunc builds sigma(D^j_{m'm}) = D^j_{-m,-m'}.  So
in SL

    D_{k1m1} D_{k2m2} = sigma(D_{-m1,-k1} D_{-m2,-k2})

and the engine's normal form is unique, so swap_xy of the partner's
product is the product itself.  _dprod multiplies the member of each
pair whose index tuple (k1, m1, k2, m2) is the larger, and a
self-partner, with the engine; the other member is swap_xy of its
partner's memoised product.  Both members are memoised, so no read
repeats a swap.  A recurrence's D^{j'} (x) T is the spin pair (j',
1/2), where a generator T_ab has the partner sigma(T_ab) = T_{-b,-a}.
Every case is still computed and reported; sigma drops products, not
cases.  GL multiplies every pair, since sigma needs a rewrite there.

The sigma-partner sums.  sigma maps whole cases of three laws onto
cases of the same call, so in SL each sigma pair of cases is summed
once and the partner's two sides are sigma of the summed case's sides,
times a sign:

    rel2 (m1, m2, m')        = s sigma(rel1 ((-m1, -m2), -m'))
    rel3 rhs (k1, m1, k2, m2) = sigma(rel3 rhs (-m1, -k1, -m2, -k2))
    ortho2 lhs (m1, m2)      = sigma(ortho1 lhs (-m1, -m2))

with s = (-1)^(j1+j2-j).  Each holds on a premise about the tables the
call reads, which the call checks exactly before it derives anything:
mho^j[(m1, m2), m] = s Omega^j[(-m1, -m2), -m] for every j read
(_mho_is_sigma_omega), and F^-1[(b1,-b1),(b1,b2)] = F[(-b1,-b2),(-b1,b1)]
for ortho.  Where it fails the law is summed directly, so a wrong or
patched table fails as it would without sigma.  Every case is still
recorded, in the same order.  Three laws stay direct on purpose: the
right sides of check_corep are what cross-checks the left sides it takes
as sigma images; the recurrences iii, iv, vii and viii are sigma images
of ii, i, vi and v, but of other calls, whose sums a later call could
not trust; and sigma reverses the order of D1 D2, so an rtt case has
no partner.

One memo holds the D D products: _DPROD_MEMO, per spin pair and ring,
which _dprod fills for wigner_check, _rel3, rtt_check, ortho_like_check
and the recurrences alike.  An index outside the band of j1 reads zero
and is not stored.  recurrence_check at 2j drops the pairs (j', 1/2)
with 2j' below 2j - 1, which a loop up in 2j (as `slh2 verify` runs)
never reads again.  Besides it, the lru cache _rel3 holds the case
records (no polynomials) of rel3 per spin pair: rel3 does not depend on
the j of a wigner_check call.
"""

from functools import lru_cache
from itertools import product

from . import kernel as K
from . import ncalg
from .dfun import ORDERED1, dfunc, dmatrix
from .kernel import LOW_MASK, RAD_ONE, WORD_MASK, add_into, outer_into, rad_neg, scale_into
from .kernel import swap_slots, swap_xy
from .ncalg import GL, LETTER_KEYS, SL, U, V, X, Y, NCPoly, _mul
from .rep import f_inv_matrix, f_matrix, magnetics, mho, omega, pair_basis, r_matrix, rows, triangle
from .rep import transpose
from .report import Report
from .scalar import ONE, ZERO, RadScalar

# the generator matrix T = D^{1/2} = [[x, u], [v, y]] at doubled indices
_GEN_AT = {(1, 1): X, (1, -1): U, (-1, 1): V, (-1, -1): Y}

# generator images under the coproduct, Delta(T_ab) = sum_c T_ac (x) T_cb:
# letter -> ((left, right), ...)
_DELTA_GEN = {
    t: tuple((_GEN_AT[a, c], _GEN_AT[c, b]) for c in (1, -1)) for (a, b), t in _GEN_AT.items()
}


def tensor(*polys):
    """The outer product p1 or p1 (x) p2 of one or two NCPoly factors, as
    flat tensor terms."""
    if not 1 <= len(polys) <= K.SLOTS:
        raise ValueError(f"a flat tensor has 1 to {K.SLOTS} factors, not {len(polys)}")
    if len(polys) == 1:
        return dict(polys[0]._terms)
    return outer_into({}, polys[0]._terms, polys[1]._terms)


def tensor_text(terms):
    """Flat 2-slot tensor terms as text, (c)*[w_1 (x) w_2] per word pair
    in sorted order, or 0."""
    if not terms:
        return "0"
    groups = {}
    for k, q in terms.items():
        groups.setdefault(k & LOW_MASK, {})[K.scalar_part(k)] = q
    bits = []
    for words, c in sorted((K.unpack(w, 2)[:-2], RadScalar(t)) for w, t in groups.items()):
        tag = " (x) ".join(ncalg.word_str(w) or "1" for w in words)
        bits.append(f"({c!r})*[{tag}]")
    return " + ".join(bits)


_DELTA_MEMO = {GL: {}, SL: {}}


def _word_coproduct(word, ring):
    """Delta of a normal word, given as its word fields: Delta(the word
    without its last letter) times Delta(the last letter), slot by slot,
    memoised per word."""
    memo = _DELTA_MEMO[ring]
    hit = memo.get(word)
    if hit is None:
        if not word:
            hit = {RAD_ONE: 1}
        else:
            exps = K.word(word)
            g = max(i for i in range(4) if exps[i])
            # the head's slot-0 terms, grouped by their slot-1 word
            by_w2 = {}
            for k, q in _word_coproduct(word - (LETTER_KEYS[g] & WORD_MASK), ring).items():
                w1, w2, _, i = K.unpack(k, 2)
                by_w2.setdefault(w2, {})[K.pack((w1,), 1, i)] = q
            hit = {}
            for w2, left in by_w2.items():
                for g1, g2 in _DELTA_GEN[g]:
                    outer_into(
                        hit,
                        _mul(left, {LETTER_KEYS[g1]: 1}, ring),
                        _mul({K.pack((w2,)): 1}, {LETTER_KEYS[g2]: 1}, ring),
                    )
        memo[word] = hit
    return hit


def coproduct(p: NCPoly) -> dict:
    """Algebra-homomorphism extension of the generator coproduct, as flat
    2-slot terms."""
    out = {}
    for k, q in p._terms.items():
        scale_into(out, _word_coproduct(k & WORD_MASK, p.ring), {K.scalar_part(k): q})
    return out


def sigma_coproduct(delta):
    """tau (sigma (x) sigma) of a 2-slot SL tensor: Delta(sigma(p)) from
    delta = Delta(p), a relabeling of each key's word fields."""
    return {swap_slots(swap_xy(k)): q for k, q in delta.items()}


# the v and u fields of the slot-0 word: the counit of a word is 1 when
# both are 0, else 0
_VU_FIELDS = WORD_MASK & (K.V_FIELDS | K.U_FIELDS)


def counit(p: NCPoly) -> RadScalar:
    """eps(x) = eps(y) = 1, eps(u) = eps(v) = 0, extended multiplicatively."""
    out = {}
    for k, q in p._terms.items():
        if not k & _VU_FIELDS:
            add_into(out, K.scalar_part(k), q)
    return RadScalar(out)


# ---------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------


def check_corep(twoj, scheme=ORDERED1, ring=SL) -> Report:
    """Delta(D_ij) = sum_k D_ik (x) D_kj and eps(D_ij) = delta_ij."""
    rep = Report("corep")
    d = dmatrix(twoj, scheme, ring)
    mags = list(magnetics(twoj))
    deltas = {}

    def delta(twomp, twom):
        # in SL an entry with m' + m < 0 is sigma of D_{-m,-m'}
        hit = deltas.get((twomp, twom))
        if hit is None:
            if ring == SL and twomp + twom < 0:
                hit = sigma_coproduct(delta(*_sigma_index(twomp, twom)))
            else:
                hit = coproduct(d.entry(twomp, twom))
            deltas[(twomp, twom)] = hit
        return hit

    for twomp in mags:
        for twom in mags:
            entry = d.entry(twomp, twom)
            lhs = delta(twomp, twom)
            rhs = {}
            for twok in mags:
                outer_into(rhs, d.entry(twomp, twok)._terms, d.entry(twok, twom)._terms)
            rep.record(
                {"twoj": twoj, "twomp": twomp, "twom": twom, "law": "coproduct"},
                lhs,
                rhs,
                tensor_text,
            )
            eps = counit(entry)
            want = ONE if twomp == twom else ZERO
            rep.record(
                {"twoj": twoj, "twomp": twomp, "twom": twom, "law": "counit"},
                eps,
                want,
            )
    return rep


# (twoj1, twoj2, ring) -> {(k1, m1, k2, m2): D^{j1}_{k1m1} D^{j2}_{k2m2}}
_DPROD_MEMO = {}


def _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring):
    """D^{j1}_{k1m1} D^{j2}_{k2m2}, memoised per spin pair; zero, and not
    stored, when k1 or m1 is outside the band of j1.  In SL the member of
    a sigma pair with the smaller index tuple is sigma of its partner's
    product (see the module docstring)."""
    if abs(twok1) > twoj1 or abs(twom1) > twoj1:
        return NCPoly.zero(ring)
    spins, case = (twoj1, twoj2, ring), (twok1, twom1, twok2, twom2)
    memo = _DPROD_MEMO.get(spins)
    if memo is None:
        memo = _DPROD_MEMO[spins] = {}
    hit = memo.get(case)
    if hit is None:
        partner = _sigma_index(twok1, twom1) + _sigma_index(twok2, twom2)
        if ring == SL and case < partner:
            a1, b1, a2, b2 = partner
            hit = _dprod(twoj1, a1, b1, twoj2, a2, b2, ring).swap_xy()
        else:
            hit = _dref(twoj1, twok1, twom1, ring) * _dref(twoj2, twok2, twom2, ring)
        memo[case] = hit
    return hit


def _sigma_index(twomp, twom):
    """The indices of sigma(D^j_{m'm}) = D^j_{-m,-m'}."""
    return -twom, -twomp


def _sign(twodiff):
    """(-1)^(k - m) for twodiff = 2(k - m)."""
    return -1 if (twodiff // 2) % 2 else 1


def _dref(twoj, twomp, twom, ring):
    return dfunc(twoj, twomp, twom, ORDERED1, ring)


def _need_determinant_one(ring, what):
    if ncalg.check_ring(ring) != SL:
        raise ValueError(f"{what} assume determinant 1 (SL ring)")


def _rel(law, twoj1, twoj2, twoj, pairs, ring):
    """The two sides of rel1 or rel2 at the spins (j1, j2, j), at the rows
    `pairs` of its coupling table C: yields ((k1, k2), m, lhs, rhs) with

        lhs = sum_{m'} C[(k1, k2), m'] D^j_{m'm}
        rhs = sum_{m1, m2} C[(m1, m2), m] D^{j1}_{k1m1} D^{j2}_{k2m2}

    rel1 is this with C = Omega^j; rel2 is it with C = mho^j and each
    index pair of a D-entry read reversed.
    """
    if law == "rel1":
        table = omega(twoj1, twoj2, twoj)
        d = lambda mp, m: _dref(twoj, mp, m, ring)
        prod = lambda k1, m1, k2, m2: _dprod(twoj1, k1, m1, twoj2, k2, m2, ring)
    else:
        table = mho(twoj1, twoj2, twoj)
        d = lambda mp, m: _dref(twoj, m, mp, ring)
        prod = lambda k1, m1, k2, m2: _dprod(twoj1, m1, k1, twoj2, m2, k2, ring)
    pair_rows, m_rows = rows(table), rows(transpose(table))
    for k1, k2 in pairs:
        row = pair_rows.get((k1, k2), ())
        for m in magnetics(twoj):
            lhs = ncalg.lincomb(((c, d(mp, m)) for mp, c in row), ring)
            rhs = ncalg.lincomb(((c, prod(k1, m1, k2, m2)) for (m1, m2), c in m_rows.get(m, ())), ring)
            yield (k1, k2), m, lhs, rhs


def _sigma_sides(sides, sign):
    """sign times sigma of both sides of a case."""
    return [side.swap_xy() if sign > 0 else -side.swap_xy() for side in sides]


def _mho_is_sigma_omega(twoj1, twoj2, twoj):
    """The premise of the sigma-partner sums of wigner_check and _rel3,
    checked exactly on the tables read:

        mho^j[(m1, m2), m] = s Omega^j[(-m1, -m2), -m],   s = (-1)^(j1+j2-j)

    Both tables leave their zeros out, so equal sizes and a match for each
    mho entry make the negation of the indices a bijection."""
    om, mh = omega(twoj1, twoj2, twoj), mho(twoj1, twoj2, twoj)
    sign = _sign(twoj1 + twoj2 - twoj)
    return len(om) == len(mh) and all(
        om.get(((-m1, -m2), -m)) == (c if sign > 0 else -c) for ((m1, m2), m), c in mh.items()
    )


def wigner_check(twoj1, twoj2, twoj, ring=SL) -> Report:
    """The twisted product law for D^j plus its three corollaries.

    With P = D^{j1} (x) D^{j2}, P[(k1,k2),(m1,m2)] = D^{j1}_{k1m1}
    D^{j2}_{k2m2}, and the coupling tables as matrices
    Omega^j[(m1,m2), m] and mho^j[(m1,m2), m]:

        product  mho^{j'}T P Omega^j = delta_{jj'} D^j
        rel1     P Omega^j = Omega^j D^j
        rel2     mho^jT P = D^j mho^jT
        rel3     P = sum_j Omega^j D^j mho^jT

    _rel reads rel1; the product law contracts rel1's right side
    A = P Omega^j with each mho^{j'}, so rel1's cases are recorded as
    they are made and reported after it.  When mho^j is s Omega^j with
    its indices negated, s = (-1)^(j1+j2-j) (_mho_is_sigma_omega), the
    rel2 case ((-k1, -k2), -m) is recorded with the rel1 case ((k1, k2),
    m), its sides s sigma of rel1's; negating every index reverses the
    order of the cases.  Else _rel reads rel2 off mho^j.  rel3 does not
    depend on j: the report copies the records _rel3 builds once per spin
    pair.  SL only: the singlet projection of the product law is D = 1.
    """
    _need_determinant_one(ring, "the product law and its corollaries")
    rep, rel1, rel2, acc = Report("wigner"), Report("wigner"), Report("wigner"), {}
    pairs = pair_basis(twoj1, twoj2)
    spins = {"twoj1": twoj1, "twoj2": twoj2, "twoj": twoj}
    sigma, sign = _mho_is_sigma_omega(twoj1, twoj2, twoj), _sign(twoj1 + twoj2 - twoj)
    for (k1, k2), m, lhs, rhs in _rel("rel1", twoj1, twoj2, twoj, pairs, ring):
        acc[(k1, k2), m] = rhs
        rel1.record({"law": "rel1", **spins, "twok1": k1, "twok2": k2, "twom": m}, lhs, rhs)
        if sigma:
            rel2.record({"law": "rel2", **spins, "twom1": -k1, "twom2": -k2, "twomp": -m},
                        *_sigma_sides((lhs, rhs), sign))

    # product law: delta_{j,j'} D^j_{m'm} = sum_{k1,k2} mho^{j'}[(k1,k2),m'] A[(k1,k2),m]
    for twojp in triangle(twoj1, twoj2):
        mhp_m = rows(transpose(mho(twoj1, twoj2, twojp)))
        params = {"law": "product", **spins, "twojp": twojp}
        for twomp in magnetics(twojp):
            row = mhp_m.get(twomp, ())
            for twom in magnetics(twoj):
                rhs = ncalg.lincomb(((c, acc[pair, twom]) for pair, c in row), ring)
                lhs = _dref(twoj, twomp, twom, ring) if twojp == twoj else NCPoly.zero(ring)
                rep.record({**params, "twomp": twomp, "twom": twom}, lhs, rhs)
    rep.extend(rel1)

    if sigma:
        rel2.cases.reverse()
    else:
        for (m1, m2), mp, lhs, rhs in _rel("rel2", twoj1, twoj2, twoj, pairs, ring):
            rel2.record({"law": "rel2", **spins, "twom1": m1, "twom2": m2, "twomp": mp}, lhs, rhs)
    rep.extend(rel2)
    rep.cases.extend({**case, "params": dict(case["params"])} for case in _rel3(twoj1, twoj2, ring))
    return rep


# the indices of a rel3 case, in the order of its params and of its loops
_REL3_INDICES = ("twok1", "twom1", "twok2", "twom2")


@lru_cache(maxsize=None)
def _rel3(twoj1, twoj2, ring):
    """The case records of rel3 for one spin pair, which callers copy:

        D^{j1}_{k1m1} D^{j2}_{k2m2} = sum_{j,m,m'} mho^j Omega^j D^j_{m'm}

    When _mho_is_sigma_omega holds for every j, the right side at (k1,
    m1, k2, m2) is sigma of the right side at (-m1, -k1, -m2, -k2), the
    sign s^2 = 1: each sum records both members of its pair, and a
    self-partner alone.  The records are then sorted into loop order,
    every index descending.
    """
    rep = Report("wigner")
    tables = [
        (twojs, rows(omega(twoj1, twoj2, twojs)), rows(mho(twoj1, twoj2, twojs)))
        for twojs in triangle(twoj1, twoj2)
    ]
    sigma = all(_mho_is_sigma_omega(twoj1, twoj2, twojs) for twojs in triangle(twoj1, twoj2))

    def record(case, rhs):
        twok1, twom1, twok2, twom2 = case
        params = {"law": "rel3", "twoj1": twoj1, "twoj2": twoj2, **dict(zip(_REL3_INDICES, case))}
        rep.record(params, _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring), rhs)

    m1s, m2s = magnetics(twoj1), magnetics(twoj2)
    for case in product(m1s, m1s, m2s, m2s):
        twok1, twom1, twok2, twom2 = case
        partner = (-twom1, -twok1, -twom2, -twok2)
        if sigma and partner > case:
            continue  # the loop met the partner first and recorded both
        rhs = ncalg.lincomb(
            ((cm * co, _dref(twojs, twomp, twom, ring))
             for twojs, oms, mhs in tables
             for twom, cm in mhs.get((twom1, twom2), ())
             for twomp, co in oms.get((twok1, twok2), ())),
            ring,
        )
        record(case, rhs)
        if sigma and partner != case:
            record(partner, rhs.swap_xy())
    rep.cases.sort(key=lambda c: [-c["params"][name] for name in _REL3_INDICES])
    return tuple(rep.cases)


# ---------------------------------------------------------------------
# Recurrence relations
# ---------------------------------------------------------------------


# relation -> (raising, law, t): the spin j' = j -+ 1/2 it reads, its law
# of wigner_check and the table pair (k - t, t) whose rows it reads
_RELATIONS = {
    "i": (False, "rel1", 1), "ii": (False, "rel1", -1),
    "iii": (False, "rel2", 1), "iv": (False, "rel2", -1),
    "v": (True, "rel1", 1), "vi": (True, "rel1", -1),
    "vii": (True, "rel2", 1), "viii": (True, "rel2", -1),
}
RECURRENCES = tuple(_RELATIONS)
# the recurrences that hold in each ring (v-viii use D = 1)
RING_RECURRENCES = {SL: RECURRENCES, GL: RECURRENCES[:4]}


def recurrence_check(which, twoj, ring=SL) -> Report:
    """Verify one of the eight recurrence relations at spin twoj/2.

    Each relation is the rel1 or rel2 law of wigner_check, read by _rel
    at the spins (j', 1/2), j' = j - 1/2 for i-iv and j + 1/2 for v-viii,
    at the rows of the pair (k - t, t):

        i, ii, v, vi        rel1 of omega(j', 1/2, j), t = 1/2, -1/2
        iii, iv, vii, viii  rel2 of mho(j', 1/2, j), t = 1/2, -1/2

    P is D^{j'} (x) T with T = D^{1/2} = [[x, u], [v, y]], each product
    one _dprod at the spins (j', 1/2).  The paper writes each relation as
    s times these sides, with s = sqrt(2j) for i-iv, -sqrt(2j+2) for v
    and vii and +sqrt(2j+2) for vi and viii.  k (twok) runs one step
    beyond the magnetic band on both sides, where a row of the table is
    empty or _dprod reads a D^{j'} entry outside the band as 0, and the
    instance reads 0 = 0.  The relations v-viii
    use D = 1 and are SL statements, refused in GL; i-iv hold in GL as
    well.
    """
    try:
        raising, law, t = _RELATIONS[which]
    except KeyError:
        raise ValueError(f"unknown recurrence {which!r}") from None
    if which not in RING_RECURRENCES[ncalg.check_ring(ring)]:
        raise ValueError(f"recurrence {which} assumes determinant 1 (SL ring)")
    rep = Report("recurrence")
    if twoj < 1:
        raise ValueError("recurrences relate spins j and j -+ 1/2; need 2j >= 1")
    # at 2j the relations read D^{j -+ 1/2} T: a loop up in 2j reads no
    # product D^{j'} T with 2j' below 2j - 1 again
    for spins in [spins for spins in _DPROD_MEMO if spins[1] == 1 and spins[0] < twoj - 1]:
        del _DPROD_MEMO[spins]
    twojp = twoj + 1 if raising else twoj - 1
    pairs = [(twok - t, t) for twok in range(-twoj - 2, twoj + 4, 2)]
    for (k1, _), twom, lhs, rhs in _rel(law, twojp, 1, twoj, pairs, ring):
        rep.record({"which": which, "twoj": twoj, "twok": k1 + t, "twom": twom}, lhs, rhs)
    return rep


# ---------------------------------------------------------------------
# Orthogonality-like relations
# ---------------------------------------------------------------------


def ortho_like_check(twoj, ring=SL) -> Report:
    """The orthogonality-like relations, one row of F or F^-1 each:

        ortho1  sum_{m1,m2} (-1)^(k1-m1) F[(m1,m2),(m1,-m1)] D_{k1m1} D_{k2m2}
                    = F[(k1,k2),(k1,-k1)]
        ortho2  sum_{k1,k2} (-1)^(m1-k1) F^-1[(k1,-k1),(k1,k2)] D_{k1m1} D_{k2m2}
                    = F^-1[(m1,-m1),(m1,m2)]

    ortho2 reads F^-1 transposed and each D index pair reversed.  When
    F^-1[(b1,-b1),(b1,b2)] = F[(-b1,-b2),(-b1,b1)] for every b, checked
    exactly, the ortho2 case (-k1, -k2) is recorded with the ortho1 case
    (k1, k2), its sides sigma of ortho1's, and the order of those cases
    reversed; else ortho2 is summed."""
    _need_determinant_one(ring, "the orthogonality-like relations")
    rep, ortho2 = Report("ortho"), Report("ortho")
    basis = pair_basis(twoj, twoj)

    def diagonal(matrix):
        # the entry at column (a1, -a1) of each row a, zeros left out
        return {(a1, a2): c for a1, a2 in basis if (c := matrix.get(((a1, a2), (a1, -a1))))}

    f_diag, f_inv_diag = diagonal(f_matrix(twoj, twoj)), diagonal(transpose(f_inv_matrix(twoj, twoj)))
    sigma = f_inv_diag == {(-b1, -b2): c for (b1, b2), c in f_diag.items()}
    laws = [("ortho1", f_diag, ("twok1", "twok2"),
             lambda a1, b1, a2, b2: _dprod(twoj, a1, b1, twoj, a2, b2, ring))]
    if not sigma:
        laws.append(("ortho2", f_inv_diag, ("twom1", "twom2"),
                     lambda a1, b1, a2, b2: _dprod(twoj, b1, a1, twoj, b2, a2, ring)))
    for law, diag, names, prod in laws:
        for a1, a2 in basis:
            lhs = ncalg.lincomb(
                ((c.scaled(_sign(a1 - b1)), prod(a1, b1, a2, b2)) for (b1, b2), c in diag.items()),
                ring,
            )
            rhs = NCPoly.scalar(diag.get((a1, a2), ZERO), ring)
            rep.record({"law": law, "twoj": twoj, names[0]: a1, names[1]: a2}, lhs, rhs)
            if sigma:
                ortho2.record({"law": "ortho2", "twoj": twoj, "twom1": -a1, "twom2": -a2},
                              *_sigma_sides((lhs, rhs), 1))
    ortho2.cases.reverse()
    rep.extend(ortho2)
    return rep


# ---------------------------------------------------------------------
# RTT relations
# ---------------------------------------------------------------------


def _rtt(twoj1, twoj2, prod):
    """R T1 T2 = T2 T1 R on the product of two spins, entrywise: yields
    ((m1, m2), (k1, k2), lhs, rhs), each side as (c, product) pairs,

        lhs  sum_s R[(m1,m2),s] prod(j1, s1, k1, j2, s2, k2)   a row of R
        rhs  sum_s R[s,(k1,k2)] prod(j2, m2, s2, j1, m1, s1)   a column

    where prod(ja, a, b, jb, c, d) stands for D^{ja}_{ab} D^{jb}_{cd}.
    """
    r = r_matrix(twoj1, twoj2)
    r_rows, r_cols = rows(r), rows(transpose(r))
    pairs = pair_basis(twoj1, twoj2)
    for m1, m2 in pairs:
        row = r_rows.get((m1, m2), ())
        for k1, k2 in pairs:
            lhs = ((c, prod(twoj1, s1, k1, twoj2, s2, k2)) for (s1, s2), c in row)
            rhs = ((c, prod(twoj2, m2, s2, twoj1, m1, s1)) for (s1, s2), c in r_cols.get((k1, k2), ()))
            yield (m1, m2), (k1, k2), lhs, rhs


def rtt_check(twoj1, twoj2, ring=SL) -> Report:
    """R T1 T2 = T2 T1 R entrywise, each side one lincomb of D D products."""
    rep = Report("rtt")
    for (m1, m2), (k1, k2), lhs, rhs in _rtt(twoj1, twoj2, lambda *ix: _dprod(*ix, ring)):
        params = {"twoj1": twoj1, "twoj2": twoj2, "twom1": m1, "twom2": m2, "twok1": k1, "twok2": k2}
        rep.record(params, ncalg.lincomb(lhs, ring), ncalg.lincomb(rhs, ring))
    return rep


# ---------------------------------------------------------------------
# RTT at spin (1/2, 1/2) spans exactly the defining relations
# ---------------------------------------------------------------------

def _free_rtt_elements():
    """LHS - RHS of the (1/2,1/2) RTT identities in the free algebra.

    Vectors over the 16 length-two free words with polynomial coefficients
    in h, as 2-slot flat terms with the word g1 g2 as the letter g1 in
    slot 0 and g2 in slot 1; no rewriting is applied.
    """
    vecs = []
    for _, _, lhs, rhs in _rtt(1, 1, lambda ja, a, b, jb, c, d: _free_key((_GEN_AT[a, b], _GEN_AT[c, d]))):
        vec = {}
        for sign, side in ((1, lhs), (-1, rhs)):
            for c, word in side:
                scale_into(vec, {word: sign}, c.raw())
        if vec:
            vecs.append(vec)
    return vecs


def _free_key(letters):
    """The 2-slot key of a free word of length two, one letter a slot."""
    return K.pack([ncalg.LETTER_WORDS[g] for g in letters])


def _free_defining_relations():
    """The six rewrite rules as free-algebra elements (pair - replacement)."""
    vecs = []
    for pair, repl in ncalg.GL_RULES.items():
        vec = {_free_key(pair): 1}
        for word, coef in repl:
            scale_into(vec, {_free_key(word): -1}, coef.raw())
        vecs.append(vec)
    return vecs


def _coef(vec, word):
    """The scalar coefficient of a free word, given as its word and degree
    fields, in vec."""
    return {k - word: q for k, q in vec.items() if k & LOW_MASK == word}


def _reduce(vec, basis):
    """Eliminate every basis pivot from vec by fraction-free row steps."""
    for pivot, p, bvec in basis:
        c = _coef(vec, pivot)
        if c:
            vec = scale_into(scale_into({}, vec, p), bvec, rad_neg(c))
    return vec


def _echelon(vecs):
    """Fraction-free row reduction over the polynomial coefficient ring."""
    basis = []  # list of (pivot word, its coefficient, vec)
    for vec in vecs:
        vec = _reduce(vec, basis)
        if vec:
            pivot = min(vec) & LOW_MASK
            basis.append((pivot, _coef(vec, pivot), vec))
    return basis


def rtt_frt_check() -> Report:
    """At spin (1/2,1/2) the RTT system spans exactly the defining relations.

    Both containments are checked by fraction-free elimination over Q[h],
    in the free algebra, i.e. without assuming the rewrite system.
    """
    rep = Report("rtt-frt")
    rtt_vecs = _free_rtt_elements()
    rel_vecs = _free_defining_relations()
    rtt_basis = _echelon(rtt_vecs)
    rel_basis = _echelon(rel_vecs)
    for i, vec in enumerate(rel_vecs):
        rep.add({"direction": "relation in rtt span", "index": i}, not _reduce(vec, rtt_basis))
    for i, vec in enumerate(rtt_vecs):
        rep.add({"direction": "rtt in relation span", "index": i}, not _reduce(vec, rel_basis))
    rep.add(
        {"direction": "rank", "rtt": len(rtt_basis), "relations": len(rel_basis)},
        len(rtt_basis) == len(rel_basis) == 6,
    )
    return rep
