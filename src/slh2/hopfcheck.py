"""Coproduct, counit and the executable corepresentation-law suites.

The coproduct is the matrix coalgebra on the generator matrix
[[x, u], [v, y]]:

    Delta(x) = x(x)x + u(x)v        Delta(u) = x(x)u + u(x)y
    Delta(v) = v(x)x + y(x)v        Delta(y) = v(x)u + y(x)y

extended as an algebra homomorphism, with counit eps(x) = eps(y) = 1,
eps(u) = eps(v) = 0.  Compatibility with the defining relations is itself
part of the test surface, not an assumption.

A TensorPoly holds the flat terms {(w_1, ..., w_n, radicand, h_power): q}
of the NCPoly layout with n words in place of one, and the coproduct memo
_DELTA_MEMO holds {(w1, w2, 1, h_power): int} per word.  A RadScalar is
built only for printing and for the value of counit.

The suites verify, by exact symbolic expansion: the corepresentation law
for D^j, the twisted product law and its corollaries, the eight
recurrence relations, the orthogonality-like relations, and the RTT
relations (including that at spin (1/2, 1/2) the RTT system spans exactly
the six defining relations).

With P = D^{j1} (x) D^{j2} on the product basis and the twisted CGC
tables Omega^j, mho^j as matrices with rows (m1, m2) and columns m, the
product law and its corollaries read

    mho^{j'}T P Omega^j = delta_{jj'} D^j      P Omega^j = Omega^j D^j
    mho^jT P = D^j mho^jT                      P = sum_j Omega^j D^j mho^jT

and RTT reads R T1 T2 = T2 T1 R.  Each is checked entrywise as a
contraction: rep.rows reads a coupling table or R once per suite call
into rows (or columns), and each entry is one ncalg.lincomb over a row.

Besides the D D products of _dprod, two lru caches keep sums from
being rebuilt.  _rel3 holds the case records (no polynomials) of rel3
per spin pair: rel3 does not depend on the j of a wigner_check call.
_dletter holds a D-entry times one generator: a recurrence term's right
factor is None or a linear form ((generator index, RadScalar c), ...),
so relations that read the same entry and letter (i/v, ii/vi, iii/vii,
iv/viii) share the product.  Its memo _DLETTER_MEMO is kept per spin:
recurrence_check at 2j drops the products of spins below 2j - 1, which
a loop up in 2j (as `slh2 verify` runs) never reads again.
"""

from functools import lru_cache
from math import gcd

from . import ncalg
from .dfun import ORDERED1, dfunc, dmatrix
from .kernel import add_into, rad_add, rad_neg, scale_into
from .ncalg import GL, SL, U, V, X, Y, NCPoly, _word_mul_word
from .rep import f_inv_matrix, f_matrix, magnetics, mho, omega, r_matrix, triangle_ok
from .rep import pair_basis, pair_items, rows
from .report import Report
from .scalar import H, ONE, ZERO, RadScalar, accumulate, sqrt_nat

# generator images under the coproduct: letter -> ((left, right), ...)
_DELTA_GEN = {
    ncalg.X: ((ncalg.X, ncalg.X), (ncalg.U, ncalg.V)),
    ncalg.U: ((ncalg.X, ncalg.U), (ncalg.U, ncalg.Y)),
    ncalg.V: ((ncalg.V, ncalg.X), (ncalg.Y, ncalg.V)),
    ncalg.Y: ((ncalg.V, ncalg.U), (ncalg.Y, ncalg.Y)),
}


class TensorPoly:
    """Element of a tensor power of the ring, slotwise normal ordered: one
    flat dict {(w_1, ..., w_n, radicand, h_power): q}, the n-slot form of
    the NCPoly terms, with each w_i a normal word (a, b, c, d)."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring, arity, terms):
        self.ring = ring
        self.arity = arity
        self.terms = terms

    @staticmethod
    def zero(ring, arity=2):
        return TensorPoly(ring, arity, {})

    @staticmethod
    def of(*polys):
        """Outer product p1 (x) p2 (x) ... of NCPoly factors."""
        ring = polys[0].ring
        if any(p.ring != ring for p in polys):
            raise ValueError("ring mismatch in tensor product")
        out = {}
        _spread(out, [p._terms for p in polys])
        return TensorPoly(ring, len(polys), out)

    def __add__(self, other):
        self._check(other)
        return TensorPoly(self.ring, self.arity, rad_add(self.terms, other.terms))

    def __neg__(self):
        return TensorPoly(self.ring, self.arity, rad_neg(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coef):
        out = scale_into({}, self.terms, RadScalar.coerce(coef).raw())
        return TensorPoly(self.ring, self.arity, out)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                (r1, i1), (r2, i2) = k1[-2:], k2[-2:]
                g = gcd(r1, r2)
                slots = [_word_mul_word(w1, w2, self.ring) for w1, w2 in zip(k1[:-2], k2[:-2])]
                _spread(out, slots, q1 * q2 * g, (r1 // g) * (r2 // g), i1 + i2)
        return TensorPoly(self.ring, self.arity, out)

    def _check(self, other):
        if self.ring != other.ring or self.arity != other.arity:
            raise ValueError("tensor shape mismatch")

    def _check_slot(self, slot):
        if not 0 <= slot < self.arity:
            raise ValueError(f"slot {slot} outside 0..{self.arity - 1}")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorPoly)
            and self.ring == other.ring
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def apply_coproduct(self, slot=0):
        """Replace one tensor slot by its coproduct (arity grows by one)."""
        self._check_slot(slot)
        out = {}
        for k, q in self.terms.items():
            # memo entries have radicand 1: only the h-power moves
            head, tail, i = k[:slot], k[slot + 1 : -1], k[-1]
            for (w1, w2, _, j), m in _word_coproduct(k[slot], self.ring).items():
                add_into(out, head + (w1, w2) + tail + (i + j,), q * m)
        return TensorPoly(self.ring, self.arity + 1, out)

    def apply_counit(self, slot=0):
        """Contract one tensor slot with the counit (arity shrinks by one)."""
        self._check_slot(slot)
        out = {}
        for k, q in self.terms.items():
            if k[slot][V] == k[slot][U] == 0:  # eps(v) = eps(u) = 0, eps(x) = eps(y) = 1
                add_into(out, k[:slot] + k[slot + 1 :], q)
        return TensorPoly(self.ring, self.arity - 1, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for words, c in sorted(ncalg.grouped(self.terms).items()):
            tag = " (x) ".join(ncalg.word_str(w) or "1" for w in words)
            bits.append(f"({c!r})*[{tag}]")
        return " + ".join(bits)


def _spread(out, slot_terms, q=1, r=1, i=0, prefix=()):
    """out += q * sqrt(r) * h^i * (x) slot_terms, expanded into flat tensor
    terms; each slot is a flat NCPoly term dict, such as a memo entry."""
    if not slot_terms:
        add_into(out, prefix + (r, i), q)
        return
    head, *rest = slot_terms
    for k, m in head.items():
        g = gcd(r, k[-2])
        p = q * m if g == 1 else q * m * g
        _spread(out, rest, p, (r // g) * (k[-2] // g), i + k[-1], prefix + (k[:-2],))


_DELTA_MEMO = {GL: {}, SL: {}}


def _word_coproduct(exps, ring):
    memo = _DELTA_MEMO[ring]
    hit = memo.get(exps)
    if hit is not None:
        return hit
    terms = {((0, 0, 0, 0), (0, 0, 0, 0), 1, 0): 1}
    for g in ncalg.word_letters(exps):
        out = {}
        for (w1, w2, r, i), q in terms.items():
            for g1, g2 in _DELTA_GEN[g]:
                left = _word_mul_word(w1, ncalg.LETTER_WORDS[g1], ring)
                right = _word_mul_word(w2, ncalg.LETTER_WORDS[g2], ring)
                _spread(out, [left, right], q, r, i)
        terms = out
    memo[exps] = terms
    return terms


def coproduct(p: NCPoly) -> TensorPoly:
    """Algebra-homomorphism extension of the generator coproduct."""
    return TensorPoly.of(p).apply_coproduct(0)


def counit(p: NCPoly) -> RadScalar:
    return ncalg.grouped(TensorPoly.of(p).apply_counit(0).terms).get((), ZERO)


# ---------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------


def check_corep(twoj, scheme=ORDERED1, ring=SL) -> Report:
    """Delta(D_ij) = sum_k D_ik (x) D_kj and eps(D_ij) = delta_ij."""
    rep = Report("corep")
    d = dmatrix(twoj, scheme, ring)
    mags = list(magnetics(twoj))
    for twomp in mags:
        for twom in mags:
            entry = d.entry(twomp, twom)
            lhs = coproduct(entry)
            rhs = {}
            for twok in mags:
                _spread(rhs, [d.entry(twomp, twok)._terms, d.entry(twok, twom)._terms])
            rep.record(
                {"twoj": twoj, "twomp": twomp, "twom": twom, "law": "coproduct"},
                lhs,
                TensorPoly(ring, 2, rhs),
            )
            eps = counit(entry)
            want = ONE if twomp == twom else ZERO
            rep.record(
                {"twoj": twoj, "twomp": twomp, "twom": twom, "law": "counit"},
                eps,
                want,
            )
    return rep


@lru_cache(maxsize=None)
def _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring):
    return dfunc(twoj1, twok1, twom1, ORDERED1, ring) * dfunc(
        twoj2, twok2, twom2, ORDERED1, ring
    )


def _in_band(twoj, twomp, twom):
    return abs(twomp) <= twoj and abs(twom) <= twoj


def _dref(twoj, twomp, twom, ring):
    # matrix elements vanish outside the magnetic band
    if not _in_band(twoj, twomp, twom):
        return NCPoly.zero(ring)
    return dfunc(twoj, twomp, twom, ORDERED1, ring)


def _triangle(twoj1, twoj2):
    return range(abs(twoj1 - twoj2), twoj1 + twoj2 + 2, 2)


def _need_determinant_one(ring, what):
    if ncalg.check_ring(ring) != SL:
        raise ValueError(f"{what} assume determinant 1 (SL ring)")


def _by_pair(key):
    """(m1, m2, m) -> row (m1, m2), column m: the CGC table as a matrix."""
    return key[:2], key[2]


def _by_m(key):
    """(m1, m2, m) -> row m, column (m1, m2): the transposed table."""
    return key[2], key[:2]


def wigner_check(twoj1, twoj2, twoj, ring=SL) -> Report:
    """The twisted product law for D^j plus its three corollaries.

    With P = D^{j1} (x) D^{j2}, P[(k1,k2),(m1,m2)] = D^{j1}_{k1m1}
    D^{j2}_{k2m2}, and the coupling tables as matrices
    Omega^j[(m1,m2), m] and mho^j[(m1,m2), m]:

        product  mho^{j'}T P Omega^j = delta_{jj'} D^j
        rel1     P Omega^j = Omega^j D^j
        rel2     mho^jT P = D^j mho^jT
        rel3     P = sum_j Omega^j D^j mho^jT

    Each table is read once into rows (_by_pair) and into columns
    (_by_m), and each entry of each side is one lincomb over a row.
    rel3 does not depend on j: the report copies the records _rel3
    builds once per spin pair.  SL only: the singlet projection of the
    product law is D = 1.
    """
    _need_determinant_one(ring, "the product law and its corollaries")
    rep = Report("wigner")
    if not triangle_ok(twoj1, twoj2, twoj):
        raise ValueError("spin triple violates the triangle condition")
    om, mh = omega(twoj1, twoj2, twoj).items(), mho(twoj1, twoj2, twoj).items()
    om_pair, om_m = rows(om, _by_pair), rows(om, _by_m)
    mh_pair, mh_m = rows(mh, _by_pair), rows(mh, _by_m)
    pairs = pair_basis(twoj1, twoj2)
    spins = {"twoj1": twoj1, "twoj2": twoj2}

    # A = P Omega^j: A[k1, k2, m] = sum_{m1,m2} Omega^j_{m1,m2,m} D^{j1}_{k1,m1} D^{j2}_{k2,m2}
    acc = {}
    for twok1, twok2 in pairs:
        for twom in magnetics(twoj):
            acc[(twok1, twok2, twom)] = ncalg.lincomb(
                ((c, _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring))
                 for (twom1, twom2), c in om_m.get(twom, ())),
                ring,
            )

    # product law: delta_{j,j'} D^j_{m'm} = sum mho^{j'} Omega^{j} D D
    for twojp in _triangle(twoj1, twoj2):
        mhp_m = rows(mho(twoj1, twoj2, twojp).items(), _by_m)
        params = {"law": "product", **spins, "twoj": twoj, "twojp": twojp}
        for twomp in magnetics(twojp):
            row = mhp_m.get(twomp, ())
            for twom in magnetics(twoj):
                rhs = ncalg.lincomb(((c, acc[(k1, k2, twom)]) for (k1, k2), c in row), ring)
                lhs = _dref(twoj, twomp, twom, ring) if twojp == twoj else NCPoly.zero(ring)
                rep.record({**params, "twomp": twomp, "twom": twom}, lhs, rhs)

    # rel1: sum_{m'} Omega_{k1,k2,m'} D^j_{m'm} = A[k1,k2,m]
    for twok1, twok2 in pairs:
        row = om_pair.get((twok1, twok2), ())
        params = {"law": "rel1", **spins, "twoj": twoj, "twok1": twok1, "twok2": twok2}
        for twom in magnetics(twoj):
            lhs = ncalg.lincomb(((c, _dref(twoj, twomp, twom, ring)) for twomp, c in row), ring)
            rep.record({**params, "twom": twom}, lhs, acc[(twok1, twok2, twom)])

    # rel2: sum_m mho_{m1,m2,m} D^j_{m'm} = sum_{k1,k2} mho_{k1,k2,m'} D D
    for twom1, twom2 in pairs:
        row = mh_pair.get((twom1, twom2), ())
        params = {"law": "rel2", **spins, "twoj": twoj, "twom1": twom1, "twom2": twom2}
        for twomp in magnetics(twoj):
            lhs = ncalg.lincomb(((c, _dref(twoj, twomp, twom, ring)) for twom, c in row), ring)
            rhs = ncalg.lincomb(
                ((c, _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring))
                 for (twok1, twok2), c in mh_m.get(twomp, ())),
                ring,
            )
            rep.record({**params, "twomp": twomp}, lhs, rhs)

    rep.cases.extend({**case, "params": dict(case["params"])} for case in _rel3(twoj1, twoj2, ring))
    return rep


@lru_cache(maxsize=None)
def _rel3(twoj1, twoj2, ring):
    """The case records of rel3 for one spin pair, which callers copy:

        D^{j1}_{k1m1} D^{j2}_{k2m2} = sum_{j,m,m'} mho^j Omega^j D^j_{m'm}
    """
    rep = Report("wigner")
    m1s, m2s = list(magnetics(twoj1)), list(magnetics(twoj2))
    tables = [
        (twojs, rows(omega(twoj1, twoj2, twojs).items(), _by_pair),
         rows(mho(twoj1, twoj2, twojs).items(), _by_pair))
        for twojs in _triangle(twoj1, twoj2)
    ]
    for twok1 in m1s:
        for twom1 in m1s:
            params = {"law": "rel3", "twoj1": twoj1, "twoj2": twoj2, "twok1": twok1, "twom1": twom1}
            for twok2 in m2s:
                for twom2 in m2s:
                    rhs = ncalg.lincomb(
                        ((cm * co, _dref(twojs, twomp, twom, ring))
                         for twojs, oms, mhs in tables
                         for twom, cm in mhs.get((twom1, twom2), ())
                         for twomp, co in oms.get((twok1, twok2), ())),
                        ring,
                    )
                    rep.record(
                        {**params, "twok2": twok2, "twom2": twom2},
                        _dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring),
                        rhs,
                    )
    return tuple(rep.cases)


# ---------------------------------------------------------------------
# Recurrence relations
# ---------------------------------------------------------------------


def _sq(twoint):
    """sqrt of an integer given doubled; negative means the term is absent.

    A negative radicand only ever occurs one step outside the magnetic
    band, where the accompanying matrix element vanishes as well.
    """
    if twoint % 2:
        raise ValueError("half-integer radicand in a recurrence coefficient")
    if twoint < 0:
        return ZERO
    return sqrt_nat(twoint // 2)


# twoj -> {(twomp, twom, g, ring): D^j_{m'm} times g}
_DLETTER_MEMO = {}


def _dletter(twoj, twomp, twom, g, ring):
    """D^j_{m'm} times the generator g, shared by the recurrences."""
    memo = _DLETTER_MEMO.setdefault(twoj, {})
    key = (twomp, twom, g, ring)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = dfunc(twoj, twomp, twom, ORDERED1, ring) * NCPoly.generator(g, ring)
    return hit


def _combine(side_terms, ring):
    """The sum of coef * D-entry * right over one side's terms; a term
    with a zero coefficient or an out-of-band D-entry is skipped."""
    pairs = []
    for coef, dspec, right in side_terms:
        if coef.is_zero() or not _in_band(*dspec):
            continue
        if right is None:
            pairs.append((coef, dfunc(*dspec, ORDERED1, ring)))
        else:
            pairs.extend((coef * c, _dletter(*dspec, g, ring)) for g, c in right)
    return ncalg.lincomb(pairs, ring)


def recurrence_terms(which, twoj, twok, twom, ring):
    """(lhs, rhs) term lists of one recurrence instance.

    Each term is (coefficient, (twoj, twom_row, twom_col), right_factor),
    the right factor None or a linear form in the generators as
    (generator index, RadScalar) pairs: u - h(m+1) x is ((U, ONE), (X,
    -h(m+1))).  twok plays the role of k in relations i/ii/v/vi and of n
    in the column relations iii/iv/vii/viii, where twom is the row
    index.  The terms do not depend on ring.
    """
    J, k, m = twoj, twok, twom
    x, u, v, y = ((X, ONE),), ((U, ONE),), ((V, ONE),), ((Y, ONE),)
    hm = H.scaled
    if which == "i":
        lhs = [
            (_sq(J + k), (J, k, m), None),
            (-_sq(J - k + 2).scaled(k - 1) * H, (J, k - 2, m), None),
        ]
        rhs = [
            (_sq(J + m), (J - 1, k - 1, m - 1), x),
            (_sq(J - m), (J - 1, k - 1, m + 1), ((U, ONE), (X, -hm(m + 1)))),
        ]
    elif which == "ii":
        lhs = [(_sq(J - k), (J, k, m), None)]
        rhs = [
            (_sq(J + m), (J - 1, k + 1, m - 1), v),
            (_sq(J - m), (J - 1, k + 1, m + 1), ((Y, ONE), (V, -hm(m + 1)))),
        ]
    elif which == "iii":
        lhs = [(_sq(J + k), (J, m, k), None)]
        rhs = [
            (_sq(J + m), (J - 1, m - 1, k - 1), ((X, ONE), (V, hm(m - 1)))),
            (_sq(J - m), (J - 1, m + 1, k - 1), v),
        ]
    elif which == "iv":
        # shifting n -> n+1 in the underlying product-law instance shifts
        # the radicand too: the coefficient is sqrt(j+n+1), not sqrt(j+n)
        lhs = [
            (_sq(J - k), (J, m, k), None),
            (_sq(J + k + 2).scaled(k + 1) * H, (J, m, k + 2), None),
        ]
        rhs = [
            (_sq(J + m), (J - 1, m - 1, k + 1), ((U, ONE), (Y, hm(m - 1)))),
            (_sq(J - m), (J - 1, m + 1, k + 1), y),
        ]
    elif which == "v":
        lhs = [
            (_sq(J - k + 2), (J, k, m), None),
            (_sq(J + k).scaled(k - 1) * H, (J, k - 2, m), None),
        ]
        rhs = [
            (_sq(J - m + 2), (J + 1, k - 1, m - 1), x),
            (-_sq(J + m + 2), (J + 1, k - 1, m + 1), ((U, ONE), (X, -hm(m + 1)))),
        ]
    elif which == "vi":
        lhs = [(_sq(J + k + 2), (J, k, m), None)]
        rhs = [
            (-_sq(J - m + 2), (J + 1, k + 1, m - 1), v),
            (_sq(J + m + 2), (J + 1, k + 1, m + 1), ((Y, ONE), (V, -hm(m + 1)))),
        ]
    elif which == "vii":
        lhs = [(_sq(J - k + 2), (J, m, k), None)]
        rhs = [
            (_sq(J - m + 2), (J + 1, m - 1, k - 1), ((X, ONE), (V, hm(m - 1)))),
            (-_sq(J + m + 2), (J + 1, m + 1, k - 1), v),
        ]
    elif which == "viii":
        lhs = [
            (_sq(J + k + 2), (J, m, k), None),
            (-_sq(J - k).scaled(k + 1) * H, (J, m, k + 2), None),
        ]
        rhs = [
            (-_sq(J - m + 2), (J + 1, m - 1, k + 1), ((U, ONE), (Y, hm(m - 1)))),
            (_sq(J + m + 2), (J + 1, m + 1, k + 1), y),
        ]
    else:
        raise ValueError(f"unknown recurrence {which!r}")
    return lhs, rhs


RECURRENCES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
# the recurrences that hold in each ring (v-viii use D = 1)
RING_RECURRENCES = {SL: RECURRENCES, GL: RECURRENCES[:4]}


def recurrence_check(which, twoj, ring=SL) -> Report:
    """Verify one of the eight recurrence relations at spin twoj/2.

    The running index covers one step beyond the magnetic band on both
    sides, so the boundary instances (where a vanishing square root or a
    vanishing out-of-band matrix element kills one side) are exercised
    too.  The relations v-viii relating D^j to D^{j+1/2} use D = 1 and are
    SL statements, refused in GL; i-iv hold in GL as well.
    """
    if which in RECURRENCES and which not in RING_RECURRENCES[ncalg.check_ring(ring)]:
        raise ValueError(f"recurrence {which} assumes determinant 1 (SL ring)")
    rep = Report("recurrence")
    if twoj < 1:
        raise ValueError("recurrences relate spins j and j -+ 1/2; need 2j >= 1")
    # at 2j the relations read D^{j -+ 1/2}: a loop up in 2j reads no
    # product of a spin below 2j - 1 again
    for spin in [spin for spin in _DLETTER_MEMO if spin < twoj - 1]:
        del _DLETTER_MEMO[spin]
    for twok in range(-twoj - 2, twoj + 4, 2):
        for twom in magnetics(twoj):
            lhs_terms, rhs_terms = recurrence_terms(which, twoj, twok, twom, ring)
            rep.record(
                {"which": which, "twoj": twoj, "twok": twok, "twom": twom},
                _combine(lhs_terms, ring),
                _combine(rhs_terms, ring),
            )
    return rep


# ---------------------------------------------------------------------
# Orthogonality-like relations
# ---------------------------------------------------------------------


def _sign(twodiff):
    """(-1)^(k - m) for twodiff = 2(k - m)."""
    return -1 if (twodiff // 2) % 2 else 1


def ortho_like_check(twoj, ring=SL) -> Report:
    _need_determinant_one(ring, "the orthogonality-like relations")
    rep = Report("ortho")
    mag_pairs = pair_basis(twoj, twoj)

    # F[(m1, m2), (m1, -m1)] and F^-1[(k1, -k1), (k1, k2)], zeros left out
    f_diag = {
        r: c for (r, s), c in pair_items(f_matrix(twoj, twoj), twoj, twoj) if s == (r[0], -r[0])
    }
    finv_diag = {
        s: c for (r, s), c in pair_items(f_inv_matrix(twoj, twoj), twoj, twoj) if r == (s[0], -s[0])
    }

    for twok1, twok2 in mag_pairs:
        lhs = ncalg.lincomb(
            ((c.scaled(_sign(twok1 - twom1)), _dprod(twoj, twok1, twom1, twoj, twok2, twom2, ring))
             for (twom1, twom2), c in f_diag.items()),
            ring,
        )
        rhs = NCPoly.scalar(f_diag.get((twok1, twok2), ZERO), ring)
        rep.record(
            {"law": "ortho1", "twoj": twoj, "twok1": twok1, "twok2": twok2},
            lhs,
            rhs,
        )

    for twom1, twom2 in mag_pairs:
        lhs = ncalg.lincomb(
            ((c.scaled(_sign(twom1 - twok1)), _dprod(twoj, twok1, twom1, twoj, twok2, twom2, ring))
             for (twok1, twok2), c in finv_diag.items()),
            ring,
        )
        rhs = NCPoly.scalar(finv_diag.get((twom1, twom2), ZERO), ring)
        rep.record(
            {"law": "ortho2", "twoj": twoj, "twom1": twom1, "twom2": twom2},
            lhs,
            rhs,
        )
    return rep


# ---------------------------------------------------------------------
# RTT relations
# ---------------------------------------------------------------------


def rtt_check(twoj1, twoj2, ring=SL) -> Report:
    """R T1 T2 = T2 T1 R entrywise on the product of two spins.

    (R T1 T2)[(m1,m2),(k1,k2)] = sum_s R[(m1,m2),s] D^{j1}_{s1k1} D^{j2}_{s2k2}
    is a sum over a row of R, (T2 T1 R)[(m1,m2),(k1,k2)] = sum_s
    D^{j2}_{m2s2} D^{j1}_{m1s1} R[s,(k1,k2)] one over a column.
    """
    rep = Report("rtt")
    r_items = list(pair_items(r_matrix(twoj1, twoj2), twoj1, twoj2))
    r_rows, r_cols = rows(r_items, lambda k: k), rows(r_items, lambda k: k[::-1])
    mag_pairs = pair_basis(twoj1, twoj2)
    for twom1, twom2 in mag_pairs:
        row = r_rows.get((twom1, twom2), ())
        params = {"twoj1": twoj1, "twoj2": twoj2, "twom1": twom1, "twom2": twom2}
        for twok1, twok2 in mag_pairs:
            lhs = ncalg.lincomb(
                ((c, _dprod(twoj1, twos1, twok1, twoj2, twos2, twok2, ring))
                 for (twos1, twos2), c in row),
                ring,
            )
            rhs = ncalg.lincomb(
                ((c, _dprod(twoj2, twom2, twos2, twoj1, twom1, twos1, ring))
                 for (twos1, twos2), c in r_cols.get((twok1, twok2), ())),
                ring,
            )
            rep.record({**params, "twok1": twok1, "twok2": twok2}, lhs, rhs)
    return rep


# ---------------------------------------------------------------------
# RTT at spin (1/2, 1/2) spans exactly the defining relations
# ---------------------------------------------------------------------

_GEN_AT = {(1, 1): ncalg.X, (1, -1): ncalg.U, (-1, 1): ncalg.V, (-1, -1): ncalg.Y}


def _free_rtt_elements():
    """LHS - RHS of the (1/2,1/2) RTT identities in the free algebra.

    Vectors over the 16 length-two free words with polynomial coefficients
    in h; no rewriting is applied.
    """
    r_items = list(pair_items(r_matrix(1, 1), 1, 1))
    r_rows, r_cols = rows(r_items, lambda k: k), rows(r_items, lambda k: k[::-1])
    mag_pairs = pair_basis(1, 1)

    vecs = []
    for m1, m2 in mag_pairs:
        for k1, k2 in mag_pairs:
            vec = {}
            for (s1, s2), c in r_rows.get((m1, m2), ()):
                accumulate(vec, (_GEN_AT[(s1, k1)], _GEN_AT[(s2, k2)]), c)
            for (s1, s2), c in r_cols.get((k1, k2), ()):
                accumulate(vec, (_GEN_AT[(m2, s2)], _GEN_AT[(m1, s1)]), -c)
            if vec:
                vecs.append(vec)
    return vecs


def _free_defining_relations():
    """The six rewrite rules as free-algebra elements (pair - replacement)."""
    vecs = []
    for pair, repl in ncalg.GL_RULES.items():
        vec = {pair: ONE}
        for word, coef in repl:
            accumulate(vec, word, -coef)
        vecs.append(vec)
    return vecs


def _reduce(vec, basis):
    """Eliminate every basis pivot from vec by fraction-free row steps."""
    for pivot, bvec in basis:
        c = vec.get(pivot)
        if c is None:
            continue
        p = bvec[pivot]
        out = {}
        for w, cv in vec.items():
            accumulate(out, w, p * cv)
        for w, cv in bvec.items():
            accumulate(out, w, -(c * cv))
        vec = out
    return vec


def _echelon(vecs):
    """Fraction-free row reduction over the polynomial coefficient ring."""
    basis = []  # list of (pivot_word, vec)
    for vec in vecs:
        vec = _reduce(vec, basis)
        if vec:
            basis.append((sorted(vec)[0], vec))
    return basis


def _in_span(vec, basis):
    return not _reduce(vec, basis)


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
        rep.add({"direction": "relation in rtt span", "index": i}, _in_span(vec, rtt_basis))
    for i, vec in enumerate(rtt_vecs):
        rep.add({"direction": "rtt in relation span", "index": i}, _in_span(vec, rel_basis))
    rep.add(
        {"direction": "rank", "rtt": len(rtt_basis), "relations": len(rel_basis)},
        len(rtt_basis) == len(rel_basis) == 6,
    )
    return rep
