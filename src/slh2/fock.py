"""Exact truncated Fock-space oracle on four boson modes.

States are occupation 4-tuples (n11, n21, n12, n22) of the modes
a_1^1, a_2^1, a_1^2, a_2^2; the total number N grades the space and
every operator here is grade homogeneous, so identities on the infinite
Fock space reduce to exact finite matrix identities per grade block.

The twisted generators

    x = a_1^1 (1-2hJ+)^{1/2} (1-2hK+)^{-1/2}
    u = a_1^2 (1-2hJ+)^{1/2} (1-2hK+)^{1/2}
    v = a_2^1 (1-2hJ+)^{-1/2} (1-2hK+)^{-1/2}
    y = a_2^2 (1-2hJ+)^{-1/2} (1-2hK+)^{1/2}

realize the deformed ring with undeformed central determinant
a_1^1 a_2^2 - a_2^1 a_1^2, which makes this module an oracle for the
symbolic rewrite engine that is computed by entirely different means:
binomial series of nilpotent number-conserving bilinears instead of
normal-ordering rewrites.

Matrices are stored so that every product is a product of Python ints:

* Keys.  A FockOp maps row * dim(src) + col to its entry, one int per
  nonzero entry, so no (row, col) tuple is built, hashed or scanned by
  the garbage collector; cols() splits a key with one divmod.
* Products.  A o B visits the entries of B column by column and reads
  the columns of A (Gustavson's column-driven product), so the work
  follows nnz(B): on the vacuum, B is a vector.
* Sums.  A sum starts from its first nonzero operand, copied in one
  pass (scaled by one comprehension unless its scale is 1); the later
  operands add into that copy.  A nonzero operand times a nonzero scale
  has no zero entry, so the zeros are filtered out only once a second
  operand was added.  `evaluate` reads the flat terms of a polynomial:
  each key names its word and the one monomial q sqrt(r) h^k of it.
* Basis.  A FockOp works in the unnormalized occupation basis
  (a_1^1)^n11 ... (a_2^2)^n22 |0>, which is the normalized one scaled by
  the diagonal sqrt(n11! n21! n12! n22!).  There a creation has
  amplitude 1, an annihilation amplitude n and the hop a_to^+ a_from
  amplitude n_from.  "op == 0" and "A == B" do not change under the
  similarity; in the normalized basis an entry is the stored one times
  sqrt(n_dst! / n_src!), n! being the product of a state's factorials.
* Weight.  A state has weight w = n11 + 2 n21 + n22.  J+ and K+ raise w
  by one and come with one h in every series, so entry (i, j) of every
  operator built here is q * h^(w(i) - w(j) - c), where c is an offset
  the operator carries: a creation of mode m has c = (1, 2, 0, 1)[m],
  products add offsets, and scaling by h^k lowers c by k.  (This is the
  weight grading v=1, x=y=2, u=3, h=1 of the GL ring, as c = 3 - weight
  per letter.)
* Twist series.  J+ and K+ are each two commuting hops A + B on
  disjoint modes, so no power of them is multiplied out: entry (t, s) of
  (1 - 2h P)^e, t being s with i quanta moved by A and k - i by B, is

      (-2h)^k binom(e, k) binom(k, i) perm(s_A, i) perm(s_B, k - i),

  s_A and s_B the quanta in the source modes of A and B.  A twisted
  letter is its creation applied to such a series, which only moves
  the rows of the series.
* Evaluation at h = 2.  With the power of h fixed by (i, j, c), an entry
  is stored as q * 2^d, d = w(i) - w(j) - c; this is exact, and it is an
  int for every series term, because 4^k binom(e, k) is an integer for e
  in Z/2.  Only a rational coefficient of the caller (the factorials of
  `classical_dop`) makes a stored value a Fraction.
* Radicand.  An operator also carries one squarefree radicand r, a common
  factor sqrt(r) of all its entries; every D-function entry has a single
  radicand.  A sum whose offsets or radicands disagree raises ValueError:
  it is never guessed.
* The parameter g.  The two-parameter generators carry g with the same
  weight as h, so on g = t h an entry becomes h^d P(t), with P a
  polynomial of degree at most the g-degree of the case.  The g-degrees
  of a, b, c, d are 1, 2, 0, 1, so each checked relation has degree at
  most 3 in g ([a,b], (D'-a^2)(h+g) and [b,d] reach it), and
  `two_parameter_check` evaluates at t = 0..3: a polynomial of degree 3
  that vanishes at 4 points is zero.  The bound is derived from the
  relation table below, not written in by hand.
"""

import random
from functools import lru_cache
from math import comb, gcd, perm

from ._rat import Q, num
from . import ncalg
from .dfun import ORDERED1, check_indices, dfunc, iter_klmn
from .kernel import WORD_MASK, degree, h_power, radicand, scalar_part
from .kernel import word as kernel_word
from .ncalg import GL, NCPoly, normal_form
from .rep import _binom, magnetics
from .report import Report
from .scalar import H, ONE, RadScalar

# boson modes in state order, and the weight of one quantum in each
A11, A21, A12, A22 = 0, 1, 2, 3
MODE_WEIGHT = (1, 2, 0, 1)


@lru_cache(maxsize=None)
def states(n: int):
    """Basis of the grade-n subspace, lexicographic occupation order."""
    out = []
    for n11 in range(n + 1):
        for n21 in range(n + 1 - n11):
            for n12 in range(n + 1 - n11 - n21):
                out.append((n11, n21, n12, n - n11 - n21 - n12))
    return tuple(out)


@lru_cache(maxsize=None)
def state_index(n: int):
    return {s: i for i, s in enumerate(states(n))}


def dim(n: int) -> int:
    return len(states(n))


def weight(state) -> int:
    return sum(k * w for k, w in zip(state, MODE_WEIGHT))


def _monomial(coef):
    """(q, mono) for a coefficient q * sqrt(r) * h^k, mono the scalar key
    of sqrt(r) * h^k; (0, 0) for zero."""
    coef = RadScalar.coerce(coef)
    monos = coef.raw()
    if not monos:
        return 0, 0
    if len(monos) > 1:
        raise ValueError(f"a FockOp scales by one monomial q*sqrt(r)*h^k, not {coef!r}")
    (mono, q), = monos.items()
    return q, mono


class FockOp:
    """Sparse exact matrix between two grade blocks.

    data maps the int key row * dim(src) + col to the unnormalized-basis
    entry at h = 2; entry (i, j) itself is data[i * dim(src) + j] / 2^d *
    h^d * sqrt(rad) with d = w(i) - w(j) - offset.  An operator without
    entries is zero whatever its offset and radicand.
    """

    __slots__ = ("src", "dst", "data", "offset", "rad", "_cols")

    def __init__(self, src, dst, data, offset=0, rad=1):
        self.src = src
        self.dst = dst
        self.data = data  # {row * dim(src) + col: nonzero int or Fraction}
        self.offset = offset
        self.rad = rad
        self._cols = None

    def cols(self):
        """{col: [(row, value), ...]}, built once per operator."""
        if self._cols is None:
            cols = {}
            width = dim(self.src)
            for k, v in self.data.items():
                i, j = divmod(k, width)
                cols.setdefault(j, []).append((i, v))
            self._cols = cols
        return self._cols

    @staticmethod
    def zero(src, dst):
        return FockOp(src, dst, {})

    @staticmethod
    def identity(n):
        d = dim(n)
        return FockOp(n, n, {i * (d + 1): 1 for i in range(d)})

    @staticmethod
    def lincomb(src, dst, pairs):
        """The sum of coef * op over (coef, op) pairs, in one dict.

        A coefficient is one monomial q * sqrt(r) * h^k (an int or a
        rational too).  Every nonzero term must have the same h-offset and
        radicand; otherwise the sum raises ValueError.
        """
        return FockOp._sum(src, dst, ((*_monomial(coef), op) for coef, op in pairs))

    @staticmethod
    def _sum(src, dst, terms):
        """The sum of q * sqrt(r) * h^k * op over (q, mono, op) triples,
        mono the scalar key of sqrt(r) * h^k: the body of lincomb, which
        evaluate calls with the monomials of its flat terms."""
        data = None
        key = None
        summed = False
        for q, mono, op in terms:
            if op.src != src or op.dst != dst:
                raise ValueError("grade mismatch in FockOp sum")
            if not q or not op.data:
                continue
            r, k = radicand(mono), h_power(mono)
            g = gcd(op.rad, r)
            term_key = (op.offset - k, (op.rad // g) * (r // g))
            if key is None:
                key = term_key
            elif key != term_key:
                raise ValueError(
                    "FockOp sum of unlike terms: (h-offset, radicand) "
                    f"{key} and {term_key}"
                )
            q = num(q * (g << k))
            if data is None:
                # the first operand, copied: the sum owns its dict
                data = dict(op.data) if q == 1 else {ij: v * q for ij, v in op.data.items()}
            else:
                get = data.get
                for ij, v in op.data.items():
                    data[ij] = get(ij, 0) + v * q
                summed = True
        if key is None:
            return FockOp.zero(src, dst)
        if summed:
            data = {ij: v for ij, v in data.items() if v}
        return FockOp(src, dst, data, *key)

    def __add__(self, other):
        return FockOp.lincomb(self.src, self.dst, ((1, self), (1, other)))

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return FockOp.lincomb(self.src, self.dst, ((1, self), (-1, other)))

    def scaled(self, coef):
        """Multiply by one monomial coefficient, as in lincomb."""
        return FockOp.lincomb(self.src, self.dst, ((coef, self),))

    def __mul__(self, other):
        """Composition self o other (other acts first)."""
        if other.dst != self.src:
            raise ValueError(
                f"grade mismatch: composing {self.src}->{self.dst} after "
                f"{other.src}->{other.dst}"
            )
        # column-driven: visit other's entries, read self's columns
        by_col = self.cols()
        width = dim(other.src)
        height = dim(self.dst)
        data = {}
        for aj, col in other.cols().items():
            acc = [0] * height
            for b, w in col:
                for ci, v in by_col.get(b, ()):
                    acc[ci] += v * w
            for k, p in zip(range(aj, height * width, width), acc):
                if p:
                    data[k] = p
        g = gcd(self.rad, other.rad)
        if g != 1:
            data = {k: p * g for k, p in data.items()}
        return FockOp(
            other.src,
            self.dst,
            data,
            self.offset + other.offset,
            (self.rad // g) * (other.rad // g),
        )

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        # nonzero operators of unlike offset or radicand differ in some entry
        return (
            isinstance(other, FockOp)
            and self.src == other.src
            and self.dst == other.dst
            and self.data == other.data
            and (not self.data or (self.offset, self.rad) == (other.offset, other.rad))
        )

    def __repr__(self):
        return (
            f"FockOp({self.src}->{self.dst}, nnz={len(self.data)}, "
            f"offset={self.offset}, rad={self.rad})"
        )


# P = J+ or K+ as two commuting hops (from_mode, to_mode) on disjoint modes
_PLUS_HOPS = {"j": ((A11, A21), (A12, A22)), "k": ((A12, A11), (A22, A21))}


@lru_cache(maxsize=None)
def _one_minus_pow(which, n, exponent):
    """(1 - 2h P)^exponent with P = J+ or K+ on grade n, by the closed form
    of the module docstring.  At h = 2 the coefficient of term k is the int
    (-4)^k binom(e, k), and the offset stays 0."""
    (a_src, a_dst), (b_src, b_dst) = _PLUS_HOPS[which]
    e = Q(exponent)
    coef = [num((-4) ** k * _binom(e, k)) for k in range(n + 1)]
    idx = state_index(n)
    width = dim(n)
    data = {}
    for col, s in enumerate(states(n)):
        for i in range(s[a_src] + 1):
            for j in range(s[b_src] + 1):
                c = coef[i + j]
                if not c:
                    continue
                t = list(s)
                t[a_src] -= i
                t[a_dst] += i
                t[b_src] -= j
                t[b_dst] += j
                amp = comb(i + j, i) * perm(s[a_src], i) * perm(s[b_src], j)
                data[idx[tuple(t)] * width + col] = c * amp
    return FockOp(n, n, data)


@lru_cache(maxsize=None)
def exp_lr(n, lcoef, rcoef):
    """e^{l sigma_L + r sigma_R} on grade n, via (1-2hJ+)^{-l} (1-2hK+)^{-r}."""
    lq, rq = Q(lcoef), Q(rcoef)
    out = None
    if lq:
        out = _one_minus_pow("j", n, -lq)
    if rq:
        right = _one_minus_pow("k", n, -rq)
        out = right if out is None else out * right
    return FockOp.identity(n) if out is None else out


# letter -> (the unit occupation of its boson mode, the exponents of exp_lr)
_LETTER_FACTORS = {
    ncalg.X: ((1, 0, 0, 0), Q(-1, 2), Q(1, 2)),
    ncalg.U: ((0, 0, 1, 0), Q(-1, 2), Q(-1, 2)),
    ncalg.V: ((0, 1, 0, 0), Q(1, 2), Q(1, 2)),
    ncalg.Y: ((0, 0, 0, 1), Q(1, 2), Q(-1, 2)),
}


@lru_cache(maxsize=None)
def twisted_letter(g: int, n: int) -> FockOp:
    # checked here, on a cache miss, so that evaluating a word pays nothing
    if g not in _LETTER_FACTORS:
        raise ValueError(f"not a generator index: {g!r}; the letters are 0..3 (v, x, y, u)")
    occ, lc, rc = _LETTER_FACTORS[g]
    # the creation C_g is a 0/1 injection: C_g exp_lr moves row i of exp_lr
    # to the row of states(n)[i] + occ
    twist = exp_lr(n, lc, rc)
    width = dim(n)
    rows = [row * width for row in _created_rows(occ, n)]
    data = {rows[k // width] + k % width: v for k, v in twist.data.items()}
    return FockOp(n, n + 1, data, twist.offset + weight(occ), twist.rad)


def twisted_generators(n: int):
    """The grade-n blocks of the deformed generators, as a name map."""
    return {name: twisted_letter(ncalg.GEN_INDEX[name], n) for name in "xuvy"}


@lru_cache(maxsize=None)
def eval_letters(letters, n: int) -> FockOp:
    """Direct evaluation of a free word (no rewriting), rightmost first; a
    one-letter word is the letter's own operator."""
    if not letters:
        return FockOp.identity(n)
    if len(letters) == 1:
        return twisted_letter(letters[0], n)
    head = eval_letters(letters[1:], n)
    return twisted_letter(letters[0], n + len(letters) - 1) * head


def _top_grade(words, n: int) -> int:
    """n plus the common length of the words; ValueError if they differ."""
    degrees = {len(letters) for letters in words}
    if len(degrees) > 1:
        raise ValueError(f"grade-homogeneous terms only: mixed degrees {sorted(degrees)}")
    return n + max(degrees, default=0)


def eval_free(terms, n: int) -> FockOp:
    """Evaluate a formal combination [(letters, coef), ...] of free words;
    no terms give the zero map on grade n."""
    terms = [(tuple(ltrs), c) for ltrs, c in terms]
    top = _top_grade([letters for letters, _ in terms], n)
    return FockOp.lincomb(n, top, [(coef, eval_letters(letters, n)) for letters, coef in terms])


@lru_cache(maxsize=None)
def _word_letters(word):
    """The letters of the slot-0 word fields of a flat key."""
    return ncalg.word_letters(kernel_word(word))


def evaluate(p: NCPoly, n: int) -> FockOp:
    """Oracle homomorphism: substitute the twisted generators into p.

    Only GL-tagged polynomials are accepted: the realization has central
    determinant a_1^1 a_2^2 - a_2^1 a_1^2, not 1, so the SL quotient does
    not act on this space.  Each flat key of p is one word and one
    monomial of its coefficient, so a word with two keys has a
    coefficient that is not one monomial, and raises.
    """
    if p.ring != GL:
        raise ValueError("the Fock realization only represents the GL ring")
    terms = p._terms
    words = [key & WORD_MASK for key in terms]
    letters = [_word_letters(w) for w in words]
    top = _top_grade(letters, n)
    if len(set(words)) < len(words):
        raise ValueError(
            "a FockOp scales by one monomial q*sqrt(r)*h^k, and a word of "
            f"{p!r} has a coefficient of more terms"
        )
    return FockOp._sum(
        n,
        top,
        [
            (q, scalar_part(key), eval_letters(ltrs, n))
            for ltrs, (key, q) in zip(letters, terms.items())
        ],
    )


def _created_rows(occ, n: int):
    """The index of states(n)[i] + occ in grade n + |occ|, for each i."""
    idx = state_index(n + sum(occ))
    return [idx[tuple(a + b for a, b in zip(s, occ))] for s in states(n)]


@lru_cache(maxsize=None)
def _creation_monomial(occ, n: int) -> FockOp:
    """(a11)^K (a21)^L (a12)^M (a22)^N as a grade n -> n+|occ| matrix."""
    width = dim(n)
    data = {row * width + j: 1 for j, row in enumerate(_created_rows(occ, n))}
    return FockOp(n, n + sum(occ), data, weight(occ))


def classical_dop(twoj, twomp, twom, n: int) -> FockOp:
    """Undeformed matrix-element operator, a pure creation polynomial."""
    check_indices(twoj, twomp, twom)
    return FockOp.lincomb(
        n,
        n + twoj,
        [(coef, _creation_monomial(klmn, n)) for klmn, coef in iter_klmn(twoj, twomp, twom)],
    )


def twisted_dop(twoj, twomp, twom, n: int) -> FockOp:
    """The doubly twisted tensor operator D0 e^{-m' sigma_L + m sigma_R}."""
    return classical_dop(twoj, twomp, twom, n) * exp_lr(
        n, Q(-twomp, 2), Q(twom, 2)
    )


def determinant_op(n: int) -> FockOp:
    """a_1^1 a_2^2 - a_2^1 a_1^2 as a grade n -> n+2 matrix."""
    return _creation_monomial((1, 0, 0, 1), n) - _creation_monomial((0, 1, 1, 0), n)


def two_parameter_generators(n: int, t):
    """Two-parameter twisted generators on grade n at g = t h.

    On a grade block the number operators are scalars (Z_L = -n, Z_R = n),
    so the definitions a = x - g v Z_L, b = u - g x Z_R - g y Z_L
    + g^2 v Z_L Z_R, c = v, d = y - g v Z_R collapse to combinations of
    the one-parameter generators with g n coefficients; their degrees in
    g are 1, 2, 0 and 1 (`_G_DEGREE`).
    """
    tg = twisted_generators(n)
    x, u, v, y = (tg[name] for name in "xuvy")
    gn = H.scaled(t * n)

    def comb(*pairs):
        return FockOp.lincomb(n, n + 1, pairs)

    return {
        "a": comb((1, x), (gn, v)),
        "b": comb((1, u), (-gn, x), (gn, y), (-gn * gn, v)),
        "c": v,
        "d": comb((1, y), (-gn, v)),
    }


# ---------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------

# the six defining relations as free-word combinations (letters, coef),
# each homogeneous of degree two: lhs - rhs = 0
_GL_FREE_RELATIONS = {
    "[v,x]=hv2": [("vx", ONE), ("xv", -ONE), ("vv", -H)],
    "[v,y]=hv2": [("vy", ONE), ("yv", -ONE), ("vv", -H)],
    "[u,x]=h(D-x2)": [
        ("ux", ONE),
        ("xu", -ONE),
        ("xy", -H),
        ("uv", H),
        ("xv", H * H),
        ("xx", H),
    ],
    "[u,y]=h(D-y2)": [
        ("uy", ONE),
        ("yu", -ONE),
        ("xy", -H),
        ("uv", H),
        ("xv", H * H),
        ("yy", H),
    ],
    "[x,y]=h(xv-yv)": [
        ("xy", ONE),
        ("yx", -ONE),
        ("xv", -H),
        ("yv", H),
    ],
    "[v,u]=h(xv+vy)": [
        ("vu", ONE),
        ("uv", -ONE),
        ("xv", -H),
        ("vy", -H),
    ],
}


def _letters(word):
    return tuple(ncalg.GEN_INDEX[ch] for ch in word)


def _check_nmax(nmax):
    # a negative cutoff evaluates no grade, so every case would pass vacuously
    if nmax < 0:
        raise ValueError(f"grade cutoff nmax={nmax} must be non-negative")


def _first_mismatch(nmax, left, right):
    """The texts (lhs, rhs) of both operators at the first grade n <= nmax
    where left(n) != right(n), or (None, None) when there is none."""
    for n in range(nmax + 1):
        a, b = left(n), right(n)
        if a != b:
            return f"grade {n}: {a!r}", f"grade {n}: {b!r}"
    return None, None


def relations_check(nmax: int = 4) -> Report:
    """All six defining relations for the twisted generators, grades <= nmax;
    a failing case keeps the nonzero operator's repr as its lhs."""
    _check_nmax(nmax)
    rep = Report("fock-relations")
    for name, combo in _GL_FREE_RELATIONS.items():
        terms = [(_letters(w), c) for w, c in combo]
        for n in range(nmax + 1):
            op = eval_free(terms, n)
            rep.add({"relation": name, "grade": n}, op.is_zero(), repr(op))
    return rep


def determinant_check(nmax: int = 4) -> Report:
    """x y - u v - h x v equals the undeformed boson determinant."""
    _check_nmax(nmax)
    rep = Report("fock-determinant")
    terms = [(_letters("xy"), ONE), (_letters("uv"), -ONE), (_letters("xv"), -H)]
    for n in range(nmax + 1):
        op = eval_free(terms, n) - determinant_op(n)
        rep.add({"grade": n}, op.is_zero(), repr(op))
    return rep


def homomorphism_check(nmax: int = 4, words: int = 200, maxlen: int = 4, seed: int = 7) -> Report:
    """evaluate(normal_form(w)) equals direct evaluation of w, random words;
    a failing case keeps both operators at the first grade that differs."""
    _check_nmax(nmax)
    rep = Report("fock-homomorphism")
    rng = random.Random(seed)
    for i in range(words):
        length = rng.randint(1, maxlen)
        letters = tuple(rng.randrange(4) for _ in range(length))
        p = normal_form([(letters, ONE)], GL)
        lhs, rhs = _first_mismatch(
            nmax, lambda n: evaluate(p, n), lambda n: eval_letters(letters, n)
        )
        word = "".join(ncalg.GEN_NAMES[g] for g in letters)
        rep.add({"word": word, "index": i}, lhs is None, lhs, rhs)
    return rep


def twisted_dop_check(max_twoj: int = 2, nmax: int = 3) -> Report:
    """The ordered closed form evaluates to D0 e^{-m' sigma_L + m sigma_R};
    an entry with a word of length other than 2j fails.  A failing case
    keeps both operators at the first grade that differs, or the word
    lengths."""
    _check_nmax(nmax)
    rep = Report("fock-dfunction")
    for twoj in range(max_twoj + 1):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                p = dfunc(twoj, twomp, twom, ORDERED1, GL)
                lengths = {degree(k) for k in p._terms}
                if lengths - {twoj}:
                    lhs, rhs = f"word lengths {sorted(lengths)}", f"2j = {twoj}"
                else:
                    lhs, rhs = _first_mismatch(
                        nmax,
                        lambda n: evaluate(p, n),
                        lambda n: twisted_dop(twoj, twomp, twom, n),
                    )
                rep.add({"twoj": twoj, "twomp": twomp, "twom": twom}, lhs is None, lhs, rhs)
    return rep


# Two-parameter ring: each relation lhs - rhs = 0 as terms (word, c, ch, cg)
# with coefficient c + ch h + cg g; a word "pq" is the grade n -> n+2 map
# p q, and "D" the boson determinant, which D' equals.
_G_DEGREE = {"a": 1, "b": 2, "c": 0, "d": 1}
_TWO_PARAMETER_RELATIONS = {
    "[a,b]=-(h+g)(D'-a^2)": [
        ("ab", 1, 0, 0), ("ba", -1, 0, 0), ("D", 0, 1, 1), ("aa", 0, -1, -1),
    ],
    "[a,c]=-(h-g)c^2": [("ac", 1, 0, 0), ("ca", -1, 0, 0), ("cc", 0, 1, -1)],
    "[a,d]=(h+g)ac-(h-g)dc": [
        ("ad", 1, 0, 0), ("da", -1, 0, 0), ("ac", 0, -1, -1), ("dc", 0, 1, -1),
    ],
    "[b,c]=-(h+g)ac-(h-g)cd": [
        ("bc", 1, 0, 0), ("cb", -1, 0, 0), ("ac", 0, 1, 1), ("cd", 0, 1, -1),
    ],
    "[b,d]=(h-g)(D'-d^2)": [
        ("bd", 1, 0, 0), ("db", -1, 0, 0), ("D", 0, -1, 1), ("dd", 0, 1, -1),
    ],
    "[c,d]=(h+g)c^2": [("cd", 1, 0, 0), ("dc", -1, 0, 0), ("cc", 0, -1, -1)],
    "D'=D": [("ad", 1, 0, 0), ("bc", -1, 0, 0), ("ac", 0, -1, -1), ("D", -1, 0, 0)],
}


def g_degree_bound(relations) -> int:
    """A bound on the degree in g of every entry of every relation:
    generator degrees add along a word, and a g in the coefficient adds one."""
    return max(
        sum(_G_DEGREE.get(ch, 0) for ch in word) + (cg != 0)
        for combo in relations.values()
        for word, _, _, cg in combo
    )


def two_parameter_check(nmax: int = 3) -> Report:
    """The two-parameter relations with g = t h at t = 0 .. the g-degree bound.

    An entry of a relation is h^d P(t) with deg P <= g_degree_bound, so a
    case that vanishes at that many points plus one vanishes identically;
    a case passes only if it vanishes at every point.
    """
    _check_nmax(nmax)
    rep = Report("fock-two-parameter")
    relations = _TWO_PARAMETER_RELATIONS
    points = range(g_degree_bound(relations) + 1)
    for n in range(nmax + 1):
        ok = dict.fromkeys(relations, True)
        for t in points:
            lo = two_parameter_generators(n, t)
            hi = two_parameter_generators(n + 1, t)
            ops = {"D": determinant_op(n)}
            for name, combo in relations.items():
                terms = []
                for word, c, ch, cg in combo:
                    if word not in ops:
                        ops[word] = hi[word[0]] * lo[word[1]]
                    terms.append((c + H.scaled(ch + cg * t), ops[word]))
                ok[name] = ok[name] and FockOp.lincomb(n, n + 2, terms).is_zero()
        for name in relations:
            rep.add({"relation": name, "grade": n}, ok[name])
    return rep


def fock_suite(nmax: int = 4, with_g: bool = False) -> Report:
    rep = Report("fock")
    rep.extend(relations_check(nmax))
    rep.extend(determinant_check(nmax))
    rep.extend(homomorphism_check(nmax))
    rep.extend(twisted_dop_check(2, min(3, nmax)))
    if with_g:
        rep.extend(two_parameter_check(min(3, nmax)))
    return rep
