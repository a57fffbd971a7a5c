"""The algebras GL_h(2) and SL_h(2) as confluent rewrite systems.

Generators are ordered v < x < y < u with weights 1, 2, 2, 3.  A word is
normal when its letters are non-decreasing, i.e. of shape v^a x^b y^c u^d;
the exponent tuple (a, b, c, d) is the internal key.  The six defining
commutation relations become rewrite rules on descending adjacent pairs:

    xv -> vx - h v^2            yx -> xy - h xv + h yv
    yv -> vy - h v^2            ux -> xu + h(xy - uv - h xv - x^2)
    uv -> vu - h xv - h vy      uy -> yu + h(xy - uv - h xv - y^2)

In the SL ring the quantum determinant xy - uv - h xv is set to 1, which
normal-orders to the extra rule

    xy -> 1 + vu - h vy

so an SL-normal word never contains both x and y.  Every right-hand side
term is strictly smaller than the rewritten pair in (weight, lex) order,
which gives termination; confluence is exercised by the test suite rather
than assumed.

RULES is the single definition of these rules: the engine below, the
naive rewriter in pbwcheck and hopfcheck.rtt_frt_check all read it.  The
Fock oracle keeps its own copy of the relations on purpose, so that it
stays a witness independent of this table.

The engine works per normal word and per power of h (the graded setting
of Bergman's diamond lemma).  _word_mul_word multiplies two normal words:
by one letter it applies a rule (memo _MEMO), by a longer word it folds
over the letters (memo _WW_MEMO).  Every rule coefficient is +-1 times a
power of h, so a memo entry has radicand 1 and int values.

The memos are keyed on word cores.  No rule has v as its left letter and
none has u as its right letter, so v^a W and W u^d are normal whenever W
is, and a rewrite of w1 w2 = v^a (w1' w2') u^d happens inside the core
product w1' w2', where w1' is w1 with its v-power zeroed and w2' is w2
with its u-power zeroed.  _mul looks up NF(w1' w2') and adds a to the
v-slot and d to the u-slot of each output key; words that differ only in
those powers share one entry.  A core w1' times the word 1 is w1' and
has no entry.

The flat-term format and its gcd and int rules belong to kernel; scaled
sums, lincomb and normal_form go through kernel.scale_into.  _mul, the
product of two flat term dicts, is one loop over term pairs: each pair's
scalar product times each term of the memoised word product, summed
straight into the output dict with no call per output term.  It passes
its output through kernel.ints once when an input value was not an int,
so the all-int path pays one type check per term pair.

lincomb, the sum of scaled polynomials that the constructions and the
suites use, accumulates over ints: its coefficients are multiplied by
the lcm den of their denominators, and the output is divided by den
once at the end.  Scaling by a nonzero constant is injective, so a sum
cancels exactly when it did over the rationals.
"""

from functools import lru_cache
from math import gcd

from .kernel import ints, rad_add, rad_div, rad_neg, scale_into
from .scalar import ONE, ZERO, H, RadScalar, terms_json

V, X, Y, U = 0, 1, 2, 3
GEN_NAMES = "vxyu"
GEN_INDEX = {"v": V, "x": X, "y": Y, "u": U}
WEIGHTS = (1, 2, 2, 3)

GL = "gl"
SL = "sl"
RINGS = (GL, SL)

_MINUS_H = -H
_H2 = H * H
_MINUS_H2 = -_H2

# The rule table.  Each entry maps a reducible pair to its replacement as
# (word, coefficient) pairs; words are tuples of generator indices.
GL_RULES = {
    (X, V): (((V, X), ONE), ((V, V), _MINUS_H)),
    (Y, V): (((V, Y), ONE), ((V, V), _MINUS_H)),
    (U, V): (((V, U), ONE), ((X, V), _MINUS_H), ((V, Y), _MINUS_H)),
    (Y, X): (((X, Y), ONE), ((X, V), _MINUS_H), ((Y, V), H)),
    (U, X): (
        ((X, U), ONE),
        ((X, Y), H),
        ((U, V), _MINUS_H),
        ((X, V), _MINUS_H2),
        ((X, X), _MINUS_H),
    ),
    (U, Y): (
        ((Y, U), ONE),
        ((X, Y), H),
        ((U, V), _MINUS_H),
        ((X, V), _MINUS_H2),
        ((Y, Y), _MINUS_H),
    ),
}
SL_RULES = dict(GL_RULES)
SL_RULES[(X, Y)] = (((), ONE), ((V, U), ONE), ((V, Y), _MINUS_H))
RULES = {GL: GL_RULES, SL: SL_RULES}


def check_ring(ring):
    if ring not in RINGS:
        raise ValueError(f"unknown ring tag {ring!r}; expected 'gl' or 'sl'")
    return ring


def word_weight(exps):
    a, b, c, d = exps
    return a + 2 * b + 2 * c + 3 * d


def word_letters(exps):
    """Expand an exponent tuple to the letter sequence it stands for."""
    a, b, c, d = exps
    return (V,) * a + (X,) * b + (Y,) * c + (U,) * d


@lru_cache(maxsize=None)
def word_str(exps):
    return "".join(GEN_NAMES[g] for g in word_letters(exps))


@lru_cache(maxsize=None)
def word_sort_key(exps):
    return (word_weight(exps), word_letters(exps))


# ---------------------------------------------------------------------
# The rewrite engine, on flat term dicts (see NCPoly).  Memo entries are
# shared per ring and must never be mutated.  Every flat key, NCPoly or
# hopfcheck.TensorPoly, ends in (radicand, h_power).
# ---------------------------------------------------------------------

# the one-letter words v, x, y, u as exponent tuples, by generator index
LETTER_WORDS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

_MEMO = {GL: {}, SL: {}}
_WW_MEMO = {GL: {}, SL: {}}


def _memo(w2, ring):
    """The memo of products by w2: _MEMO for one letter, else _WW_MEMO."""
    return (_MEMO if sum(w2) == 1 else _WW_MEMO)[ring]


def _word_mul_word(w1, w2, ring):
    """Normal form of the normal word w1 times the word w2, as flat terms,
    memoised on (w1, w2) as given; _mul passes cores."""
    one_letter = sum(w2) == 1
    memo = _memo(w2, ring)
    key = (w1, w2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not any(w2):
        # w1 1 is normal already and needs no memo entry; 1 w2 is kept,
        # since with_ring passes words that the ring rewrites
        return {w1 + (1, 0): 1}
    if not one_letter:
        res = _times_letters({w1 + (1, 0): 1}, word_letters(w2), ring)
    else:
        g = w2.index(1)
        last = max((i for i in range(4) if w1[i]), default=None)
        rule = RULES[ring].get((last, g))
        if rule is None:
            # w1 g is already normal
            res = {w1[:g] + (w1[g] + 1,) + w1[g + 1 :] + (1, 0): 1}
        else:
            # w1 = base last; fold each replacement word of (last, g) onto base
            base = w1[:last] + (w1[last] - 1,) + w1[last + 1 :] + (1, 0)
            res = {}
            for word, coef in rule:
                scale_into(res, _times_letters({base: 1}, word, ring), coef.raw())
    memo[key] = res
    return res


def _times_letters(terms, letters, ring):
    """terms times each letter in turn, as flat terms."""
    for g in letters:
        terms = _mul(terms, {LETTER_WORDS[g] + (1, 0): 1}, ring)
    return terms


def _mul(t1, t2, ring):
    """The product of two flat term dicts: one loop over term pairs, each
    word product looked up on the cores (see the module docstring) and
    made by _word_mul_word on a miss."""
    out = {}
    get = out.get
    rational = False
    right = []
    for k2, q2 in t2.items():
        core2 = k2[:3] + (0,)
        right.append((core2, k2[3], k2[4], k2[5], q2, _memo(core2, ring).get))
    for k1, q1 in t1.items():
        a1, r1, i1 = k1[0], k1[4], k1[5]
        core1 = (0,) + k1[1:4]
        for core2, d2, r2, i2, q2, look in right:
            g = gcd(r1, r2)
            r = (r1 // g) * (r2 // g)
            q = q1 * q2 if g == 1 else q1 * q2 * g
            if type(q) is not int:
                rational = True
            i = i1 + i2
            prod = look((core1, core2))
            if prod is None:
                prod = _word_mul_word(core1, core2, ring)
            for (a, b, c, d, _, j), m in prod.items():
                key = (a + a1, b, c, d + d2, r, i + j)
                s = get(key, 0) + q * m
                if s:
                    out[key] = s
                else:
                    del out[key]
    if rational:
        ints(out)
    return out


def grouped(terms):
    """Flat terms as {key[:-2]: RadScalar}, built on each call."""
    out = {}
    for k, q in terms.items():
        out.setdefault(k[:-2], {})[k[-2:]] = q
    return {w: RadScalar(t) for w, t in out.items()}


def _as_letters(word):
    """Accept a generator-name string or a sequence of generator indices."""
    letters = tuple(GEN_INDEX.get(g, g) for g in word) if isinstance(word, str) else tuple(word)
    if any(g not in (V, X, Y, U) for g in letters):
        raise ValueError(f"not a word over the generators: {word!r}")
    return letters


class NCPoly:
    """Noncommutative polynomial in normal form: one flat dict
    {(a, b, c, d, radicand, h_power): q} for q * sqrt(radicand) * h^h_power
    * v^a x^b y^c u^d: the 1-slot flat terms of kernel, so q is an int
    when it is integral and equality is structural.  terms() and the
    lookups build RadScalar coefficients when called.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self._terms = terms

    # -- constructors --

    @staticmethod
    def zero(ring):
        return NCPoly(check_ring(ring), {})

    @staticmethod
    def one(ring):
        return NCPoly(check_ring(ring), {(0, 0, 0, 0, 1, 0): 1})

    @staticmethod
    def from_terms(ring, terms):
        """The polynomial with the given {normal word: RadScalar} terms."""
        out = {}
        for w, c in terms.items():
            scale_into(out, {w + (1, 0): 1}, c.raw())
        return NCPoly(check_ring(ring), out)

    @staticmethod
    def scalar(coef, ring):
        return NCPoly.from_terms(ring, {(0, 0, 0, 0): RadScalar.coerce(coef)})

    @staticmethod
    def generator(name, ring):
        letters = _as_letters(name if isinstance(name, str) else (name,))
        if len(letters) != 1:
            raise ValueError(f"not a generator: {name!r}")
        return NCPoly(check_ring(ring), {LETTER_WORDS[letters[0]] + (1, 0): 1})

    # -- views --

    def terms(self):
        """The terms as {normal word: RadScalar}, built on each call."""
        return grouped(self._terms)

    def sorted_terms(self):
        return sorted(self.terms().items(), key=lambda t: word_sort_key(t[0]))

    def coefficient(self, word):
        word = _as_letters(word)
        exps = (word.count(V), word.count(X), word.count(Y), word.count(U))
        if word != word_letters(exps) or (self.ring == SL and exps[X] and exps[Y]):
            raise ValueError(f"coefficient lookup needs a normal word of the {self.ring} ring")
        return self.terms().get(exps, ZERO)

    def constant(self):
        return self.coefficient(())

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._terms.items()))))

    # -- arithmetic --

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(other, self.ring)
        self._check(other)
        return NCPoly(self.ring, rad_add(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.ring, rad_neg(self._terms))

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            other = NCPoly.scalar(other, self.ring)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.scaled(other)
        self._check(other)
        return NCPoly(self.ring, _mul(self._terms, other._terms, self.ring))

    def __rmul__(self, other):
        # scalars commute with everything, so this is only for non-NCPoly
        return self.scaled(other)

    def scaled(self, coef):
        return NCPoly(self.ring, scale_into({}, self._terms, RadScalar.coerce(coef).raw()))

    def __pow__(self, n):
        if n < 0 or n != int(n):
            raise ValueError("NCPoly powers must be non-negative integers")
        if not n:
            return NCPoly.one(self.ring)
        out = self
        for _ in range(int(n) - 1):
            out = out * self
        return out

    # -- substitution and ring moves --

    def specialize(self, h_value):
        return NCPoly.from_terms(
            self.ring, {w: c.specialize(h_value) for w, c in self.terms().items()}
        )

    def with_ring(self, ring):
        """Re-normalize into the given ring.

        GL -> SL is the quotient map imposing D = 1.  SL -> GL merely
        re-tags the chosen normal form (a section of the quotient, not a
        ring homomorphism).
        """
        return NCPoly.one(ring) * NCPoly(ring, self._terms)

    # -- encodings --

    def to_json(self):
        """Written from the flat terms grouped by word once: the words in
        word_sort_key order, each group by radicand and h power (unique
        per word, so q is never compared); each coefficient as
        RadScalar.to_json writes it."""
        groups = {}
        for k, q in self._terms.items():
            groups.setdefault(k[:4], []).append((k[4], k[5], q))
        return {
            "ring": self.ring,
            "terms": [
                {"word": word_str(w), "coef": terms_json(sorted(groups[w]))}
                for w in sorted(groups, key=word_sort_key)
            ],
        }

    @staticmethod
    def from_json(obj):
        ring = check_ring(obj["ring"])
        pairs = [
            (t["word"], RadScalar.from_json(t["coef"])) for t in obj["terms"]
        ]
        return normal_form(pairs, ring)

    def __repr__(self):
        from .exprio import render_text

        return render_text(self)


def normal_form(pairs, ring) -> NCPoly:
    """Normal form of a sum of (word, coefficient) pairs.

    Words may be generator-name strings like "xv" or sequences of
    generator indices.
    """
    check_ring(ring)
    out = {}
    for word, coef in pairs:
        terms = _times_letters({(0, 0, 0, 0, 1, 0): 1}, _as_letters(word), ring)
        scale_into(out, terms, RadScalar.coerce(coef).raw())
    return NCPoly(ring, out)


def lincomb(pairs, ring) -> NCPoly:
    """The sum of coef * p over (coef, p) pairs, accumulated in one dict
    over ints.

    den is the lcm of the denominators of the coefficient terms seen so
    far.  Each coefficient enters kernel.scale_into as the ints den * q,
    and the rare step that grows den rescales the sum once, so with
    integral coefficients (den == 1) nothing is rescaled.  The output is
    divided by den once at the end, by kernel.rad_div.  Pairs with
    a zero coefficient are skipped before p is read; a caller that must
    not even build such a p filters them out before p is made.
    """
    out = {}
    den = 1
    for coef, p in pairs:
        raw = RadScalar.coerce(coef).raw()
        if not raw:
            continue
        if p.ring != ring:
            raise ValueError(f"ring mismatch: {p.ring} vs {ring}")
        coefs = {}
        for k, q in raw.items():
            n, d = q.as_integer_ratio()
            if den % d:
                grow = d // gcd(den, d)
                den *= grow
                for acc in (out, coefs):
                    for key in acc:
                        acc[key] *= grow
            coefs[k] = n * (den // d)
        scale_into(out, p._terms, coefs)
    if den != 1:
        out = rad_div(out, den)
    return NCPoly(check_ring(ring), out)


def gen(name, ring) -> NCPoly:
    return NCPoly.generator(name, ring)


def quantum_determinant(ring) -> NCPoly:
    """Normal form of the quantum determinant xy - uv - h xv."""
    return normal_form([("xy", ONE), ("uv", -ONE), ("xv", _MINUS_H)], ring)


def count_normal_words(degree: int, ring=GL) -> int:
    """Number of normal words of the given total length, by enumeration."""
    check_ring(ring)
    n = 0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                d = degree - a - b - c
                if ring == SL and b and c:
                    continue
                n += 1
    return n
