"""The algebras GL_h(2) and SL_h(2) as confluent rewrite systems.

Generators are ordered v < x < y < u with weights 1, 2, 2, 3.  A word is
normal when its letters are non-decreasing, i.e. of shape v^a x^b y^c u^d;
the exponent tuple (a, b, c, d) names it, and the word fields of a kernel
flat key hold it.  The six defining commutation relations become rewrite
rules on descending adjacent pairs:

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
of Bergman's diamond lemma).  Every product of words goes through _mul:
NCPoly products, normal_form, the prefix forms of
pbwcheck.confluence_check and the slots of the hopfcheck tensors.  On
a memo miss _mul calls _word_mul_word on two cores: by one letter that
applies a rule (memo _MEMO), by a longer word it folds over the letters
(memo _WW_MEMO).  Every rule coefficient is +-1 times a power of h, so
a memo entry has radicand 1 and int values.

The memos are keyed on word cores.  No rule has v as its left letter and
none has u as its right letter, so v^a W and W u^d are normal whenever W
is, and a rewrite of w1 w2 = v^a (w1' w2') u^d happens inside the core
product w1' w2', where w1' is w1 with its v-power zeroed and w2' is w2
with its u-power zeroed.  A core is a bit mask of a flat key's word
fields, and the memo key is the two cores in one int.  _mul looks up
NF(w1' w2') and adds one shift per term pair to each output key: a to
the v field and d to the u field (with a + d to the degree), the pair's
h powers and its radicand; words that differ only in those powers share
one entry.  A core w1' times the word 1, the core of a power of u, is
stored as {w1': 1} like any other entry.

The flat-term format and its gcd and int rules belong to kernel; scaled
sums, lincomb and normal_form go through kernel.scale_into.  _mul, the
product of two flat term dicts, is one loop over term pairs: each pair's
scalar product times each term of the memoised word product, summed
straight into the output dict with no call per output term.  It checks
the degree field once per input term (each output word is at most as
long as its two factors together, since no rule lengthens a word) and
the radicand once per term pair.  It passes its output through
kernel.ints once when an input value was not an int, so the all-int
path pays one type check per input term.

NCPoly.swap_xy is the x <-> y automorphism sigma on SL terms: a
relabeling of each key's x and y fields, which dfun uses to build half
of each SL D-matrix and hopfcheck half of the SL products its suites
read.

lift_to_gl(p, n) is the GL element of degree n over an SL polynomial p:
each term c_w w of p times the power of the quantum determinant delta
that brings it to degree n.  Every GL rule keeps word length and delta
is central, so the lift is homogeneous and maps back to p under
GL -> SL (delta -> 1), which is injective on each degree; dfun lifts
its SL entries with it and gives the proof.

word_groups is the one print order of 1-slot terms: the terms per word,
the words by word_sort_key and each word's terms by radicand, then h
power.  NCPoly.to_json, the text and LaTeX printers of exprio, terms()
and coefficient() all read it; only hopfcheck.tensor_text orders its
2-slot terms itself.

lincomb, the sum of scaled polynomials that the constructions and the
suites use, accumulates over ints: its coefficients are multiplied by
the lcm den of their denominators, and the output is divided by den
once at the end.  Scaling by a nonzero constant is injective, so a sum
cancels exactly when it did over the rationals.
"""

from functools import lru_cache
from math import gcd

from . import kernel as K
from .kernel import DEG_FIELD, DEG_ONE, DEG_SHIFT, EXP_LIMIT, EXP_MASK, H_SHIFT, RAD_LIMIT, RAD_MASK
from .kernel import RAD_ONE, RAD_SHIFT, WORD_BITS, WORD_MASK, add_into, check_degree, check_radicand
from .kernel import ints, rad_add, rad_div, rad_neg, scale_into
from ._rat import num
from .scalar import ONE, ZERO, H, RadScalar, terms_json

V, X, Y, U = 0, 1, 2, 3
GEN_NAMES = "vxyu"
GEN_INDEX = {"v": V, "x": X, "y": Y, "u": U}
WEIGHTS = (1, 2, 2, 3)

GL = "gl"
SL = "sl"
RINGS = (GL, SL)

_MINUS_H = -H
_MINUS_H2 = -(H * H)

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


@lru_cache(maxsize=None)
def _word_order(w):
    """word_sort_key of the word fields w of a 1-slot key, with the
    exponent tuple appended (it never decides the order)."""
    exps = K.word(w)
    return word_sort_key(exps) + (exps,)


def word_groups(terms):
    """The 1-slot flat terms per word in print order: [(exps, [(radicand,
    h_power, q), ...]), ...], the words by word_sort_key and each group
    by radicand, then h power (the pair is unique per word, so q is never
    compared).  JSON, text, LaTeX and the RadScalar views all read it."""
    groups = {}
    for k, q in terms.items():
        w = k & WORD_MASK
        item = (k >> RAD_SHIFT & RAD_MASK, k >> H_SHIFT, q)
        group = groups.get(w)
        if group is None:
            groups[w] = [item]
        else:
            group.append(item)
    out = []
    for w in sorted(groups, key=_word_order):
        group = groups[w]
        if len(group) > 1:
            group.sort()
        out.append((_word_order(w)[-1], group))
    return out


# ---------------------------------------------------------------------
# The rewrite engine, on flat term dicts (see NCPoly).  Memo entries are
# shared per ring and must never be mutated.
# ---------------------------------------------------------------------

# the one-letter words v, x, y, u as exponent tuples and as flat keys,
# by generator index
LETTER_WORDS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
LETTER_KEYS = tuple(K.pack((w,)) for w in LETTER_WORDS)

# the cores of a left and of a right word: the slot-0 word fields
# without the v field and without the u field
_CORE_LEFT = WORD_MASK & ~K.V_FIELDS
_CORE_RIGHT = WORD_MASK & ~K.U_FIELDS
_ONE_LETTER = frozenset(k & WORD_MASK for k in LETTER_KEYS)
# what a pair's shift keeps of a left key (the v field, radicand and h
# power) and of a right key (the u field, radicand and h power)
_KEEP_LEFT = ~(_CORE_LEFT | DEG_FIELD)
_KEEP_RIGHT = ~(_CORE_RIGHT | DEG_FIELD)
_U_SHIFT = 3 * K.EXP_BITS

_MEMO = {GL: {}, SL: {}}
_WW_MEMO = {GL: {}, SL: {}}


def _memo(core2, ring):
    """The memo of products by core2: _MEMO for one letter, else _WW_MEMO."""
    return (_MEMO if core2 in _ONE_LETTER else _WW_MEMO)[ring]


def _word_mul_word(core1, core2, ring):
    """The miss path of _mul: the normal form of the core core1 times the
    core core2, as flat terms, stored in the memo _mul has already read."""
    w1 = K.word(core1)
    key1 = core1 + (sum(w1) << DEG_SHIFT) + RAD_ONE
    if not core2:
        # w1 1 is w1; a left word 1 takes the paths below, since
        # with_ring passes right words that the ring rewrites
        res = {key1: 1}
    elif core2 not in _ONE_LETTER:
        res = _times_letters({key1: 1}, word_letters(K.word(core2)), ring)
    else:
        g = K.word(core2).index(1)
        last = max((i for i in range(4) if w1[i]), default=None)
        rule = RULES[ring].get((last, g))
        if rule is None:
            # w1 g is already normal
            res = {key1 + K.LETTER_STEPS[g]: 1}
        else:
            # w1 = base last; fold each replacement word of (last, g) onto base
            base = key1 - K.LETTER_STEPS[last]
            res = {}
            for word, coef in rule:
                scale_into(res, _times_letters({base: 1}, word, ring), coef.raw())
    _memo(core2, ring)[core2 << WORD_BITS | core1] = res
    return res


def _times_letters(terms, letters, ring):
    """terms times each letter in turn, as flat terms."""
    for g in letters:
        terms = _mul(terms, {LETTER_KEYS[g]: 1}, ring)
    return terms


def _mul(t1, t2, ring):
    """The product of two flat term dicts: one loop over term pairs, each
    word product looked up on the cores (see the module docstring) and
    made by _word_mul_word on a miss, its keys moved by one shift."""
    out = {}
    get = out.get
    rational = False
    right = []
    top = 0
    for k2, q2 in t2.items():
        core2 = k2 & _CORE_RIGHT
        # the u power with its degree, the h power and the radicand; the
        # memo entry's radicand 1 and the left radicand r1 make r1 + r2 - 1
        shift2 = (k2 & _KEEP_RIGHT) + (k2 >> _U_SHIFT & EXP_MASK) * DEG_ONE - 2 * RAD_ONE
        look = _memo(core2, ring).get
        right.append((core2, core2 << WORD_BITS, shift2, k2 >> RAD_SHIFT & RAD_MASK, q2, look))
        deg = k2 & DEG_FIELD
        if deg > top:
            top = deg
        if type(q2) is not int:
            rational = True
    limit = (EXP_LIMIT << DEG_SHIFT) - top
    for k1, q1 in t1.items():
        if k1 & DEG_FIELD >= limit:
            check_degree(((k1 & DEG_FIELD) + top) >> DEG_SHIFT)
        if type(q1) is not int:
            rational = True
        core1 = k1 & _CORE_LEFT
        # the v power with its degree, the h power and the radicand
        shift1 = (k1 & _KEEP_LEFT) + (k1 & EXP_MASK) * DEG_ONE
        r1 = k1 >> RAD_SHIFT & RAD_MASK
        for core2, memo_key, shift2, r2, q2, look in right:
            if r1 == 1:
                shift = shift1 + shift2
                q = q1 * q2
            else:
                g = gcd(r1, r2)
                r = (r1 // g) * (r2 // g)
                if r >= RAD_LIMIT:
                    check_radicand(r)
                shift = shift1 + shift2 + ((r - r1 - r2 + 1) << RAD_SHIFT)
                q = q1 * q2 if g == 1 else q1 * q2 * g
            prod = look(memo_key | core1)
            if prod is None:
                prod = _word_mul_word(core1, core2, ring)
            for pk, m in prod.items():
                key = pk + shift
                s = get(key, 0) + q * m
                if s:
                    out[key] = s
                else:
                    del out[key]
    if rational:
        ints(out)
    return out


def _as_letters(word):
    """Accept a generator-name string or a sequence of generator indices."""
    letters = tuple(GEN_INDEX.get(g, g) for g in word) if isinstance(word, str) else tuple(word)
    if any(g not in (V, X, Y, U) for g in letters):
        raise ValueError(f"not a word over the generators: {word!r}")
    return letters


class NCPoly:
    """Noncommutative polynomial in normal form: one flat dict {key: q}
    for q * sqrt(radicand) * h^h_power * v^a x^b y^c u^d, with a, b, c,
    d, the radicand and the h power in the fields of the int key: the
    1-slot flat terms of kernel, so q is an int when it is integral and
    equality is structural.  terms() and the lookups build RadScalar
    coefficients when called.
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
        return NCPoly(check_ring(ring), {RAD_ONE: 1})

    @staticmethod
    def from_terms(ring, terms):
        """The polynomial with the given {normal word: RadScalar} terms."""
        out = {}
        for w, c in terms.items():
            scale_into(out, {K.pack((w,)): 1}, c.raw())
        return NCPoly(check_ring(ring), out)

    @staticmethod
    def scalar(coef, ring):
        """coef times the word 1: a scalar's keys are the keys of the empty
        word, so the polynomial shares the coefficient's flat dict."""
        return NCPoly(check_ring(ring), RadScalar.coerce(coef).raw())

    @staticmethod
    def generator(name, ring):
        letters = _as_letters(name if isinstance(name, str) else (name,))
        if len(letters) != 1:
            raise ValueError(f"not a generator: {name!r}")
        return NCPoly(check_ring(ring), {LETTER_KEYS[letters[0]]: 1})

    # -- views --

    def terms(self):
        """The terms as {normal word: RadScalar} in print order, built on
        each call."""
        return {
            exps: RadScalar({K.scalar_key(r, i): q for r, i, q in group})
            for exps, group in word_groups(self._terms)
        }

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

    def swap_xy(self):
        """sigma(self), for sigma the algebra automorphism that swaps x and
        y and fixes v, u and h.  An SL-normal word never holds both x and
        y, so its image v^a y^b x^c u^d is the normal word (a, c, b, d):
        sigma swaps the x and y fields of each key and keeps the values,
        with no product.  In GL the image of a word holding both would
        need a rewrite, which this does not make."""
        if self.ring != SL:
            raise ValueError("swap_xy relabels SL terms only; in GL sigma needs a rewrite")
        swap = K.swap_xy
        return NCPoly(SL, {swap(k): q for k, q in self._terms.items()})

    def specialize(self, h_value):
        return NCPoly(self.ring, K.specialized(self._terms, num(h_value)))

    def with_ring(self, ring):
        """Re-normalize into the given ring.

        GL -> SL is the quotient map imposing D = 1.  SL -> GL merely
        re-tags the chosen normal form (a section of the quotient, not a
        ring homomorphism).
        """
        return NCPoly.one(ring) * NCPoly(ring, self._terms)

    # -- encodings --

    def to_json(self):
        """The words in print order (word_groups), each coefficient as
        RadScalar.to_json writes it."""
        return {
            "ring": self.ring,
            "terms": [
                {"word": word_str(exps), "coef": terms_json(group)}
                for exps, group in word_groups(self._terms)
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
        terms = _times_letters({RAD_ONE: 1}, _as_letters(word), ring)
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


@lru_cache(maxsize=None)
def quantum_determinant(ring) -> NCPoly:
    """Normal form of the quantum determinant xy - uv - h xv, built once
    per ring (lift_to_gl reads it for every lift)."""
    return normal_form([("xy", ONE), ("uv", -ONE), ("xv", _MINUS_H)], ring)


def lift_to_gl(p, degree) -> NCPoly:
    """The GL element of the given degree that the quotient GL -> SL
    (delta -> 1, for delta the quantum determinant) maps to the SL
    polynomial p: the sum over the terms c_w w of p of c_w delta^e w with
    e = (degree - |w|)/2, normal-ordered in GL.  An SL-normal word is
    GL-normal and delta is central, so with p_e the terms of p that take
    delta^e, the lift is p_0 + delta (p_1 + delta (p_2 + ...)), one
    product by delta on the left per power.  Raises ValueError for a term
    longer than degree or of the other parity, which would not lift."""
    if p.ring != SL:
        raise ValueError(f"lift_to_gl lifts SL polynomials, not {p.ring}")
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"the degree of a lift must be a non-negative integer, not {degree!r}")
    parts = {}
    for k, q in p._terms.items():
        gap = degree - K.degree(k)
        if gap < 0 or gap % 2:
            raise ValueError(f"the word {word_str(K.word(k)) or '1'} cannot lift to degree {degree}")
        parts.setdefault(gap // 2, {})[k] = q
    delta = quantum_determinant(GL)._terms
    out = {}
    for e in range(max(parts, default=0), -1, -1):
        if out:
            out = _mul(delta, out, GL)
        for k, q in parts.get(e, {}).items():
            add_into(out, k, q)
    return NCPoly(GL, out)

