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
"""

from .scalar import ONE, ZERO, H, RadScalar

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


def word_str(exps):
    return "".join(GEN_NAMES[g] for g in word_letters(exps))


def word_sort_key(exps):
    return (word_weight(exps), word_letters(exps))


# ---------------------------------------------------------------------
# The rewrite engine.  _word_mul_gen(w, g) is the normal form of the
# normal word w times a single generator g; everything else folds over
# it.  Results are memoized per ring and must never be mutated.
# ---------------------------------------------------------------------

_MEMO = {GL: {}, SL: {}}


def _acc(dst, src, coef):
    """dst += coef * src for term dicts; coef is a RadScalar."""
    if coef is ONE:
        for w, cf in src.items():
            s = dst.get(w)
            s = cf if s is None else s + cf
            if s.is_zero():
                if w in dst:
                    del dst[w]
            else:
                dst[w] = s
    else:
        for w, cf in src.items():
            s = dst.get(w)
            p = coef * cf
            s = p if s is None else s + p
            if s.is_zero():
                if w in dst:
                    del dst[w]
            else:
                dst[w] = s


def _mul_gen(terms, g, ring):
    out = {}
    for w, cf in terms.items():
        _acc(out, _word_mul_gen(w, g, ring), cf)
    return out


def _word_mul_gen(w, g, ring):
    memo = _MEMO[ring]
    key = (w, g)
    hit = memo.get(key)
    if hit is not None:
        return hit
    last = max((i for i in range(4) if w[i]), default=None)
    rule = RULES[ring].get((last, g))
    if rule is None:
        # w g is already normal
        res = {w[:g] + (w[g] + 1,) + w[g + 1 :]: ONE}
    else:
        # w = base last; fold each replacement word of (last, g) onto base
        base = w[:last] + (w[last] - 1,) + w[last + 1 :]
        res = {}
        for word, coef in rule:
            terms = {base: ONE}
            for letter in word:
                terms = _mul_gen(terms, letter, ring)
            _acc(res, terms, coef)
    memo[key] = res
    return res


_WW_MEMO = {GL: {}, SL: {}}


def _word_mul_word(w1, w2, ring):
    memo = _WW_MEMO[ring]
    key = (w1, w2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    terms = {w1: ONE}
    for g in word_letters(w2):
        terms = _mul_gen(terms, g, ring)
    memo[key] = terms
    return terms


def _nf_letters(letters, ring):
    terms = {(0, 0, 0, 0): ONE}
    for g in letters:
        terms = _mul_gen(terms, g, ring)
    return terms


def _as_letters(word):
    """Accept a generator-name string or a sequence of generator indices."""
    if isinstance(word, str):
        return tuple(GEN_INDEX[ch] for ch in word)
    word = tuple(word)
    if any(g not in (V, X, Y, U) for g in word):
        raise ValueError(f"not a word over the generators: {word!r}")
    return word


class NCPoly:
    """Noncommutative polynomial in normal form over RadScalar coefficients."""

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
        return NCPoly(check_ring(ring), {(0, 0, 0, 0): ONE})

    @staticmethod
    def scalar(coef, ring):
        coef = RadScalar.coerce(coef)
        if coef.is_zero():
            return NCPoly.zero(ring)
        return NCPoly(check_ring(ring), {(0, 0, 0, 0): coef})

    @staticmethod
    def generator(name, ring):
        g = GEN_INDEX[name] if isinstance(name, str) else name
        exps = tuple(1 if i == g else 0 for i in range(4))
        return NCPoly(check_ring(ring), {exps: ONE})

    # -- views --

    def terms(self):
        return self._terms

    def sorted_terms(self):
        for w in sorted(self._terms, key=word_sort_key):
            yield w, self._terms[w]

    def coefficient(self, word):
        word = _as_letters(word)
        exps = (word.count(V), word.count(X), word.count(Y), word.count(U))
        if word != word_letters(exps):
            raise ValueError("coefficient lookup needs a normal word")
        return self._terms.get(exps, ZERO)

    def constant(self):
        return self._terms.get((0, 0, 0, 0), ZERO)

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
        out = dict(self._terms)
        _acc(out, other._terms, ONE)
        return NCPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.ring, {w: -c for w, c in self._terms.items()})

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
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _acc(out, _word_mul_word(w1, w2, self.ring), c1 * c2)
        return NCPoly(self.ring, out)

    def __rmul__(self, other):
        # scalars commute with everything, so this is only for non-NCPoly
        return self.scaled(other)

    def scaled(self, coef):
        coef = RadScalar.coerce(coef)
        if coef.is_zero():
            return NCPoly.zero(self.ring)
        return NCPoly(self.ring, {w: coef * c for w, c in self._terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = NCPoly.one(self.ring)
        for _ in range(int(n)):
            out = out * self
        return out

    # -- substitution and ring moves --

    def specialize(self, h_value):
        out = {}
        for w, c in self._terms.items():
            c = c.specialize(h_value)
            if not c.is_zero():
                out[w] = c
        return NCPoly(self.ring, out)

    def with_ring(self, ring):
        """Re-normalize into the given ring.

        GL -> SL is the quotient map imposing D = 1.  SL -> GL merely
        re-tags the chosen normal form (a section of the quotient, not a
        ring homomorphism).
        """
        check_ring(ring)
        if ring == self.ring:
            return self
        out = {}
        for w, c in self._terms.items():
            _acc(out, _word_mul_word((0, 0, 0, 0), w, ring), c)
        return NCPoly(ring, out)

    # -- encodings --

    def to_json(self):
        return {
            "ring": self.ring,
            "terms": [
                {"word": word_str(w), "coef": c.to_json()} for w, c in self.sorted_terms()
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
        coef = RadScalar.coerce(coef)
        if coef.is_zero():
            continue
        _acc(out, _nf_letters(_as_letters(word), ring), coef)
    return NCPoly(ring, out)


def lincomb(pairs, ring) -> NCPoly:
    """The sum of coef * p over (coef, p) pairs, accumulated in one dict.

    Pairs with a zero coefficient are skipped; a caller that must not
    even build such a p filters them out before p is made.
    """
    out = {}
    for coef, p in pairs:
        coef = RadScalar.coerce(coef)
        if coef.is_zero():
            continue
        if p.ring != ring:
            raise ValueError(f"ring mismatch: {p.ring} vs {ring}")
        _acc(out, p._terms, coef)
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
