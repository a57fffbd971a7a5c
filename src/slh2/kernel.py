"""Scalar kernel: the flat-term format and its two rules.

Scalars, polynomials and tensors are flat term dicts {key: q}, a nonzero
rational q per int key, for the sum of

    q * sqrt(radicand) * h^h_power * (w_1 (x) ... (x) w_n)

over its items, with a squarefree positive radicand and each w_s a
normal word v^a x^b y^c u^d.  The key packs its fields into one int,
from the low bits up:

    slot 0 word   a, b, c, d         EXP_BITS each
    slot 1 word   a, b, c, d         EXP_BITS each
    degree        total word length  EXP_BITS
    radicand                         RAD_BITS
    h_power       the top field, unbounded

A RadScalar is the 0-slot case (the word and degree fields are 0), an
NCPoly the 1-slot case, and a hopfcheck tensor (such as a coproduct) or
a free-algebra vector of hopfcheck.rtt_frt_check the 2-slot case, the
latter with one generator letter in each slot.  pack and unpack convert
from and to the tuple (w_1, ..., w_n, radicand, h_power); the views and
printers unpack at the edge, so no output depends on the packing.
Functions never store zero entries and never mutate their arguments,
except the dst of an *_into and the terms given to ints, so values can
be shared freely.

A sum of keys is the key of the sums of their fields as long as no
field leaves its range, so a product adds one precomputed delta to a
key instead of rebuilding it.  No field may wrap: a radicand is checked
where a new one is made (check_radicand), and the exponents through the
degree field, which bounds each of them, once per input term of a
product (check_degree).  The h power needs no check.

Two rules keep the format canonical:

- the gcd rule for radicands: sqrt(r)*sqrt(s) = g*sqrt((r//g)*(s//g))
  with g = gcd(r, s); the product of two coprime squarefree numbers is
  squarefree, so no further reduction is needed;
- the int rule: an integral value is stored as an int, never as Q(n, 1),
  so a Fraction does not make every later product rational.  _rat.num
  is the same rule for a single value.

scale_into, the product of flat terms by flat terms whose keys it adds
whole, is the one product loop: rad_mul is its 0-slot case; outer_into,
the outer product of two 1-slot term dicts, moves the right words to
slot 1 and sums through it; and hopfcheck.coproduct, ncalg.lincomb and
the row steps of hopfcheck.rtt_frt_check reach it too.  Only the
engine's ncalg._mul, which also reads the memo per term pair, keeps a
pair loop of its own.
"""

from math import gcd, isqrt

from ._rat import Q

EXP_BITS = 8
EXP_LIMIT = 1 << EXP_BITS  # every exponent and the degree stay below this
EXP_MASK = EXP_LIMIT - 1
WORD_BITS = 4 * EXP_BITS
SLOTS = 2
DEG_SHIFT = SLOTS * WORD_BITS
RAD_SHIFT = DEG_SHIFT + EXP_BITS
RAD_BITS = 64
RAD_LIMIT = 1 << RAD_BITS
RAD_MASK = RAD_LIMIT - 1
H_SHIFT = RAD_SHIFT + RAD_BITS

WORD_MASK = (1 << WORD_BITS) - 1  # the slot-0 word
WORDS_MASK = (1 << DEG_SHIFT) - 1  # both slot words
LOW_MASK = (1 << RAD_SHIFT) - 1  # the words and the degree
DEG_ONE = 1 << DEG_SHIFT
DEG_FIELD = EXP_MASK << DEG_SHIFT
RAD_ONE = 1 << RAD_SHIFT  # the key of the scalar 1
RAD_FIELD = RAD_MASK << RAD_SHIFT
H_ONE = 1 << H_SHIFT

# the field of each letter v, x, y, u in each slot, and the masks of
# the letters in both slots
_FIELDS = tuple(
    tuple(EXP_MASK << (s * WORD_BITS + g * EXP_BITS) for g in range(4)) for s in range(SLOTS)
)
V_FIELDS, X_FIELDS, Y_FIELDS, U_FIELDS = (
    sum(fields[g] for fields in _FIELDS) for g in range(4)
)
# the key step of one more letter v, x, y, u in slot 0, degree included
LETTER_STEPS = tuple((1 << (g * EXP_BITS)) + DEG_ONE for g in range(4))
_XY_KEEP = ~(X_FIELDS | Y_FIELDS)
_BELOW_H = H_ONE - 1
_WORDS_KEEP = ~WORDS_MASK


def check_radicand(r):
    """r, or ValueError when it does not fit the radicand field."""
    if r >= RAD_LIMIT:
        raise ValueError(f"radicand {r} does not fit the {RAD_BITS}-bit field of a flat key")
    return r


def check_degree(n):
    """ValueError when a word length n does not fit the degree field."""
    if n >= EXP_LIMIT:
        raise ValueError(f"word length {n} is at or above the limit {EXP_LIMIT} of a flat key")


def scalar_key(radicand, h_power):
    """The key of sqrt(radicand) * h^h_power."""
    return (check_radicand(radicand) << RAD_SHIFT) + (h_power << H_SHIFT)


def pack(words, radicand=1, h_power=0):
    """The key of sqrt(radicand) * h^h_power * (w_1 (x) ... ), for up to
    SLOTS exponent tuples w_s."""
    if len(words) > SLOTS:
        raise ValueError(f"a flat key holds at most {SLOTS} words, not {len(words)}")
    key = degree = 0
    for s, (a, b, c, d) in enumerate(words):
        if a < 0 or b < 0 or c < 0 or d < 0:
            raise ValueError(f"negative exponent in the word {(a, b, c, d)}")
        degree += a + b + c + d
        key |= (a | b << EXP_BITS | c << 2 * EXP_BITS | d << 3 * EXP_BITS) << (s * WORD_BITS)
    check_degree(degree)
    return key + (degree << DEG_SHIFT) + scalar_key(radicand, h_power)


def word(key, slot=0):
    """The exponent tuple (a, b, c, d) of one slot of a key."""
    w, e, m = key >> (slot * WORD_BITS), EXP_BITS, EXP_MASK
    return (w & m, w >> e & m, w >> 2 * e & m, w >> 3 * e & m)


def degree(key):
    return key >> DEG_SHIFT & EXP_MASK


def radicand(key):
    return key >> RAD_SHIFT & RAD_MASK


def h_power(key):
    return key >> H_SHIFT


def scalar_part(key):
    """The key of the scalar factor sqrt(radicand) * h^h_power alone."""
    return key >> RAD_SHIFT << RAD_SHIFT


def unpack(key, slots):
    """The tuple (w_1, ..., w_slots, radicand, h_power) of a key; a 1-slot
    key reads (a, b, c, d, radicand, h_power), its word spread out."""
    scalar = (key >> RAD_SHIFT & RAD_MASK, key >> H_SHIFT)
    if slots == 1:
        return word(key) + scalar
    return tuple(word(key, s) for s in range(slots)) + scalar


def swap_xy(key):
    """The key with the x and y exponents of each slot swapped."""
    return (key & _XY_KEEP) | (key & X_FIELDS) << EXP_BITS | (key & Y_FIELDS) >> EXP_BITS


def swap_slots(key):
    """The 2-slot key with its two words swapped."""
    return (key & _WORDS_KEEP) | (key & WORD_MASK) << WORD_BITS | key >> WORD_BITS & WORD_MASK


def specialized(terms, hq):
    """Flat terms with h set to the rational hq: each h power moves into
    the value, under the int rule."""
    out = {}
    for k, q in terms.items():
        add_into(out, k & _BELOW_H, q * hq ** (k >> H_SHIFT))
    return out


def ints(terms):
    """Store each integral value of terms as an int, in place; returns terms."""
    for k, q in terms.items():
        if type(q) is not int and q.denominator == 1:
            terms[k] = int(q)
    return terms


def add_into(dst, key, q):
    """dst[key] += q under the int rule, dropping a zero sum."""
    s = dst.get(key)
    if s is not None:
        q = s + q
    if not q:
        dst.pop(key, None)
    elif type(q) is int or q.denominator != 1:
        dst[key] = q
    else:
        dst[key] = int(q)


def scale_into(dst, terms, coef):
    """dst += coef * terms for flat terms and flat coef terms, under both
    rules; returns dst.  The whole key of a coef term is added, so coef
    is a scalar or, in outer_into, words in the slot that terms leaves
    empty.  A term of radicand r moves to the key k + delta and its value
    is multiplied by f = qc * g, for g the gcd of r and the radicand of
    the coef term; delta and f are computed again only where the radicand
    changes from one term to the next, so once for terms of one radicand.
    The first product of a key is stored as it is (0 + p would build a
    new Fraction), and the int rule is applied to the stored value, sum
    or product."""
    get = dst.get
    for kc, qc in coef.items():
        rc = kc >> RAD_SHIFT & RAD_MASK
        last = None
        for k, q in terms.items():
            field = k & RAD_FIELD
            if field != last:
                last = field
                r = field >> RAD_SHIFT
                g = gcd(r, rc)
                rn = (r // g) * (rc // g)
                if rn >= RAD_LIMIT:
                    check_radicand(rn)
                delta = kc + ((rn - r - rc) << RAD_SHIFT)
                f = qc if g == 1 else qc * g
            key = k + delta
            p = q * f
            s = get(key)
            if s is not None:
                p = s + p
                if not p:
                    del dst[key]
                    continue
            if type(p) is not int and p.denominator == 1:
                p = int(p)
            dst[key] = p
    return dst


def outer_into(dst, left, right):
    """dst += left (x) right for two 1-slot flat term dicts, as 2-slot
    terms; returns dst.  Each right key moves its word to slot 1 by one
    step, k + w * (2^WORD_BITS - 1) for its word fields w, and the
    longest words of the two sides are checked together, once."""
    if left and right:
        check_degree((max(k & DEG_FIELD for k in left) + max(k & DEG_FIELD for k in right)) >> DEG_SHIFT)
        scale_into(dst, left, {k + (k & WORD_MASK) * WORD_MASK: q for k, q in right.items()})
    return dst


def rad_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for k, v in b.items():
        add_into(out, k, v)
    return out


def rad_neg(a):
    return {k: -v for k, v in a.items()}


def rad_sub(a, b):
    return rad_add(a, rad_neg(b)) if b else a


def rad_scale(a, q):
    if not q:
        return {}
    return ints({k: v * q for k, v in a.items()})


def rad_div(a, den):
    """a / den for int values and a positive int den, under the int rule."""
    out = {}
    for k, v in a.items():
        n, r = divmod(v, den)
        out[k] = Q(v, den) if r else n
    return out


def rad_mul(a, b):
    return scale_into({}, a, b)


def sqrt_split(n):
    """n = s*s*r with r squarefree; returns (s, r).  Trial division by
    each d with d^3 at most the cofactor left: the cofactor then has no
    prime factor below d and is below d^3, so it is 1, p, p^2 or pq, and
    isqrt tells p^2 from the squarefree rest."""
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n == 0:
        return 0, 1
    s, r = 1, 1
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    t = isqrt(n)
    if t * t == n:
        return s * t, r
    return s, r * n
