"""Exact scalars: rationals extended by sqrt(n) and the parameter h.

A RadScalar is a finite sum

    sum  q * sqrt(r) * h^i

with r squarefree positive and q a nonzero rational, stored as the flat
kernel dict {key(r, i): q}: the 0-slot flat terms, whose int key holds
r and i in its radicand and h-power fields (kernel.scalar_key), an
integral q as an int.
Distinct square roots are linearly independent over Q(h), so equality is
structural equality of the reduced form and no approximation ever
happens.

This class is the coefficient field-like ring of the whole package: it
carries every CGC normalization, every sqrt((j+m)!...) factor and every
power of h appearing in the algebra relations.
"""

from . import kernel as K
from .kernel import H_SHIFT, RAD_MASK, RAD_SHIFT
from ._rat import Q, num, qparse, qstr


class RadScalar:
    """Immutable exact scalar; hashable; supports + - * and integer powers."""

    __slots__ = ("_t", "_hash")

    def __init__(self, terms):
        # terms: {kernel.scalar_key(squarefree_radicand, hpow): nonzero
        # rational}, already reduced; use the constructors below rather
        # than raw dicts.
        self._t = terms
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(q) -> "RadScalar":
        q = num(q)
        if not q:
            return ZERO
        if q == 1:
            return ONE
        return RadScalar({K.RAD_ONE: q})

    @staticmethod
    def coerce(x) -> "RadScalar":
        if isinstance(x, RadScalar):
            return x
        return RadScalar.from_rational(x)

    # -- predicates and views ----------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_rational(self) -> bool:
        """True when the value is a plain rational number."""
        return not self._t or (len(self._t) == 1 and K.RAD_ONE in self._t)

    def rational_value(self):
        """The value as a rational; raises if radicals or h survive."""
        if not self._t:
            return 0
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return self._t[K.RAD_ONE]

    def terms(self):
        """The (radicand, hpow, coefficient) triples in canonical order."""
        return sorted([(k >> RAD_SHIFT & RAD_MASK, k >> H_SHIFT, q) for k, q in self._t.items()])

    def raw(self):
        return self._t

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not RadScalar:
            other = RadScalar.coerce(other)
        return RadScalar(K.rad_add(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RadScalar:
            other = RadScalar.coerce(other)
        return RadScalar(K.rad_sub(self._t, other._t))

    def __rsub__(self, other):
        return RadScalar.coerce(other) - self

    def __neg__(self):
        return RadScalar(K.rad_neg(self._t))

    def __mul__(self, other):
        if type(other) is not RadScalar:
            other = RadScalar.coerce(other)
        return RadScalar(K.rad_mul(self._t, other._t))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0 or n != int(n):
            raise ValueError("RadScalar powers must be non-negative integers")
        n = int(n)
        if not n:
            return ONE
        # square up to the lowest set bit, then square only while bits remain
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    def scaled(self, q) -> "RadScalar":
        return RadScalar(K.rad_scale(self._t, num(q)))

    def __eq__(self, other):
        if isinstance(other, RadScalar):
            return self._t == other._t
        if isinstance(other, (int,)) or type(other).__name__ in ("Fraction", "mpq"):
            return self._t == RadScalar.coerce(other)._t
        return NotImplemented

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        if self._hash is None:
            if self.is_rational():
                self._hash = hash(self.rational_value())
            else:
                self._hash = hash(tuple(sorted(self._t.items())))
        return self._hash

    def __bool__(self):
        return bool(self._t)

    # -- substitution -------------------------------------------------

    def specialize(self, h_value) -> "RadScalar":
        """Substitute a numeric rational for h.

        Radicands are untouched (the roots are numeric already).
        """
        return RadScalar(K.specialized(self._t, num(h_value)))

    # -- encodings ----------------------------------------------------

    def to_json(self):
        return terms_json(self.terms())

    @staticmethod
    def from_json(obj) -> "RadScalar":
        out = ZERO
        for term in obj["terms"]:
            rad = sqrt_nat(K.check_radicand(term["rad"]))
            for mono in term["poly"]:
                if mono["g"]:
                    raise ValueError(f"a scalar has no power of g, found g^{mono['g']}")
                piece = RadScalar.from_rational(qparse(mono["q"])) * H ** mono["h"]
                out = out + piece * rad
        return out

    def __repr__(self):
        from .exprio import scalar_text

        return scalar_text(self)


def terms_json(terms):
    """The JSON of a scalar from its (radicand, h_power, q) terms, sorted:
    one pass, a new radicand opening the next group."""
    out = []
    last = None
    for r, i, q in terms:
        if r != last:
            last = r
            poly = []
            out.append({"rad": r, "poly": poly})
        poly.append({"h": i, "g": 0, "q": qstr(q)})
    return {"terms": out}


def sqrt_nat(n: int) -> RadScalar:
    """Exact square root of a natural number, square part extracted."""
    s, r = K.sqrt_split(n)
    if r == 1:
        return RadScalar.from_rational(s)
    return RadScalar({K.scalar_key(r, 0): s})


ZERO = RadScalar({})
ONE = RadScalar({K.RAD_ONE: 1})
H = RadScalar({K.RAD_ONE + K.H_ONE: 1})


def rational(p, q=1) -> RadScalar:
    return RadScalar.from_rational(Q(p, q))

