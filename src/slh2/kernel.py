"""Scalar kernel: the flat-term format and its two rules.

Scalars, polynomials and tensors are flat term dicts

    (w_1, ..., w_n, radicand, h_power) -> nonzero rational

for the sum of q * sqrt(radicand) * h^h_power * (w_1 (x) ... (x) w_n)
over its items, with a squarefree positive radicand.  A RadScalar is the
0-slot case {(radicand, h_power): q}, an NCPoly the 1-slot case with a
normal word (a, b, c, d), a hopfcheck tensor (such as a coproduct) the
n-slot case, and a free-algebra vector of hopfcheck.rtt_frt_check the
2-slot case with a generator index in each slot.
Functions never store zero entries and never mutate their arguments,
except the dst of an *_into and the terms given to ints, so values can
be shared freely.

Two rules keep the format canonical:

- the gcd rule for radicands: sqrt(r)*sqrt(s) = g*sqrt((r//g)*(s//g))
  with g = gcd(r, s); the product of two coprime squarefree numbers is
  squarefree, so no further reduction is needed;
- the int rule: an integral value is stored as an int, never as Q(n, 1),
  so a Fraction does not make every later product rational.  _rat.num
  is the same rule for a single value.

scale_into, the product of flat terms by a scalar, is the one product
loop: rad_mul is its 0-slot case, and the ncalg engine and the row
steps of rtt_frt_check sum through it.
"""

from math import gcd

from ._rat import Q


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
    """dst += coef * terms for flat terms and a scalar coef {(radicand,
    h_power): q}, under both rules; returns dst.  The first product of a
    key is stored as it is (0 + p would build a new Fraction), and the
    int rule is applied to the stored value, sum or product."""
    get = dst.get
    for (rc, ic), qc in coef.items():
        for k, q in terms.items():
            r = k[-2]
            g = gcd(r, rc)
            p = q * qc if g == 1 else q * qc * g
            key = k[:-2] + ((r // g) * (rc // g), k[-1] + ic)
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
    """n = s*s*r with r squarefree; returns (s, r).  Trial division."""
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n == 0:
        return 0, 1
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * n
