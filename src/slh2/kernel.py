"""Scalar kernel: the flat dict arithmetic everything sits on.

One raw representation, chosen for speed rather than beauty: a dict

    (radicand, h_power) -> nonzero rational

with a squarefree positive radicand r.  It encodes the sum of
q * sqrt(r) * h^h_power over its items; radicand 1 carries the
rational-polynomial part.  Functions never mutate their arguments
and never store zero entries, so values can be shared freely.  rad_add
stores an integral sum of rationals as an int.
"""

from math import gcd


def rad_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if not s:
                del out[k]
            elif type(s) is int or s.denominator != 1:
                out[k] = s
            else:
                out[k] = int(s)
    return out


def rad_neg(a):
    return {k: -v for k, v in a.items()}


def rad_sub(a, b):
    return rad_add(a, rad_neg(b)) if b else a


def rad_scale(a, q):
    if not q:
        return {}
    return {k: v * q for k, v in a.items()}


def rad_mul(a, b):
    # sqrt(r)*sqrt(s) = g*sqrt((r//g)*(s//g)) with g = gcd(r, s); the
    # product of two coprime squarefree numbers is squarefree, so no
    # further reduction is needed.
    if not a or not b:
        return {}
    out = {}
    for (ra, ha), va in a.items():
        for (rb, hb), vb in b.items():
            g = gcd(ra, rb)
            v = va * vb
            if g != 1:
                v = v * g
            k = ((ra // g) * (rb // g), ha + hb)
            s = out.get(k)
            if s is None:
                out[k] = v
            else:
                s = s + v
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


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
