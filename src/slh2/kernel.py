"""Scalar kernel: the flat dict arithmetic everything sits on.

Two raw representations, chosen for speed rather than beauty:

  poly: dict mapping (h_power, g_power) -> nonzero rational
  rad:  dict mapping squarefree radicand -> nonzero poly

A rad dict encodes  sum_r  p_r(h, g) * sqrt(r).  Radicand 1 carries the
rational-polynomial part.  Functions never mutate their arguments and
never store zero entries, so values can be shared freely.
"""

from math import gcd

from ._rat import Q


def poly_add(a, b):
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
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def poly_neg(a):
    return {k: -v for k, v in a.items()}


def poly_sub(a, b):
    return poly_add(a, poly_neg(b)) if b else a


def poly_scale(a, q):
    if not q:
        return {}
    return {k: v * q for k, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for (ha, ga), va in a.items():
        for (hb, gb), vb in b.items():
            k = (ha + hb, ga + gb)
            s = out.get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def rad_add(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for r, p in b.items():
        q = out.get(r)
        if q is None:
            out[r] = p
        else:
            q = poly_add(q, p)
            if q:
                out[r] = q
            else:
                del out[r]
    return out


def rad_neg(a):
    return {r: poly_neg(p) for r, p in a.items()}


def rad_sub(a, b):
    return rad_add(a, rad_neg(b)) if b else a


def rad_scale(a, q):
    if not q:
        return {}
    return {r: poly_scale(p, q) for r, p in a.items()}


def rad_mul(a, b):
    # sqrt(r)*sqrt(s) = g*sqrt((r//g)*(s//g)) with g = gcd(r, s); the
    # product of two coprime squarefree numbers is squarefree, so no
    # further reduction is needed.
    if not a or not b:
        return {}
    out = {}
    for ra, pa in a.items():
        for rb, pb in b.items():
            g = gcd(ra, rb)
            r = (ra // g) * (rb // g)
            p = poly_mul(pa, pb)
            if g != 1:
                p = poly_scale(p, Q(g))
            q = out.get(r)
            if q is None:
                out[r] = p
            else:
                q = poly_add(q, p)
                if q:
                    out[r] = q
                else:
                    del out[r]
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


def issquarefree(n):
    if n <= 0:
        return False
    return sqrt_split(n)[0] == 1
