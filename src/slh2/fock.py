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
"""

import random
from functools import lru_cache

from ._rat import Q
from . import ncalg
from .dfun import ORDERED1, check_indices, dfunc, iter_klmn
from .kernel import rad_add, rad_mul
from .ncalg import GL, NCPoly, normal_form
from .rep import _binom, magnetics
from .report import Report
from .scalar import G, H, ONE, ZERO, RadScalar, sqrt_nat

_TWO_H = H + H

# boson modes in state order
A11, A21, A12, A22 = 0, 1, 2, 3


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


class FockOp:
    """Sparse exact matrix between two grade blocks."""

    __slots__ = ("src", "dst", "data")

    def __init__(self, src, dst, data):
        self.src = src
        self.dst = dst
        self.data = data  # {(row, col): RadScalar}

    @staticmethod
    def zero(src, dst):
        return FockOp(src, dst, {})

    @staticmethod
    def identity(n):
        return FockOp(n, n, {(i, i): ONE for i in range(dim(n))})

    @property
    def shift(self):
        return self.dst - self.src

    def __add__(self, other):
        self._check(other)
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k)
            if s is None:
                data[k] = v
                continue
            raw = rad_add(s._t, v._t)
            if raw:
                data[k] = RadScalar(raw)
            else:
                del data[k]
        return FockOp(self.src, self.dst, data)

    def __neg__(self):
        return FockOp(self.src, self.dst, {k: -v for k, v in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coef):
        coef = RadScalar.coerce(coef)
        if coef.is_zero():
            return FockOp.zero(self.src, self.dst)
        ct = coef._t
        return FockOp(
            self.src,
            self.dst,
            {k: RadScalar(rad_mul(ct, v._t)) for k, v in self.data.items()},
        )

    def __mul__(self, other):
        """Composition self o other (other acts first)."""
        if other.dst != self.src:
            raise ValueError(
                f"grade mismatch: composing {self.src}->{self.dst} after "
                f"{other.src}->{other.dst}"
            )
        by_row = {}
        for (b, aj), v in other.data.items():
            by_row.setdefault(b, []).append((aj, v._t))
        raw = {}
        for (ci, b), v in self.data.items():
            cols = by_row.get(b)
            if not cols:
                continue
            vt = v._t
            for aj, ot in cols:
                p = rad_mul(vt, ot)
                if not p:
                    continue
                k = (ci, aj)
                s = raw.get(k)
                raw[k] = p if s is None else rad_add(s, p)
        data = {k: RadScalar(p) for k, p in raw.items() if p}
        return FockOp(other.src, self.dst, data)

    def _check(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("grade mismatch in FockOp sum")

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, FockOp)
            and self.src == other.src
            and self.dst == other.dst
            and self.data == other.data
        )

    def specialize(self, h_value=None, g_value=None):
        data = {}
        for k, v in self.data.items():
            v = v.specialize(h_value, g_value)
            if not v.is_zero():
                data[k] = v
        return FockOp(self.src, self.dst, data)

    def entry(self, dst_state, src_state):
        i = state_index(self.dst)[dst_state]
        j = state_index(self.src)[src_state]
        return self.data.get((i, j), ZERO)

    def __repr__(self):
        return f"FockOp({self.src}->{self.dst}, nnz={len(self.data)})"


def boson(mode: int, kind: str, n: int) -> FockOp:
    """Creation/annihilation matrix of one mode on the grade-n block."""
    if kind == "create":
        idx = state_index(n + 1)
        data = {}
        for j, s in enumerate(states(n)):
            t = list(s)
            t[mode] += 1
            data[(idx[tuple(t)], j)] = sqrt_nat(s[mode] + 1)
        return FockOp(n, n + 1, data)
    if kind == "annihilate":
        if n == 0:
            raise ValueError("cannot annihilate on the vacuum grade")
        idx = state_index(n - 1)
        data = {}
        for j, s in enumerate(states(n)):
            if s[mode] == 0:
                continue
            t = list(s)
            t[mode] -= 1
            data[(idx[tuple(t)], j)] = sqrt_nat(s[mode])
        return FockOp(n, n - 1, data)
    raise ValueError(f"unknown boson kind {kind!r}")


def _hop(n, moves):
    """Number-conserving bilinear: sum of single-quantum hops.

    moves is a sequence of (from_mode, to_mode); the amplitude of one hop
    is sqrt(n_from * (n_to + 1)).
    """
    idx = state_index(n)
    data = {}
    for j, s in enumerate(states(n)):
        for src_m, dst_m in moves:
            if s[src_m] == 0:
                continue
            t = list(s)
            t[src_m] -= 1
            t[dst_m] += 1
            k = (idx[tuple(t)], j)
            amp = sqrt_nat(s[src_m] * (t[dst_m]))
            cur = data.get(k)
            data[k] = amp if cur is None else cur + amp
    return FockOp(n, n, data)


@lru_cache(maxsize=None)
def j_plus(n):
    return _hop(n, ((A11, A21), (A12, A22)))


@lru_cache(maxsize=None)
def j_minus(n):
    return _hop(n, ((A21, A11), (A22, A12)))


@lru_cache(maxsize=None)
def k_plus(n):
    return _hop(n, ((A12, A11), (A22, A21)))


@lru_cache(maxsize=None)
def k_minus(n):
    return _hop(n, ((A11, A12), (A21, A22)))


def _diag(n, weight):
    data = {}
    for i, s in enumerate(states(n)):
        w = weight(s)
        if w:
            data[(i, i)] = RadScalar.from_int(w)
    return FockOp(n, n, data)


@lru_cache(maxsize=None)
def j0(n):
    return _diag(n, lambda s: s[A21] + s[A22] - s[A11] - s[A12])


@lru_cache(maxsize=None)
def k0(n):
    return _diag(n, lambda s: s[A11] + s[A21] - s[A12] - s[A22])


def z_l(n):
    return _diag(n, lambda s: -sum(s))


def z_r(n):
    return _diag(n, lambda s: sum(s))


@lru_cache(maxsize=None)
def _one_minus_pow(which, n, exponent):
    """(1 - 2h P)^exponent with P = J+ or K+ on grade n; finite series."""
    plus = j_plus(n) if which == "j" else k_plus(n)
    e = Q(exponent)
    out = FockOp.identity(n)
    power = FockOp.identity(n)
    coef = ONE
    k = 0
    while True:
        k += 1
        power = power * plus
        if power.is_zero():
            return out
        coef = coef * (-_TWO_H)
        out = out + power.scaled(coef.scaled(_binom(e, k)))


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


_LETTER_FACTORS = {
    ncalg.X: (A11, Q(-1, 2), Q(1, 2)),
    ncalg.U: (A12, Q(-1, 2), Q(-1, 2)),
    ncalg.V: (A21, Q(1, 2), Q(1, 2)),
    ncalg.Y: (A22, Q(1, 2), Q(-1, 2)),
}


@lru_cache(maxsize=None)
def twisted_letter(g: int, n: int) -> FockOp:
    mode, lc, rc = _LETTER_FACTORS[g]
    return boson(mode, "create", n) * exp_lr(n, lc, rc)


def twisted_generators(n: int):
    """The grade-n blocks of the deformed generators, as a name map."""
    return {name: twisted_letter(ncalg.GEN_INDEX[name], n) for name in "xuvy"}


@lru_cache(maxsize=None)
def eval_letters(letters, n: int) -> FockOp:
    """Direct evaluation of a free word (no rewriting), rightmost first."""
    if not letters:
        return FockOp.identity(n)
    head = eval_letters(letters[1:], n)
    return twisted_letter(letters[0], n + len(letters) - 1) * head


def eval_free(terms, n: int) -> FockOp:
    """Evaluate a formal combination [(letters, coef), ...] of free words."""
    terms = [(tuple(ltrs), RadScalar.coerce(c)) for ltrs, c in terms]
    shift = len(terms[0][0])
    out = FockOp.zero(n, n + shift)
    for letters, coef in terms:
        if len(letters) != shift:
            raise ValueError("eval_free needs grade-homogeneous terms")
        out = out + eval_letters(letters, n).scaled(coef)
    return out


def evaluate(p: NCPoly, n: int) -> FockOp:
    """Oracle homomorphism: substitute the twisted generators into p.

    Only GL-tagged polynomials are accepted: the realization has central
    determinant a_1^1 a_2^2 - a_2^1 a_1^2, not 1, so the SL quotient does
    not act on this space.
    """
    if p.ring != GL:
        raise ValueError("the Fock realization only represents the GL ring")
    terms = list(p.terms().items())
    if not terms:
        return FockOp.zero(n, n)
    degrees = {sum(w) for w, _ in terms}
    if len(degrees) > 1:
        raise ValueError(
            "grade-homogeneous polynomials only: mixed degrees "
            f"{sorted(degrees)}"
        )
    out = FockOp.zero(n, n + degrees.pop())
    for w, coef in terms:
        out = out + eval_letters(ncalg.word_letters(w), n).scaled(coef)
    return out


@lru_cache(maxsize=None)
def _creation_monomial(occ, n: int) -> FockOp:
    """(a11)^K (a21)^L (a12)^M (a22)^N as a grade n -> n+|occ| matrix."""
    idx = state_index(n + sum(occ))
    data = {}
    for j, s in enumerate(states(n)):
        t = tuple(a + b for a, b in zip(s, occ))
        amp = ONE
        for m in range(4):
            rising = 1
            for step in range(1, occ[m] + 1):
                rising *= s[m] + step
            if rising != 1:
                amp = amp * sqrt_nat(rising)
        data[(idx[t], j)] = amp
    return FockOp(n, n + sum(occ), data)


def classical_dop(twoj, twomp, twom, n: int) -> FockOp:
    """Undeformed matrix-element operator, a pure creation polynomial."""
    check_indices(twoj, twomp, twom)
    out = FockOp.zero(n, n + twoj)
    for klmn, coef in iter_klmn(twoj, twomp, twom):
        out = out + _creation_monomial(klmn, n).scaled(coef)
    return out


def twisted_dop(twoj, twomp, twom, n: int) -> FockOp:
    """The doubly twisted tensor operator D0 e^{-m' sigma_L + m sigma_R}."""
    return classical_dop(twoj, twomp, twom, n) * exp_lr(
        n, Q(-twomp, 2), Q(twom, 2)
    )


def determinant_op(n: int) -> FockOp:
    """a_1^1 a_2^2 - a_2^1 a_1^2 as a grade n -> n+2 matrix."""
    return _creation_monomial((1, 0, 0, 1), n) - _creation_monomial((0, 1, 1, 0), n)


def two_parameter_generators(n: int):
    """Two-parameter twisted generators on grade n.

    On a grade block the number operators are scalars (Z_L = -n, Z_R = n),
    so the definitions a = x - g v Z_L, b = u - g x Z_R - g y Z_L
    + g^2 v Z_L Z_R, c = v, d = y - g v Z_R collapse to combinations of
    the one-parameter generators with g n coefficients.  The map also
    carries the number operators under "zl" and "zr".
    """
    tg = twisted_generators(n)
    gn = G.scaled(Q(n))
    return {
        "a": tg["x"] + tg["v"].scaled(gn),
        "b": tg["u"] - tg["x"].scaled(gn) + tg["y"].scaled(gn)
        - tg["v"].scaled(gn * gn),
        "c": tg["v"],
        "d": tg["y"] - tg["v"].scaled(gn),
        "zl": z_l(n),
        "zr": z_r(n),
    }


def commutator2(builder, name_a, name_b, n: int) -> FockOp:
    """[A, B] as a grade n -> n+2 map for unit-shift generator builders."""
    a_hi = builder(n + 1)[name_a]
    b_lo = builder(n)[name_b]
    b_hi = builder(n + 1)[name_b]
    a_lo = builder(n)[name_a]
    return a_hi * b_lo - b_hi * a_lo


def _pair(builder, name_a, name_b, n: int) -> FockOp:
    return builder(n + 1)[name_a] * builder(n)[name_b]


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


def relations_check(nmax: int = 4) -> Report:
    """All six defining relations for the twisted generators, grades <= nmax."""
    _check_nmax(nmax)
    rep = Report("fock-relations")
    for name, combo in _GL_FREE_RELATIONS.items():
        terms = [(_letters(w), c) for w, c in combo]
        for n in range(nmax + 1):
            op = eval_free(terms, n)
            rep.add({"relation": name, "grade": n}, op.is_zero())
    return rep


def determinant_check(nmax: int = 4) -> Report:
    """x y - u v - h x v equals the undeformed boson determinant."""
    _check_nmax(nmax)
    rep = Report("fock-determinant")
    terms = [(_letters("xy"), ONE), (_letters("uv"), -ONE), (_letters("xv"), -H)]
    for n in range(nmax + 1):
        rep.add(
            {"grade": n},
            (eval_free(terms, n) - determinant_op(n)).is_zero(),
        )
    return rep


def homomorphism_check(nmax: int = 4, words: int = 200, maxlen: int = 4, seed: int = 7) -> Report:
    """evaluate(normal_form(w)) equals direct evaluation of w, random words."""
    _check_nmax(nmax)
    rep = Report("fock-homomorphism")
    rng = random.Random(seed)
    for i in range(words):
        length = rng.randint(1, maxlen)
        letters = tuple(rng.randrange(4) for _ in range(length))
        p = normal_form([(letters, ONE)], GL)
        ok = True
        for n in range(nmax + 1):
            if evaluate(p, n) != eval_letters(letters, n):
                ok = False
                break
        rep.add(
            {"word": "".join(ncalg.GEN_NAMES[g] for g in letters), "index": i},
            ok,
        )
    return rep


def twisted_dop_check(max_twoj: int = 2, nmax: int = 3) -> Report:
    """The ordered closed form evaluates to D0 e^{-m' sigma_L + m sigma_R}."""
    _check_nmax(nmax)
    rep = Report("fock-dfunction")
    for twoj in range(max_twoj + 1):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                p = dfunc(twoj, twomp, twom, ORDERED1, GL)
                ok = True
                for n in range(nmax + 1):
                    if evaluate(p, n) != twisted_dop(twoj, twomp, twom, n):
                        ok = False
                        break
                rep.add({"twoj": twoj, "twomp": twomp, "twom": twom}, ok)
    return rep


# Two-parameter ring: [a,b] = -(h+g)(D'-a^2) and friends, checked as
# grade maps with both parameters symbolic.
def two_parameter_check(nmax: int = 3) -> Report:
    _check_nmax(nmax)
    rep = Report("fock-two-parameter")
    hpg = H + G
    hmg = H - G

    def pair(x, y, n):
        return _pair(two_parameter_generators, x, y, n)

    for n in range(nmax + 1):
        dp = determinant_op(n)
        com = lambda p, q: commutator2(two_parameter_generators, p, q, n)
        a2 = pair("a", "a", n)
        d2 = pair("d", "d", n)
        ac = pair("a", "c", n)
        dc = pair("d", "c", n)
        cd = pair("c", "d", n)
        c2 = pair("c", "c", n)
        cases = {
            "[a,b]=-(h+g)(D'-a^2)": com("a", "b") + (dp - a2).scaled(hpg),
            "[a,c]=-(h-g)c^2": com("a", "c") + c2.scaled(hmg),
            "[a,d]=(h+g)ac-(h-g)dc": com("a", "d") - ac.scaled(hpg) + dc.scaled(hmg),
            "[b,c]=-(h+g)ac-(h-g)cd": com("b", "c") + ac.scaled(hpg) + cd.scaled(hmg),
            "[b,d]=(h-g)(D'-d^2)": com("b", "d") - (dp - d2).scaled(hmg),
            "[c,d]=(h+g)c^2": com("c", "d") - c2.scaled(hpg),
        }
        for name, op in cases.items():
            rep.add({"relation": name, "grade": n}, op.is_zero())
        # D' = ad - bc - (h+g)ac is again the undeformed determinant
        dprime = pair("a", "d", n) - pair("b", "c", n) - ac.scaled(hpg)
        rep.add({"relation": "D'=D", "grade": n}, (dprime - dp).is_zero())
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
