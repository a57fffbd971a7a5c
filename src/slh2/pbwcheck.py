"""Independent checks of the rewrite system: termination, confluence, flatness.

The naive rewriter here works on raw letter sequences straight from the
rule table, with a freely chosen rewrite position; it shares no code with
the production engine in ncalg, which makes it a usable oracle for it.
Confluence is checked as joinability of every one-step peak (reduce the
same word at two different positions, then normalize); together with the
termination measure this gives confluence by Newman's lemma.
"""

import random
from itertools import product

from . import ncalg
from .ncalg import GL, SL, NCPoly, RINGS
from .report import Report
from .scalar import ONE, accumulate


def reducible_positions(letters, ring):
    rules = ncalg.RULES[ring]
    return [
        i for i in range(len(letters) - 1) if (letters[i], letters[i + 1]) in rules
    ]


def rewrite_at(letters, pos, ring):
    """One rewrite step; returns [(letters, coefficient), ...]."""
    rules = ncalg.RULES[ring]
    pair = (letters[pos], letters[pos + 1])
    out = []
    for repl, coef in rules[pair]:
        out.append((letters[:pos] + repl + letters[pos + 2 :], coef))
    return out


def measure(letters):
    return (sum(ncalg.WEIGHTS[g] for g in letters), letters)


_NAIVE_MEMO = {GL: {}, SL: {}}


def naive_normal_form(letters, ring):
    """Leftmost-position rewriting to a fixed point; engine-independent."""
    memo = _NAIVE_MEMO[ring]
    hit = memo.get(letters)
    if hit is not None:
        return hit
    positions = reducible_positions(letters, ring)
    if not positions:
        exps = (
            letters.count(ncalg.V),
            letters.count(ncalg.X),
            letters.count(ncalg.Y),
            letters.count(ncalg.U),
        )
        res = {exps: ONE}
    else:
        res = {}
        for word, coef in rewrite_at(letters, positions[0], ring):
            for exps, c in naive_normal_form(word, ring).items():
                accumulate(res, exps, coef * c)
    memo[letters] = res
    return res


def _poly_naive(terms, ring):
    out = {}
    for letters, coef in terms:
        for exps, c in naive_normal_form(letters, ring).items():
            accumulate(out, exps, coef * c)
    return out


def termination_check(maxlen=4, samples=300, maxsample_len=6, seed=11) -> Report:
    """Every rewrite step strictly decreases the (weight, lex) measure."""
    rep = Report("pbw-termination")
    rng = random.Random(seed)
    words = [
        w for n in range(2, maxlen + 1) for w in product(range(4), repeat=n)
    ]
    for _ in range(samples):
        n = rng.randint(2, maxsample_len)
        words.append(tuple(rng.randrange(4) for _ in range(n)))
    for ring in RINGS:
        bad = 0
        for w in words:
            for pos in reducible_positions(w, ring):
                before = measure(w)
                for word, _ in rewrite_at(w, pos, ring):
                    if not measure(word) < before:
                        bad += 1
        rep.add({"ring": ring, "words": len(words)}, bad == 0)
    return rep


def confluence_check(maxlen=4) -> Report:
    """All one-step peaks rejoin, and every result matches the engine."""
    rep = Report("pbw-confluence")
    for ring in RINGS:
        peaks = disagreements = 0
        total = 0
        for n in range(1, maxlen + 1):
            for w in product(range(4), repeat=n):
                total += 1
                engine = ncalg.normal_form([(w, ONE)], ring).terms()
                base = naive_normal_form(w, ring)
                if base != engine:
                    disagreements += 1
                positions = reducible_positions(w, ring)
                for p1 in positions:
                    for p2 in positions:
                        if p1 >= p2:
                            continue
                        left = _poly_naive(rewrite_at(w, p1, ring), ring)
                        right = _poly_naive(rewrite_at(w, p2, ring), ring)
                        if left != right or left != base:
                            peaks += 1
        rep.add(
            {"ring": ring, "words": total, "law": "peaks rejoin"}, peaks == 0
        )
        rep.add(
            {"ring": ring, "words": total, "law": "engine agrees"},
            disagreements == 0,
        )
    return rep


def flatness_check(maxdeg=6) -> Report:
    """Normal-word counts match the commutative monomial dimensions."""
    from math import comb

    rep = Report("pbw-flatness")
    for n in range(maxdeg + 1):
        rep.record(
            {"degree": n},
            ncalg.count_normal_words(n, GL),
            comb(n + 3, 3),
        )
    return rep


def centrality_check() -> Report:
    """The quantum determinant commutes with every generator in GL."""
    rep = Report("pbw-centrality")
    d = ncalg.quantum_determinant(GL)
    for name in "vxyu":
        g = ncalg.gen(name, GL)
        rep.add({"generator": name}, (d * g - g * d).is_zero())
    rep.add(
        {"generator": "determinant in SL"},
        ncalg.quantum_determinant(SL) == NCPoly.one(SL),
    )
    return rep


def pbw_suite(maxlen=4) -> Report:
    rep = Report("pbw")
    rep.extend(termination_check(maxlen))
    rep.extend(confluence_check(maxlen))
    rep.extend(flatness_check())
    rep.extend(centrality_check())
    return rep
