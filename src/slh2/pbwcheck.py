"""Independent checks of the rewrite system: termination, confluence, flatness.

The naive rewriter here works on raw letter sequences straight from the
rule table, with a freely chosen rewrite position; it shares no code with
the production engine (no ncalg._mul, _word_mul_word or lincomb and no
kernel.scale_into), which makes it a usable oracle for it.  It reads ncalg.RULES
into an int table {pair: ((word, h_power, n), ...)} each time a check
runs, so a patched RULES reaches it too; every rule coefficient is n * h^k
with n an int (int_rules raises otherwise).  A normal form is then int
terms {(a, b, c, d, 1, h_power): n}, the tuple that kernel.unpack makes
of an NCPoly key: each step shifts h powers and sums ints, with no
scalar arithmetic.  The rewriter keeps these tuple keys on purpose, so
that its terms never pass through the engine's packed-key arithmetic;
confluence_check unpacks each engine form where it compares the two.
Confluence is checked as joinability of every one-step peak (reduce the
same word at two different positions, then normalize); together with the
termination measure this gives confluence by Newman's lemma.  The
engine side of that check, each word's ncalg normal form, is built from
the word's prefix: the words come in product order, so the prefix's form
is on a stack and only the trailing letters that changed are multiplied.
Flatness counts the GL words that no rule of the table rewrites, by a
transfer count over the last letter, against the commutative dimensions.
"""

import random
from itertools import product

from . import kernel as K
from . import ncalg
from .ncalg import GL, SL, NCPoly, RINGS, U, V, X, Y
from .report import Report
from .scalar import RadScalar


def int_rules(ring):
    """ncalg.RULES[ring] as {pair: ((word, h_power, n), ...)} with int n."""
    table = {}
    for pair, repl in ncalg.RULES[ring].items():
        rows = []
        for word, coef in repl:
            monos = list(coef.raw().items())
            if len(monos) != 1 or K.radicand(monos[0][0]) != 1 or monos[0][1].denominator != 1:
                raise ValueError(
                    f"rule {pair} -> {word}: coefficient {coef!r} is not an int times a power of h"
                )
            k, q = monos[0]
            rows.append((word, K.h_power(k), int(q)))
        table[pair] = tuple(rows)
    return table


def reducible_positions(letters, rules):
    return [
        i for i in range(len(letters) - 1) if (letters[i], letters[i + 1]) in rules
    ]


def rewrite_at(letters, pos, rules):
    """One rewrite step; returns [(letters, h_power, n), ...]."""
    pair = (letters[pos], letters[pos + 1])
    return [
        (letters[:pos] + word + letters[pos + 2 :], i, n) for word, i, n in rules[pair]
    ]


def measure(letters):
    return (sum(ncalg.WEIGHTS[g] for g in letters), letters)


_NAIVE_MEMO = {GL: {}, SL: {}}


def _naive(letters, rules, memo):
    """Leftmost-position rewriting to a fixed point, as int flat terms."""
    hit = memo.get(letters)
    if hit is None:
        positions = reducible_positions(letters, rules)
        if positions:
            hit = _poly_naive(rewrite_at(letters, positions[0], rules), rules, memo)
        else:
            counts = (letters.count(V), letters.count(X), letters.count(Y), letters.count(U))
            hit = {counts + (1, 0): 1}
        memo[letters] = hit
    return hit


def _poly_naive(steps, rules, memo):
    """The sum of n h^i NF(letters) over the (letters, i, n) of steps."""
    out = {}
    get = out.get
    for letters, i, n in steps:
        for (a, b, c, d, _, j), m in _naive(letters, rules, memo).items():
            key = (a, b, c, d, 1, i + j)
            s = get(key, 0) + n * m
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def naive_normal_form(letters, ring):
    """The naive normal form as {normal word: RadScalar}; engine-independent."""
    out = {}
    for (a, b, c, d, r, i), n in _naive(tuple(letters), int_rules(ring), _NAIVE_MEMO[ring]).items():
        out.setdefault((a, b, c, d), {})[K.scalar_key(r, i)] = n
    return {w: RadScalar(t) for w, t in out.items()}


SAMPLES, SAMPLE_MAXLEN, SAMPLE_SEED = 300, 6, 11  # termination_check's random words
FLAT_MAXDEG = 6


def termination_check(maxlen=4) -> Report:
    """Every rewrite step strictly decreases the (weight, lex) measure."""
    rep = Report("pbw-termination")
    rng = random.Random(SAMPLE_SEED)
    words = [
        w for n in range(2, maxlen + 1) for w in product(range(4), repeat=n)
    ]
    for _ in range(SAMPLES):
        n = rng.randint(2, SAMPLE_MAXLEN)
        words.append(tuple(rng.randrange(4) for _ in range(n)))
    for ring in RINGS:
        rules = int_rules(ring)
        bad = 0
        for w in words:
            before = measure(w)
            for pos in reducible_positions(w, rules):
                for word, _, _ in rewrite_at(w, pos, rules):
                    if not measure(word) < before:
                        bad += 1
        rep.add({"ring": ring, "words": len(words)}, bad == 0)
    return rep


def _check_maxlen(maxlen):
    # with maxlen < 1 confluence_check tries no word, so it would pass vacuously
    if maxlen < 1:
        raise ValueError(f"word length cutoff maxlen={maxlen} must be at least 1")


def _engine_forms(ring, maxlen):
    """Yield (w, the engine normal form of w) for every word w up to
    maxlen, in product order per length.  stack[i] is the form of the
    first i letters of the last word, and the form of w is its prefix's
    times its last letter, the chain ncalg.normal_form multiplies; only
    the trailing letters that changed since the last word are
    multiplied again."""
    stack, last = [{K.RAD_ONE: 1}], ()
    for n in range(1, maxlen + 1):
        for w in product(range(4), repeat=n):
            keep = 0
            while keep < min(n, len(last)) and last[keep] == w[keep]:
                keep += 1
            del stack[keep + 1 :]
            for g in w[keep:]:
                stack.append(ncalg._mul(stack[-1], {ncalg.LETTER_KEYS[g]: 1}, ring))
            last = w
            yield w, stack[-1]


def confluence_check(maxlen=4) -> Report:
    """All one-step peaks rejoin, and every result matches the engine.

    Each one-step rewrite of a word is normalized once, then compared
    with the rewrites at every later position and with the word's own
    normal form; that naive normal form is compared with the engine's,
    which _engine_forms builds from the word's prefix."""
    _check_maxlen(maxlen)
    rep = Report("pbw-confluence")
    for ring in RINGS:
        rules = int_rules(ring)
        memo = _NAIVE_MEMO[ring]
        peaks = disagreements = 0
        total = 0
        for w, form in _engine_forms(ring, maxlen):
            total += 1
            base = _naive(w, rules, memo)
            if base != {K.unpack(k, 1): q for k, q in form.items()}:
                disagreements += 1
            joins = [
                _poly_naive(rewrite_at(w, p, rules), rules, memo)
                for p in reducible_positions(w, rules)
            ]
            for k, left in enumerate(joins):
                for right in joins[k + 1 :]:
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


def irreducible_count(degree, rules):
    """The number of words of the given length with no adjacent pair in
    rules, by a transfer count over the last letter."""
    if degree == 0:
        return 1
    ends = [1] * 4
    for _ in range(degree - 1):
        ends = [sum(ends[a] for a in range(4) if (a, b) not in rules) for b in range(4)]
    return sum(ends)


def flatness_check() -> Report:
    """The GL words of each degree that no rule of ncalg.RULES rewrites
    number comb(n + 3, 3), the commutative monomials in four letters.
    With termination and confluence these words are a basis (Bergman's
    diamond lemma), so the deformation is flat."""
    from math import comb

    rep = Report("pbw-flatness")
    rules = int_rules(GL)
    for n in range(FLAT_MAXDEG + 1):
        rep.record({"degree": n}, irreducible_count(n, rules), comb(n + 3, 3))
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
    _check_maxlen(maxlen)
    rep = Report("pbw")
    rep.extend(termination_check(maxlen))
    rep.extend(confluence_check(maxlen))
    rep.extend(flatness_check())
    rep.extend(centrality_check())
    return rep
