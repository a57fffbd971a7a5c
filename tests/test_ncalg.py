import json
import random
from fractions import Fraction
from itertools import groupby, product
from math import comb

import pytest

from slh2 import kernel, ncalg, pbwcheck
from slh2._rat import Q, qstr
from slh2.exprio import parse
from slh2.ncalg import (
    GL,
    SL,
    NCPoly,
    count_normal_words,
    gen,
    lincomb,
    normal_form,
    quantum_determinant,
    word_sort_key,
    word_str,
)
from slh2.scalar import ONE, ZERO, H, RadScalar, rational, sqrt_nat


def test_nf_xv():
    assert normal_form([("xv", 1)], GL) == parse("v*x - h*v^2", GL)


def test_nf_already_normal():
    assert normal_form([("x", 1)], GL) == gen("x", GL)


def test_sl_determinant_is_one():
    assert normal_form(
        [("xy", 1), ("uv", -1), ("xv", -H)], SL
    ) == NCPoly.one(SL)
    assert quantum_determinant(SL) == NCPoly.one(SL)


def test_gl_determinant_normal_form():
    # D = xy - uv - h xv normal-orders to xy - vu + h vy
    d = quantum_determinant(GL)
    assert d == parse("x*y - v*u + h*v*y", GL)


def test_determinant_classical_limit():
    d = quantum_determinant(GL).specialize(h_value=0)
    assert d == parse("x*y - v*u", GL).specialize(h_value=0)


def test_mul_examples():
    assert gen("x", GL) * gen("v", GL) == normal_form([("xv", 1)], GL)
    p = parse("1 + 2*v*u - h*x", GL)
    assert NCPoly.one(GL) * p == p
    d = quantum_determinant(GL)
    for name in "vxyu":
        g = gen(name, GL)
        assert (d * g - g * d).is_zero()


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        gen("x", GL) * gen("v", SL)
    with pytest.raises(ValueError):
        gen("x", GL) + gen("v", SL)


def test_count_normal_words():
    assert count_normal_words(0) == 1
    assert count_normal_words(1) == 4
    assert count_normal_words(3) == 20
    for n in range(7):
        assert count_normal_words(n, GL) == comb(n + 3, 3)


def test_sl_normal_words_never_mix_x_and_y():
    for n in range(1, 5):
        for w in product(range(4), repeat=n):
            p = normal_form([(w, 1)], SL)
            for (a, b, c, d) in p.terms():
                assert b == 0 or c == 0


def test_termination_measure():
    rep = pbwcheck.termination_check(maxlen=4, samples=300, maxsample_len=6)
    assert rep.ok, rep.first_failure()


def test_confluence_exhaustive_len4():
    rep = pbwcheck.confluence_check(maxlen=4)
    assert rep.ok, rep.first_failure()


def test_engine_matches_naive_random_len6():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        w = tuple(rng.randrange(4) for _ in range(n))
        for ring in (GL, SL):
            assert (
                normal_form([(w, 1)], ring).terms()
                == pbwcheck.naive_normal_form(w, ring)
            ), (w, ring)


def test_engine_matches_naive_exhaustive_len5():
    for ring in (GL, SL):
        for w in product(range(4), repeat=5):
            assert (
                normal_form([(w, 1)], ring).terms()
                == pbwcheck.naive_normal_form(w, ring)
            ), (w, ring)


def _v_core_u_words(count, seed):
    """Seeded words of length 6..10: a v-run, random letters, a u-run."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(6, 10)
        head, tail = rng.randint(1, 3), rng.randint(1, 3)
        middle = tuple(rng.randrange(4) for _ in range(n - head - tail))
        words.append((ncalg.V,) * head + middle + (ncalg.U,) * tail)
    return words


@pytest.mark.parametrize("ring", [GL, SL])
def test_core_keys_match_naive_on_v_and_u_runs(ring):
    # the engine reads each word product on its cores and shifts the
    # v-power back on the left and the u-power on the right
    rules = pbwcheck.int_rules(ring)
    for w in _v_core_u_words(200, 17):
        want = pbwcheck._naive(w, rules, pbwcheck._NAIVE_MEMO[ring])
        assert normal_form([(w, 1)], ring)._terms == want, (w, ring)


def test_memo_keys_are_cores(monkeypatch):
    from slh2 import dfun
    from slh2 import hopfcheck as hc
    from slh2.dfun import ORDERED1, dmatrix

    _fresh_memos(monkeypatch)
    monkeypatch.setattr(dfun, "_TERM_MEMO", {})
    for cache in (dfun.dfunc, hc._dprod, hc._rel3):
        cache.cache_clear()
    for ring in (GL, SL):
        dmatrix(6, ORDERED1, ring)
    assert hc.wigner_check(1, 2, 1).ok
    # dmatrix multiplies by linear factors; only wigner_check (in SL)
    # multiplies by longer words
    assert ncalg._MEMO[GL] and ncalg._MEMO[SL] and ncalg._WW_MEMO[SL]
    for ring in (GL, SL):
        # no v on the left word, no u on the right word, no word 1 right
        for w1, w2 in list(ncalg._MEMO[ring]) + list(ncalg._WW_MEMO[ring]):
            assert w1[ncalg.V] == 0 and w2[ncalg.U] == 0 and any(w2), (w1, w2)


def _fresh_memos(monkeypatch):
    """Empty engine and naive memos for one test, so that no entry made
    under a patched rule table outlives it."""
    for mod, name in ((ncalg, "_MEMO"), (ncalg, "_WW_MEMO"), (pbwcheck, "_NAIVE_MEMO")):
        monkeypatch.setattr(mod, name, {GL: {}, SL: {}})


def test_changed_rule_coefficient_breaks_a_peak(monkeypatch):
    _fresh_memos(monkeypatch)
    rules = {ring: dict(table) for ring, table in ncalg.RULES.items()}
    # yx -> xy - h xv + h yv with the sign of h yv flipped, in GL only
    (xy, one), xv, (yv, h) = rules[GL][(2, 1)]
    assert h == H
    rules[GL][(2, 1)] = ((xy, one), xv, (yv, -H))
    monkeypatch.setattr(ncalg, "RULES", rules)
    rep = pbwcheck.confluence_check(maxlen=4)
    failed = [c["params"] for c in rep.cases if not c["pass"]]
    assert failed == [{"ring": GL, "words": 340, "law": "peaks rejoin"}]


def test_rule_table_rejects_a_non_integral_coefficient(monkeypatch):
    for coef in (rational(1, 2) * H, sqrt_nat(2), H + ONE):
        rules = {ring: dict(table) for ring, table in ncalg.RULES.items()}
        (vx, one), (vv, _) = rules[SL][(1, 0)]
        rules[SL][(1, 0)] = ((vx, one), (vv, coef))
        monkeypatch.setattr(ncalg, "RULES", rules)
        assert pbwcheck.int_rules(GL)
        with pytest.raises(ValueError, match="not an int times a power of h"):
            pbwcheck.int_rules(SL)


def test_naive_rewriter_calls_no_engine_code(monkeypatch):
    words = [w for n in range(5) for w in product(range(4), repeat=n)]
    want = {(w, ring): normal_form([(w, 1)], ring).terms() for w in words for ring in (GL, SL)}
    _fresh_memos(monkeypatch)

    def engine(*args):
        raise AssertionError("the naive rewriter called the engine")

    for name in ("_mul", "scale_into", "_word_mul_word", "lincomb"):
        monkeypatch.setattr(ncalg, name, engine)
    monkeypatch.setattr(kernel, "scale_into", engine)
    for (w, ring), terms in want.items():
        assert pbwcheck.naive_normal_form(w, ring) == terms, (w, ring)


def test_naive_memo_holds_int_flat_terms(monkeypatch):
    _fresh_memos(monkeypatch)
    assert pbwcheck.pbw_suite(4).ok
    for ring in (GL, SL):
        memo = pbwcheck._NAIVE_MEMO[ring]
        assert len(memo) > 300
        for terms in memo.values():
            for key, q in terms.items():
                assert len(key) == 6 and key[4] == 1, key
                assert all(type(k) is int for k in key) and type(q) is int and q, (key, q)


def _rand_poly(rng, ring):
    words = ["".join(rng.choice("vxyu") for _ in range(rng.randint(0, 3))) for _ in range(3)]
    return normal_form([(w, rational(rng.randint(-3, 3), rng.randint(1, 3))) for w in words], ring)


def _product_fold(pairs, ring):
    """sum of c * p by RadScalar products per word and +, without lincomb"""
    out = NCPoly.zero(ring)
    for c, p in pairs:
        c = RadScalar.coerce(c)
        out = out + NCPoly(
            ring, {w + k: q for w, s in p.terms().items() for k, q in (s * c).raw().items()}
        )
    return out


def _assert_lincomb_is_the_fold(pairs, ring):
    got = lincomb(pairs, ring)
    fold = NCPoly.zero(ring)
    for c, p in pairs:
        fold = fold + p.scaled(c)
    assert got == fold == _product_fold(pairs, ring)
    assert hash(got) == hash(fold) and repr(got) == repr(fold)
    _assert_canonical(got)
    return got


def test_lincomb_equals_fold():
    rng = random.Random(9)
    for _ in range(60):
        ring = rng.choice((GL, SL))
        coefs = [
            rational(rng.randint(-4, 4), rng.randint(1, 4))
            + H.scaled(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 5))
        ]
        _assert_lincomb_is_the_fold([(c, _rand_poly(rng, ring)) for c in coefs], ring)
    # radical coefficients and denominators that grow partway through a sum
    radical = [sqrt_nat(2), sqrt_nat(6).scaled(Fraction(1, 5)), sqrt_nat(3) * H - rational(1, 7)]
    growing = [rational(1, 2), rational(1, 3), rational(1, 5), rational(7, 10) * H]
    for ring in (GL, SL):
        polys = [parse(e, ring) for e in _RADICAL_EXPRS]
        # polynomials whose values are Fractions, and one with int values
        assert any(q.denominator != 1 for p in polys for q in p._terms.values())
        polys.append(gen("x", ring) * gen("u", ring) - gen("v", ring).scaled(3))
        for coefs in (radical, growing, radical + growing):
            for _ in range(10):
                pairs = [(c, rng.choice(polys)) for c in coefs]
                rng.shuffle(pairs)
                _assert_lincomb_is_the_fold(pairs, ring)
        # a sum whose denominators grow partway and which cancels to zero
        p, q = polys[1], polys[5]
        pairs = [(rational(1, 2), p), (sqrt_nat(6).scaled(Fraction(1, 5)), q),
                 (rational(1, 3), p), (rational(-5, 6), p), (sqrt_nat(6).scaled(Fraction(-1, 5)), q)]
        assert _assert_lincomb_is_the_fold(pairs, ring).is_zero()
        # an integral result of a rational sum has int values
        x = gen("x", ring)
        whole = lincomb([(rational(1, 2), x), (rational(1, 3), x), (rational(1, 6), x)], ring)
        assert whole == x and [type(v) for v in whole._terms.values()] == [int]


def test_lincomb_drops_zero_coefficients():
    x, v = gen("x", GL), gen("v", GL)
    out = lincomb([(0, x), (rational(2), v), (ZERO, v), (rational(1), x), (-ONE, x)], GL)
    assert out.terms() == {(1, 0, 0, 0): rational(2)}
    assert lincomb([(0, x)], GL).is_zero()
    # a zero coefficient is skipped before its polynomial is read
    assert lincomb([(ZERO, object())], GL).is_zero()
    with pytest.raises(ValueError):
        lincomb([(1, gen("x", SL))], GL)


def test_with_ring_gl_to_sl():
    d = quantum_determinant(GL)
    assert d.with_ring(SL) == NCPoly.one(SL)
    p = parse("x*y", GL)
    assert p.with_ring(SL) == parse("x*y", SL)


def test_power_and_scale():
    x = gen("x", GL)
    assert x ** 3 == x * x * x
    assert x.scaled(rational(2)) == x + x
    assert (x - x).is_zero()


def test_power_makes_only_the_products_it_needs(monkeypatch):
    # p ** n is n - 1 products from p itself; p ** 0 is one
    p = parse("x + h*v", SL)
    refs = [NCPoly.one(SL)]
    for _ in range(4):
        refs.append(refs[-1] * p)  # fills the word memos too
    calls = []
    mul = ncalg._mul

    def spy(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(ncalg, "_mul", spy)
    for n, ref in enumerate(refs):
        calls.clear()
        assert p ** n == ref
        assert (n, len(calls)) == (n, max(n - 1, 0))


def test_power_needs_a_non_negative_integer():
    x = gen("x", GL)
    assert x ** 2.0 == x ** Q(2) == x * x
    for n in (1.5, Q(1, 2), -1):
        with pytest.raises(ValueError, match="non-negative integers"):
            x ** n
        with pytest.raises(ValueError, match="non-negative integers"):
            H ** n


def test_coefficient_lookup():
    p = parse("3*v*x - h*v^2", GL)
    assert p.coefficient("vx") == rational(3)
    assert p.coefficient("vv") == -H
    assert p.coefficient("u").is_zero()
    with pytest.raises(ValueError):
        p.coefficient("xv")  # not a normal word
    with pytest.raises(ValueError):
        parse("x*y + v*u", SL).coefficient("xy")  # no SL-normal word has both x and y


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen(9, GL),
        lambda: gen("q", GL),
        lambda: normal_form([("xq", 1)], GL),
        lambda: normal_form([((0, 7), 1)], GL),
    ],
    ids=["gen-index-9", "gen-name-q", "nf-name-xq", "nf-index-7"],
)
def test_unknown_generator_raises(make):
    with pytest.raises(ValueError, match="not a word over the generators"):
        make()


_RADICAL_EXPRS = [
    "sqrt(2)*x + h*v", "1/2*u*v - sqrt(3)*h^2", "sqrt(6)*y*x - 2", "x + y + sqrt(2)*h*u",
    "3/4*v^2 - sqrt(3)*x", "h*y - 1/3*sqrt(6)*u*x", "sqrt(2)*v - sqrt(2)*v + x",
]


def _assert_canonical(p):
    for key, q in p._terms.items():
        assert len(key) == 6 and all(type(k) is int for k in key), key
        assert kernel.sqrt_split(key[4]) == (1, key[4]), key
        assert q != 0, key
    assert NCPoly.from_terms(p.ring, p.terms()) == p
    as_fraction = NCPoly(p.ring, {k: Fraction(q) for k, q in p._terms.items()})
    as_int = NCPoly(p.ring, {k: int(q) if q.denominator == 1 else q for k, q in p._terms.items()})
    assert as_fraction == as_int == p
    assert hash(as_fraction) == hash(as_int) == hash(p)


def test_flat_terms_are_canonical():
    rng = random.Random(17)
    for ring in (GL, SL):
        polys = [parse(e, ring) for e in _RADICAL_EXPRS]
        for _ in range(40):
            p, q = rng.choice(polys), rng.choice(polys)
            c = parse(rng.choice(["sqrt(2)", "sqrt(3)*h", "-1/2", "2*sqrt(6)"]), ring).constant()
            for result in (
                p + q,
                p - q,
                p * q,
                p.scaled(c),
                lincomb([(c, p), (rational(rng.randint(-2, 2)), q), (-c, p)], ring),
            ):
                _assert_canonical(result)
    # an integral value reached through a Fraction sum equals the int one
    x = gen("x", GL)
    half = x.scaled(rational(1, 2))
    assert half + half == x and hash(half + half) == hash(x)


def test_integral_sums_are_ints():
    for ring in (GL, SL):
        x = gen("x", ring)
        half = x.scaled(Q(1, 2))
        for p in (half + half, x.scaled(Q(3, 2)) - half):
            assert p._terms == {(0, 1, 0, 0, 1, 0): 1}
            assert [type(q) for q in p._terms.values()] == [int]
            assert p == x and hash(p) == hash(x) and repr(p) == repr(x)
        # a sum returned unchanged from one input leaves that input alone
        zero = NCPoly.zero(ring)
        assert (zero + half)._terms is half._terms
        assert [type(q) is int for q in half._terms.values()] == [False]


def _int_rule_holds(terms):
    return all((type(q) is int) == (q.denominator == 1) for q in terms.values())


def test_stored_integral_values_are_ints():
    half = Q(1, 2)
    for ring in (GL, SL):
        x = gen("x", ring)
        # two halves summed into one stored value, not only into a product
        p = normal_form([("x", half), ("x", half)], ring)
        assert p._terms == {(0, 1, 0, 0, 1, 0): 1}
        assert [type(q) for q in p._terms.values()] == [int]
        # terms() hands the stored ints on to its RadScalar values
        for p in (x, parse("2*x*y - 1/2*u*v + sqrt(8)*h*v", ring), x.scaled(half)):
            for c in p.terms().values():
                assert _int_rule_holds(c.raw()), c.raw()
        assert [type(q) for q in x.terms()[(0, 1, 0, 0)].raw().values()] == [int]
        assert [type(q) for q in x.specialize(0).terms()[(0, 1, 0, 0)].raw().values()] == [int]
        assert x.scaled(H).specialize(Q(1, 2)).scaled(2) == x
        assert _int_rule_holds(x.scaled(H + H).specialize(Q(1, 2))._terms)


def test_json_roundtrip():
    p = parse("x*y - u*v - h*x*v + sqrt(2)*u", GL)
    assert NCPoly.from_json(p.to_json()) == p
    q = parse("x^2 + h*x*v", SL)
    assert NCPoly.from_json(q.to_json()) == q


def test_json_word_order_canonical():
    p = parse("u + v + x^2", GL)
    words = [t["word"] for t in p.to_json()["terms"]]
    assert words == ["v", "u", "xx"]  # sorted by (weight, lex)


def test_integral_values_are_ints():
    for ring in (GL, SL):
        x, v = gen("x", ring), gen("v", ring)
        half = x.scaled(Q(1, 2))
        for p in (half.scaled(2), half * x.scaled(2)):
            assert [type(q) for q in p._terms.values()] == [int], p._terms
        assert half.scaled(2) == x and half * x.scaled(2) == x * x
        # (x + v)/2 * (x + v) sums two halves into the coefficient of vx
        p = (x + v).scaled(Q(1, 2)) * (x + v)
        assert type(p._terms[(1, 1, 0, 0, 1, 0)]) is int
        assert all(type(q) is int for q in p._terms.values() if q.denominator == 1)


def _old_to_json(p):
    """NCPoly.to_json as it was written through grouped RadScalar terms."""
    def coef_json(c):
        return {
            "terms": [
                {"rad": r, "poly": [{"h": i, "g": 0, "q": qstr(q)} for _, i, q in monos]}
                for r, monos in groupby(c.terms(), key=lambda t: t[0])
            ]
        }

    rows = sorted(p.terms().items(), key=lambda t: word_sort_key(t[0]))
    return {"ring": p.ring, "terms": [{"word": word_str(w), "coef": coef_json(c)} for w, c in rows]}


def test_to_json_matches_grouped_path():
    rng = random.Random(23)
    polys = [NCPoly.zero(GL), NCPoly.zero(SL)]
    for _ in range(200):
        ring = rng.choice((GL, SL))
        terms = {}
        for _ in range(rng.randint(1, 12)):
            a, b, c, d = (rng.randint(0, 3) for _ in range(4))
            if ring == SL and b and c:
                c = 0
            q = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 6]))
            q = int(q) if q.denominator == 1 else q
            terms[(a, b, c, d, rng.choice((1, 2, 3, 5, 6, 30)), rng.randint(0, 4))] = q
        polys.append(NCPoly(ring, terms))
    for p in polys:
        assert json.dumps(p.to_json()) == json.dumps(_old_to_json(p))
    assert polys[0].to_json() == {"ring": GL, "terms": []}
