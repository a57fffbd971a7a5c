import json
import random
from fractions import Fraction
from itertools import groupby, product
from math import comb

import pytest

from slh2 import exprio, kernel, ncalg, pbwcheck
from slh2._rat import Q, qstr
from slh2.exprio import parse, render_latex, render_text
from slh2.ncalg import (
    GL,
    SL,
    NCPoly,
    gen,
    lincomb,
    normal_form,
    quantum_determinant,
    word_sort_key,
    word_str,
)
from slh2.scalar import ONE, ZERO, H, RadScalar, rational, sqrt_nat

import flatkeys
from flatkeys import packed, unpack, unpacked


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
    # the words no GL rule rewrites, counted over their last letter, are
    # the words with no reducible position, and number comb(n + 3, 3)
    rules = pbwcheck.int_rules(GL)
    assert pbwcheck.irreducible_count(0, rules) == 1
    assert pbwcheck.irreducible_count(1, rules) == 4
    assert pbwcheck.irreducible_count(3, rules) == 20
    for n in range(7):
        assert pbwcheck.irreducible_count(n, rules) == comb(n + 3, 3)
    for n in range(6):
        words = product(range(4), repeat=n)
        assert pbwcheck.irreducible_count(n, rules) == sum(
            not pbwcheck.reducible_positions(w, rules) for w in words
        )


def test_sl_normal_words_never_mix_x_and_y():
    for n in range(1, 5):
        for w in product(range(4), repeat=n):
            p = normal_form([(w, 1)], SL)
            for (a, b, c, d) in p.terms():
                assert b == 0 or c == 0


def test_termination_measure():
    rep = pbwcheck.termination_check(maxlen=4)
    assert rep.ok, rep.first_failure()


def test_confluence_exhaustive_len4():
    rep = pbwcheck.confluence_check(maxlen=4)
    assert rep.ok, rep.first_failure()


@pytest.mark.parametrize(
    "check", [pbwcheck.confluence_check, pbwcheck.pbw_suite], ids=["confluence", "suite"]
)
def test_word_length_cutoff_below_one_rejected(check):
    # with maxlen < 1 no word is tried, so every case would pass vacuously
    with pytest.raises(ValueError, match="maxlen=0"):
        check(0)


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


def test_prefix_forms_equal_normal_form_exhaustive_len5():
    # confluence_check builds each word's engine normal form from its
    # prefix's form on a stack; every word up to length 5 comes in the
    # check's order with the form normal_form gives it
    words = [w for n in range(1, 6) for w in product(range(4), repeat=n)]
    for ring in (GL, SL):
        got = list(pbwcheck._engine_forms(ring, 5))
        assert [w for w, _ in got] == words
        for w, form in got:
            assert form == normal_form([(w, 1)], ring)._terms, (w, ring)


def test_confluence_detects_a_wrong_engine_form(monkeypatch):
    # negative control: one word's engine form doubled must fail the
    # "engine agrees" law in both rings and leave the peaks alone
    forms = pbwcheck._engine_forms

    def wrong(ring, maxlen):
        for w, form in forms(ring, maxlen):
            yield w, ({k: 2 * q for k, q in form.items()} if w == (2, 1, 0) else form)

    monkeypatch.setattr(pbwcheck, "_engine_forms", wrong)
    rep = pbwcheck.confluence_check(3)
    failed = [(c["params"]["ring"], c["params"]["law"]) for c in rep.cases if not c["pass"]]
    assert failed == [(GL, "engine agrees"), (SL, "engine agrees")]


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
        assert unpacked(normal_form([(w, 1)], ring)._terms) == want, (w, ring)


def test_memo_keys_are_cores(monkeypatch):
    from slh2 import dfun
    from slh2 import hopfcheck as hc
    from slh2.dfun import ORDERED1, dmatrix
    from test_hopfcheck import tensor_mul

    _fresh_memos(monkeypatch)
    monkeypatch.setattr(dfun, "_TERM_MEMO", {})
    monkeypatch.setattr(hc, "_DELTA_MEMO", {GL: {}, SL: {}})
    monkeypatch.setattr(hc, "_DPROD_MEMO", {})
    for cache in (dfun.dfunc, hc._rel3):
        cache.cache_clear()
    for ring in (GL, SL):
        dmatrix(6, ORDERED1, ring)
        # the coproduct and tensor products multiply slot words that
        # carry v and u powers, through the same engine product
        assert hc.check_corep(3, ring=ring).ok
    p, q = parse("v*x + h*u", SL), parse("y*u - v^2", SL)
    assert tensor_mul(hc.coproduct(p), hc.coproduct(q), SL) == hc.coproduct(p * q)
    assert hc.wigner_check(1, 2, 1).ok
    # dmatrix and the coproduct multiply by linear factors; wigner_check
    # and the tensor product (both in SL) multiply by longer words
    assert ncalg._MEMO[GL] and ncalg._MEMO[SL] and ncalg._WW_MEMO[SL]
    for ring in (GL, SL):
        # no v on the left word, no u on the right word; a right word 1
        # (the core of a power of u) leaves the left word as it is
        memos = {**ncalg._MEMO[ring], **ncalg._WW_MEMO[ring]}
        for key, prod in memos.items():
            # the two cores of a memo key, the right word in the high bits
            w2, w1 = map(flatkeys.word, divmod(key, 1 << kernel.WORD_BITS))
            assert w1[ncalg.V] == 0 and w2[ncalg.U] == 0, (w1, w2)
            if not any(w2):
                assert prod == {flatkeys.pack((w1,)): 1}, (w1, prod)
        assert any(not key >> kernel.WORD_BITS for key in memos)


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


def _flatness_failures(monkeypatch, rules):
    monkeypatch.setattr(ncalg, "RULES", rules)
    return [c["params"]["degree"] for c in pbwcheck.flatness_check().cases if not c["pass"]]


def test_flatness_fails_without_a_rule(monkeypatch):
    # with uy left as it is, each word holding it is irreducible as well
    rules = {ring: dict(table) for ring, table in ncalg.RULES.items()}
    del rules[GL][(ncalg.U, ncalg.Y)]
    assert _flatness_failures(monkeypatch, rules) == list(range(2, pbwcheck.FLAT_MAXDEG + 1))


def test_flatness_fails_with_a_rule_on_an_ascending_pair(monkeypatch):
    # vx -> xv rewrites a normal word, which leaves too few irreducible ones
    rules = {ring: dict(table) for ring, table in ncalg.RULES.items()}
    rules[GL][(ncalg.V, ncalg.X)] = (((ncalg.X, ncalg.V), ONE),)
    assert _flatness_failures(monkeypatch, rules) == list(range(2, pbwcheck.FLAT_MAXDEG + 1))


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
        out = out + NCPoly.from_terms(ring, {w: s * c for w, s in p.terms().items()})
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
    for key, q in unpacked(p._terms).items():
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
            assert unpacked(p._terms) == {(0, 1, 0, 0, 1, 0): 1}
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
        assert unpacked(p._terms) == {(0, 1, 0, 0, 1, 0): 1}
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
        assert type(unpacked(p._terms)[(1, 1, 0, 0, 1, 0)]) is int
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


def _random_polys():
    """The zero of each ring and 200 seeded random polynomials: radicands,
    h powers, Fractions, both rings, up to 12 terms in a random order."""
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
        polys.append(NCPoly(ring, packed(terms)))
    return polys


def test_to_json_matches_grouped_path():
    polys = _random_polys()
    for p in polys:
        assert json.dumps(p.to_json()) == json.dumps(_old_to_json(p))
    assert polys[0].to_json() == {"ring": GL, "terms": []}


# The views as they were read before ncalg.word_groups: the flat terms
# grouped into {word: RadScalar} with no order, then sorted by word, kept
# as oracles.


def _old_terms(p):
    out = {}
    for k, q in p._terms.items():
        a, b, c, d, r, i = unpack(k)
        out.setdefault((a, b, c, d), {})[flatkeys.pack((), r, i)] = q
    return {w: RadScalar(t) for w, t in out.items()}


def _old_render(p, style):
    pieces = []
    for exps, coef in sorted(_old_terms(p).items(), key=lambda t: word_sort_key(t[0])):
        monos = coef.terms()
        if len(monos) > 1:
            inner = exprio._signed_sum(style, (exprio._monomial(style, *t) for t in monos))
            sign, factors = "", [f"({inner})"]
        else:
            sign, factors = exprio._monomial(style, *monos[0])
        factors += (exprio._power(style, g, e) for g, e in zip(ncalg.GEN_NAMES, exps) if e)
        pieces.append((sign, factors))
    return exprio._signed_sum(style, pieces)


def _joined(texts):
    """The sum of rendered one-word polynomials, in the given order."""
    out = texts[0]
    for t in texts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def test_printers_match_the_sorted_terms_path():
    for p in _random_polys():
        assert render_text(p) == _old_render(p, exprio._TEXT)
        assert render_latex(p) == _old_render(p, exprio._LATEX)


def test_json_text_and_latex_list_the_words_in_one_order():
    for p in _random_polys()[2:]:
        words = [t["word"] for t in p.to_json()["terms"]]
        assert words == [word_str(exps) for exps in p.terms()]
        parts = [
            NCPoly(p.ring, {k: q for k, q in p._terms.items() if word_str(unpack(k)[:4]) == w}) for w in words
        ]
        assert sum(len(part._terms) for part in parts) == len(p._terms)
        for render in (render_text, render_latex):
            assert render(p) == _joined([render(part) for part in parts])


def test_views_match_the_grouped_path():
    rng = random.Random(29)
    for p in _random_polys():
        old = _old_terms(p)
        assert p.terms() == old
        assert list(p.terms()) == sorted(old, key=word_sort_key)
        absent = [(0, 0, 0, 0), (4, 0, 0, 0), (1, 2, 0, 3)]
        absent += [(rng.randint(0, 3), rng.randint(0, 3), 0, rng.randint(0, 3)) for _ in range(4)]
        for exps in list(old) + absent:
            if p.ring == SL and exps[1] and exps[2]:
                continue
            assert p.coefficient(ncalg.word_letters(exps)) == old.get(exps, ZERO), exps
        assert p.constant() == old.get((0, 0, 0, 0), ZERO)
    coefs = [0, 1, -7, Fraction(-3, 4), H, sqrt_nat(12) - H * H * 5, (sqrt_nat(6) + Q(1, 2)) * (H + 1)]
    for ring in (GL, SL):
        for c in coefs:
            old = NCPoly.from_terms(ring, {(0, 0, 0, 0): RadScalar.coerce(c)})
            assert NCPoly.scalar(c, ring) == old
            assert NCPoly.scalar(c, ring).constant() == RadScalar.coerce(c)


# sigma: the algebra automorphism that swaps x and y and fixes v, u and h.


def _sigma_letters(word):
    swap = {ncalg.X: ncalg.Y, ncalg.Y: ncalg.X}
    return tuple(swap.get(g, g) for g in word)


def _h_negated(coef):
    return RadScalar({k: q * (-1) ** unpack(k, 0)[1] for k, q in coef.raw().items()})


def _sigma_rule_residues(sigma_coef):
    """NF(sigma(lhs - rhs)) for each rule of the SL ring, sigma acting on
    the coefficients by sigma_coef."""
    return {
        pair: normal_form(
            [(_sigma_letters(pair), ONE)]
            + [(_sigma_letters(word), -sigma_coef(coef)) for word, coef in rhs],
            SL,
        )
        for pair, rhs in ncalg.RULES[SL].items()
    }


def test_sigma_respects_each_sl_rule():
    residues = _sigma_rule_residues(lambda c: c)
    assert len(residues) == 7
    assert all(p.is_zero() for p in residues.values())


def test_sigma_negating_h_breaks_a_rule():
    residues = _sigma_rule_residues(_h_negated)
    assert _h_negated(H) == -H
    assert any(not p.is_zero() for p in residues.values())


def test_swap_xy_is_sigma_on_sl_terms():
    rng = random.Random(11)
    for _ in range(40):
        word = [rng.randrange(4) for _ in range(rng.randrange(7))]
        coef = RadScalar.coerce(rng.randrange(1, 5)) * sqrt_nat(rng.choice((1, 2, 3))) * H ** rng.randrange(3)
        p = normal_form([(word, coef), ("xv", ONE)], SL)
        assert p.swap_xy() == normal_form([(_sigma_letters(word), coef), ("yv", ONE)], SL)
        assert p.swap_xy().swap_xy() == p
    with pytest.raises(ValueError):
        gen("x", GL).swap_xy()


# lift_to_gl: the GL element of one degree over an SL polynomial.


def _rand_sl_poly(rng, degree):
    """A seeded SL polynomial whose words have the length degree or a
    shorter one of its parity (the SL rule xy -> 1 + vu - h vy drops two
    letters), with radical and h-power values."""
    pairs = []
    for _ in range(rng.randint(1, 6)):
        word = [rng.randrange(4) for _ in range(degree - 2 * rng.randint(0, degree // 2))]
        coef = rational(rng.randint(-3, 3), rng.randint(1, 3)) * sqrt_nat(rng.choice((1, 2, 6)))
        pairs.append((word, coef * H ** rng.randrange(3)))
    return normal_form(pairs, SL)


def test_lift_to_gl_is_a_homogeneous_preimage():
    rng = random.Random(31)
    shorter = 0
    for _ in range(60):
        degree = rng.randrange(8)
        p = _rand_sl_poly(rng, degree)
        shorter += any(sum(w) < degree for w in p.terms())
        lift = ncalg.lift_to_gl(p, degree)
        assert lift.ring == GL and lift.with_ring(SL) == p
        assert all(sum(w) == degree for w in lift.terms())
        _assert_canonical(lift)
    assert shorter > 20
    d, x = quantum_determinant(GL), gen("x", GL)
    assert ncalg.lift_to_gl(NCPoly.one(SL), 0) == NCPoly.one(GL)
    assert ncalg.lift_to_gl(NCPoly.one(SL), 6) == d * d * d
    assert ncalg.lift_to_gl(gen("x", SL), 3) == d * x == x * d
    assert ncalg.lift_to_gl(NCPoly.zero(SL), 4) == NCPoly.zero(GL)


@pytest.mark.parametrize("p, degree", [
    ("x*u", 1),  # a word longer than the degree
    ("x*u + v", 2),  # a word of the other parity
    ("1", -2),
    ("1", 2.5),
])
def test_lift_to_gl_rejects_what_does_not_lift(p, degree):
    with pytest.raises(ValueError):
        ncalg.lift_to_gl(parse(p, SL), degree)


def test_lift_to_gl_takes_sl_polynomials_only():
    with pytest.raises(ValueError):
        ncalg.lift_to_gl(quantum_determinant(GL), 2)
