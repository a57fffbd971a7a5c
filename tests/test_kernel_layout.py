"""The flat-key layout: each field of the int key against the test-local
tuple oracle of flatkeys, and the guards that keep every field in range.

Near-limit values are built directly as keys or polynomials, never by
long product loops."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from slh2 import hopfcheck as hc
from slh2 import kernel as K
from slh2 import ncalg
from slh2._rat import Q
from slh2.ncalg import GL, SL, NCPoly
from slh2.scalar import H, RadScalar, sqrt_nat

import flatkeys

# the primorial 47# is below the radicand field, 53# = 47# * 53 is not
P47 = 614889782588491410
assert P47 < K.RAD_LIMIT <= P47 * 53

_exps = st.integers(0, 90)
_word = st.tuples(_exps, _exps, _exps, _exps)
_rad = st.one_of(st.integers(1, 40), st.integers(1, K.RAD_LIMIT - 1), st.just(K.RAD_LIMIT - 1))
_h = st.one_of(st.integers(0, 6), st.integers(0, 1 << 80), st.just(1 << 64))


@st.composite
def keys(draw, slots):
    """(words, radicand, h_power) with the degree below the field limit."""
    words = tuple(draw(_word) for _ in range(slots))
    if sum(map(sum, words)) >= K.EXP_LIMIT:
        words = tuple(tuple(e // 4 for e in w) for w in words)
    return words, draw(_rad), draw(_h)


def _oracle_tuple(words, r, h):
    return words[0] + (r, h) if len(words) == 1 else words + (r, h)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2).flatmap(keys))
def test_pack_and_unpack_round_trip(spec):
    words, r, h = spec
    slots = len(words)
    key = K.pack(words, r, h)
    assert key == flatkeys.pack(words, r, h)
    assert K.unpack(key, slots) == flatkeys.unpack(key, slots) == _oracle_tuple(words, r, h)
    assert (K.radicand(key), K.h_power(key)) == (r, h)
    assert K.degree(key) == sum(map(sum, words))
    assert K.scalar_part(key) == K.scalar_key(r, h) == flatkeys.pack((), r, h)
    for s, w in enumerate(words):
        assert K.word(key, s) == w


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(keys))
def test_swap_xy_swaps_the_x_and_y_fields_of_each_slot(spec):
    words, r, h = spec
    swapped = tuple((a, c, b, d) for a, b, c, d in words)
    key = K.swap_xy(K.pack(words, r, h))
    assert flatkeys.unpack(key, len(words)) == _oracle_tuple(swapped, r, h)


@settings(max_examples=200, deadline=None)
@given(keys(2))
def test_swap_slots_and_the_sigma_coproduct_permute_the_words(spec):
    (w1, w2), r, h = spec
    key = K.pack((w1, w2), r, h)
    assert flatkeys.unpack(K.swap_slots(key), 2) == (w2, w1, r, h)
    sig = lambda w: (w[0], w[2], w[1], w[3])  # noqa: E731
    assert flatkeys.unpacked(hc.sigma_coproduct({key: 3}), 2) == {(sig(w2), sig(w1), r, h): 3}


@settings(max_examples=200, deadline=None)
@given(keys(1))
def test_core_and_counit_masks(spec):
    (w,), r, h = spec
    key = K.pack((w,), r, h)
    a, b, c, d = w
    assert flatkeys.word(key & ncalg._CORE_LEFT) == (0, b, c, d)
    assert flatkeys.word(key & ncalg._CORE_RIGHT) == (a, b, c, 0)
    assert (not key & hc._VU_FIELDS) == (a == d == 0)
    counit = hc.counit(NCPoly(GL, {key: 5}))
    assert counit.raw() == ({flatkeys.pack((), r, h): 5} if a == d == 0 else {})


@settings(max_examples=200, deadline=None)
@given(keys(1), st.integers(0, 3))
def test_letter_steps_add_one_letter(spec, g):
    (w,), r, h = spec
    if sum(w) + 1 >= K.EXP_LIMIT:
        return
    grown = list(w)
    grown[g] += 1
    assert flatkeys.unpack(K.pack((w,), r, h) + K.LETTER_STEPS[g]) == tuple(grown) + (r, h)
    assert ncalg.LETTER_KEYS[g] == flatkeys.pack((ncalg.LETTER_WORDS[g],))


_small_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
              st.sampled_from([1, 2, 3, 5, 6, 10, 15]), st.integers(0, 3)),
    st.integers(-5, 5).filter(bool).map(lambda n: Q(n, 2)),
    max_size=6,
)
_small_coef = st.dictionaries(
    st.tuples(st.sampled_from([1, 2, 3, 6, 7]), st.integers(0, 2)),
    st.integers(-4, 4).filter(bool).map(Q),
    max_size=3,
)


def _scale_oracle(terms, coef):
    """coef * terms on tuple keys, by the gcd rule, with no key arithmetic."""
    out = {}
    for (rc, ic), qc in coef.items():
        for (a, b, c, d, r, i), q in terms.items():
            g = gcd(r, rc)
            key = (a, b, c, d, (r // g) * (rc // g), i + ic)
            out[key] = out.get(key, 0) + q * qc * g
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(_small_terms, _small_coef)
def test_scale_into_moves_each_key_by_its_delta(terms, coef):
    got = K.scale_into({}, flatkeys.packed(terms), flatkeys.packed(coef, 0))
    assert flatkeys.unpacked(got) == _scale_oracle(terms, coef)
    assert all((type(q) is int) == (q.denominator == 1) for q in got.values())


_outer_terms = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
              st.sampled_from([1, 2, 3, 6, 10, 15]), st.integers(0, 2)),
    st.one_of(st.integers(-3, 3).filter(bool), st.integers(-5, 5).filter(bool).map(lambda n: Q(n, 2))),
    max_size=5,
)


def _outer_oracle(left, right):
    """left (x) right on tuple keys, by the gcd rule, with no key arithmetic."""
    out = {}
    for (*w1, r1, i1), q1 in left.items():
        for (*w2, r2, i2), q2 in right.items():
            g = gcd(r1, r2)
            key = (tuple(w1), tuple(w2), (r1 // g) * (r2 // g), i1 + i2)
            out[key] = out.get(key, 0) + q1 * q2 * g
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(_outer_terms, _outer_terms, st.data())
def test_outer_into_matches_the_tuple_oracle(left, right, data):
    want = _outer_oracle(left, right)
    # dst holds some of the products already, some negated so that they
    # cancel to zero
    pre = {k: data.draw(st.sampled_from([-q, q, 1])) for k, q in want.items() if data.draw(st.booleans())}
    dst = flatkeys.packed(pre, 2)
    pl, pr = flatkeys.packed(left), flatkeys.packed(right)
    copies = dict(pl), dict(pr)
    assert K.outer_into(dst, pl, pr) is dst
    for k, q in pre.items():
        want[k] = want.get(k, 0) + q
    assert flatkeys.unpacked(dst, 2) == {k: q for k, q in want.items() if q}
    assert (pl, pr) == copies
    assert all((type(q) is int) == (q.denominator == 1) for q in dst.values())


# ---------------------------------------------------------------------
# the guards
# ---------------------------------------------------------------------


def test_pack_refuses_a_field_out_of_range():
    K.pack(((K.EXP_LIMIT - 1, 0, 0, 0),))
    K.pack(((100, 0, 0, 0), (0, 0, 0, K.EXP_LIMIT - 101)), K.RAD_LIMIT - 1, 1 << 100)
    with pytest.raises(ValueError, match="word length"):
        K.pack(((K.EXP_LIMIT - 1, 0, 0, 1),))
    with pytest.raises(ValueError, match="word length"):
        K.pack(((200, 0, 0, 0), (0, 56, 0, 0)))
    with pytest.raises(ValueError, match="radicand"):
        K.pack((), K.RAD_LIMIT)
    with pytest.raises(ValueError):
        K.pack(((1, 0, 0, 0),) * 3)


def _word_poly(ring, exps):
    return NCPoly(ring, {K.pack((exps,)): 1})


@pytest.mark.parametrize("ring", [GL, SL])
def test_products_check_the_degree_field(ring):
    # no field may wrap: the longest product that fits is exact, the
    # next one is refused
    v200, u55, u56 = (_word_poly(ring, w) for w in ((200, 0, 0, 0), (0, 0, 0, 55), (0, 0, 0, 56)))
    assert (v200 * u55).terms() == {(200, 0, 0, 55): sqrt_nat(1)}
    with pytest.raises(ValueError, match="word length 256"):
        v200 * u56
    x100 = _word_poly(ring, (0, 100, 0, 0))
    with pytest.raises(ValueError, match="word length"):
        hc.tensor(_word_poly(ring, (0, 0, 0, 156)), x100)
    assert hc.tensor(_word_poly(ring, (0, 0, 0, 155)), x100)


def test_radicands_are_checked_where_they_are_made():
    big, p53 = sqrt_nat(P47), sqrt_nat(53)
    assert big.raw() == {K.scalar_key(P47, 0): 1}
    with pytest.raises(ValueError, match="radicand"):
        sqrt_nat(P47 * 53)
    with pytest.raises(ValueError, match="radicand"):
        big * p53  # scale_into
    x, y = ncalg.gen("x", GL), ncalg.gen("y", GL)
    with pytest.raises(ValueError, match="radicand"):
        x.scaled(big) * y.scaled(p53)  # _mul
    with pytest.raises(ValueError, match="radicand"):
        hc.tensor(x.scaled(big), y.scaled(p53))  # outer_into
    with pytest.raises(ValueError, match="radicand"):
        ncalg.lincomb([(p53, x.scaled(big))], GL)
    # a shared factor keeps the product inside the field
    assert big * sqrt_nat(2 * 53) == sqrt_nat(P47 // 2 * 53).scaled(2)


def test_h_powers_past_64_bits():
    huge = H ** (1 << 70)
    assert list((huge * H).terms()) == [(1, (1 << 70) + 1, 1)]
    p = ncalg.gen("x", SL).scaled(huge * sqrt_nat(2))
    assert flatkeys.unpacked((p * p)._terms) == {(0, 2, 0, 0, 1, 1 << 71): 2}
    assert RadScalar.from_json(huge.to_json()) == huge
