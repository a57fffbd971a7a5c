import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from slh2 import kernel
from slh2._rat import Q, qstr
from slh2.exprio import scalar_text
from slh2.kernel import sqrt_split
from slh2.scalar import H, ONE, ZERO, RadScalar, rational, sqrt_nat


def test_add_cancellation():
    assert sqrt_nat(2) + H + (-sqrt_nat(2)) == H


def test_add_identity():
    s = sqrt_nat(3) * H + rational(5, 7)
    assert ZERO + s == s


def test_add_plain():
    assert (ONE + H) + (ONE - H) == rational(2)


def test_mul_sqrt2_squared():
    assert sqrt_nat(2) * sqrt_nat(2) == rational(2)


def test_mul_radical_reduction():
    assert sqrt_nat(6) * sqrt_nat(3) == sqrt_nat(2).scaled(3)


def test_mul_difference_of_squares():
    assert (ONE + H) * (ONE - H) == ONE - H * H


@pytest.mark.parametrize("n,s,r", [(8, 2, 2), (0, 0, 1), (12, 2, 3), (1, 1, 1), (49, 7, 1)])
def test_sqrt_nat(n, s, r):
    assert sqrt_split(n) == (s, r)
    assert sqrt_nat(n) == sqrt_nat(r).scaled(s) if s else sqrt_nat(n).is_zero()


def _trial_division(n):
    """sqrt_split by trial division with every d up to the square root of
    the cofactor left."""
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


def test_sqrt_split_matches_trial_division():
    for n in range(20000):
        assert sqrt_split(n) == _trial_division(n), n
    rng = random.Random(1)
    # the square, the cube and the product of primes near 10^6, around
    # the last trial divisor
    edges = [999983**2, 1000003**2, 999983 * 1000003, 101**3, 2 * 101**3, 7 * 999983**2]
    for n in edges + [rng.randrange(1, 10**12) for _ in range(300)]:
        assert sqrt_split(n) == _trial_division(n), n


def test_sqrt_split_near_the_radicand_limit():
    # the largest primes below 2^64 and 2^32
    p64, p32, q32 = 2**64 - 59, 2**32 - 5, 2**32 - 17
    assert sqrt_split(p64) == (1, p64)
    assert sqrt_split(p32 * p32) == (p32, 1)
    assert sqrt_split(p32 * q32) == (1, p32 * q32)
    assert sqrt_split(12 * p32 * p32) == (2 * p32, 3)


def test_from_json_refuses_a_radicand_past_its_field():
    big = {"terms": [{"rad": kernel.RAD_LIMIT, "poly": [{"h": 0, "g": 0, "q": "1/1"}]}]}
    with pytest.raises(ValueError, match="radicand"):
        RadScalar.from_json(big)
    big["terms"][0]["rad"] = kernel.RAD_LIMIT - 59
    assert RadScalar.from_json(big) == sqrt_nat(kernel.RAD_LIMIT - 59)


def test_sqrt_multiplicative_upto_100():
    for a in range(101):
        for b in range(101):
            assert sqrt_nat(a) * sqrt_nat(b) == sqrt_nat(a * b)


def test_specialize_h_zero():
    s = ONE + H.scaled(2) + H * H
    assert s.specialize(h_value=0) == ONE


def test_specialize_h_half():
    assert (H * sqrt_nat(2)).specialize(h_value=Q(1, 2)) == sqrt_nat(2).scaled(
        Q(1, 2)
    )


# randomized ring axioms ------------------------------------------------

_rads = st.sampled_from([1, 2, 3, 5, 6, 7, 10])
_coef = st.integers(-4, 4).map(Q)


@st.composite
def radscalars(draw):
    out = ZERO
    for _ in range(draw(st.integers(0, 3))):
        q = draw(_coef)
        term = sqrt_nat(draw(_rads)).scaled(q)
        term = term * H ** draw(st.integers(0, 2))
        out = out + term
    return out


def _assert_int_rule(s):
    # the int rule: a value is stored as an int exactly when it is integral
    for q in s.raw().values():
        assert (type(q) is int) == (q.denominator == 1), (s.raw(), q)


@settings(max_examples=120, deadline=None)
@given(radscalars(), radscalars(), radscalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + ZERO == a
    assert a - a == ZERO
    half = rational(1, 2)
    for s in (
        a,
        a + b,
        a - b,
        -a,
        a * b,
        (a * b) * c,
        a * half + a * half,
        a.scaled(Q(1, 2)),
        a.specialize(0),
        a.specialize(Q(1, 2)),
    ):
        _assert_int_rule(s)


def test_constructors_hold_ints():
    half = Q(1, 2)
    for s in (
        ONE,
        H,
        sqrt_nat(8),
        sqrt_nat(9),
        RadScalar.from_rational(2),
        RadScalar.from_rational(Q(4, 2)),
        RadScalar.coerce(Q(-3)),
        rational(6, 3),
        H * H,
        H + H,
        sqrt_nat(2) * sqrt_nat(6),
        H.scaled(Q(2)),
        sqrt_nat(2).scaled(Q(3, 2)).scaled(2),
        (ONE + H * H.scaled(half)).specialize(2),
        (H.scaled(half) + H).specialize(Q(2, 3)),
    ):
        _assert_int_rule(s)
    assert [type(q) for q in (H * H).raw().values()] == [int]
    assert list(sqrt_nat(8).terms()) == [(2, 0, 2)] and type(list(sqrt_nat(8).terms())[0][2]) is int
    assert type(ZERO.rational_value()) is int


@settings(max_examples=80, deadline=None)
@given(radscalars(), radscalars())
def test_equality_is_componentwise(a, b):
    # sqrt(r) for distinct squarefree r are linearly independent over
    # Q(h), so equality must coincide with zero difference termwise
    assert (a == b) == (a - b).is_zero()
    assert (a == b) == (a.raw() == b.raw())
    # structural equality relies on the canonical form: squarefree
    # radicands and no zero coefficient
    for c in (a + b, a * b):
        for r, _, q in c.terms():
            assert sqrt_split(r) == (1, r) and q


@settings(max_examples=60, deadline=None)
@given(radscalars())
def test_json_roundtrip(s):
    assert RadScalar.from_json(s.to_json()) == s


def test_json_shape():
    s = sqrt_nat(2).scaled(Q(3, 2)) + H
    obj = s.to_json()
    assert obj == {
        "terms": [
            {"rad": 1, "poly": [{"h": 1, "g": 0, "q": "1/1"}]},
            {"rad": 2, "poly": [{"h": 0, "g": 0, "q": "3/2"}]},
        ]
    }
    # the g field is always 0: a scalar has no power of g
    obj["terms"][0]["poly"][0]["g"] = 1
    with pytest.raises(ValueError):
        RadScalar.from_json(obj)


def test_rationals_as_fraction_text():
    assert qstr(Q(-3, 6)) == "-1/2"
    assert qstr(Q(5)) == "5/1"


def test_pow():
    assert H ** 3 == H * H * H
    assert (sqrt_nat(2) + ONE) ** 2 == rational(3) + sqrt_nat(2).scaled(2)
    with pytest.raises(ValueError):
        H ** -1


def test_power_makes_only_the_products_it_needs(monkeypatch):
    # square-and-multiply from the lowest set bit: s ** 8 is three squares
    s = sqrt_nat(2) + H
    calls = []
    scale_into = kernel.scale_into

    def spy(*args):
        calls.append(1)
        return scale_into(*args)

    for k, want in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        ref = ONE
        for _ in range(k):
            ref = ref * s
        monkeypatch.setattr(kernel, "scale_into", spy)
        calls.clear()
        value = s ** k
        monkeypatch.setattr(kernel, "scale_into", scale_into)
        assert (k, len(calls)) == (k, want)
        assert value == ref


def test_rational_value():
    assert rational(3, 4).rational_value() == Q(3, 4)
    assert ZERO.rational_value() == 0
    with pytest.raises(ValueError):
        (H + ONE).rational_value()


def test_repr_is_scalar_text():
    # repr has no printer of its own: it is the expression-grammar text
    rng = random.Random(7)
    for _ in range(500):
        c = ZERO
        for _ in range(rng.randint(0, 4)):
            q = Q(rng.randint(-6, 6), rng.randint(1, 5))
            term = sqrt_nat(rng.choice([1, 2, 3, 4, 6, 8, 10])).scaled(q)
            c = c + term * H ** rng.randint(0, 3)
        assert repr(c) == scalar_text(c)


def test_unit_coercions_are_one():
    assert RadScalar.coerce(1) is ONE
    assert RadScalar.coerce(Q(1)) is ONE
    assert rational(1) is ONE
    assert rational(2, 2) is ONE
    assert RadScalar.coerce(0) is ZERO


def test_hash_consistency():
    a = sqrt_nat(8)
    b = sqrt_nat(2).scaled(2)
    assert a == b and hash(a) == hash(b)


def test_rational_scalars_hash_like_their_value():
    # equal values must hash equally, or a set holds one value twice
    assert ONE == 1 == Q(1)
    assert hash(ONE) == hash(1) == hash(Q(1))
    assert len({ONE, 1, Q(1)}) == 1
    assert len({ZERO, 0}) == 1
    for q in (Q(3, 4), Q(-5), Q(7, 2)):
        a = RadScalar.coerce(q)
        assert a == q and hash(a) == hash(q)
        assert len({a, q}) == 1
    assert len({sqrt_nat(2), 2, H, ONE + H}) == 4


def test_sqrt_of_a_square_is_rational():
    assert sqrt_nat(1) is ONE
    assert sqrt_nat(0) is ZERO
    assert sqrt_nat(9) == 3 and sqrt_nat(9).is_rational()


# the raw kernel never mutates its arguments ----------------------------


def _rand_rad(rng):
    """Random 0-slot terms as {(radicand, h_power): q}; _packed makes
    kernel terms of them."""
    return {
        (rng.choice([1, 2, 3, 5, 6, 10]), rng.randint(0, 3)):
            Q(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5))
        for _ in range(rng.randint(0, 6))
    }


def _packed(terms):
    return {kernel.scalar_key(r, i): q for (r, i), q in terms.items()}


def _unpacked(terms):
    return {(kernel.radicand(k), kernel.h_power(k)): q for k, q in terms.items()}


def test_inputs_never_mutated():
    rng = random.Random(3)
    for _ in range(200):
        a, b = _packed(_rand_rad(rng)), _packed(_rand_rad(rng))
        snap_a, snap_b = dict(a), dict(b)
        kernel.rad_add(a, b)
        kernel.rad_mul(a, b)
        kernel.rad_sub(a, b)
        assert a == snap_a and b == snap_b


def _reference_rad_mul(a, b):
    """kernel.rad_mul as it was written before it became the 0-slot
    scale_into: its own loop over term pairs, by the radicand gcd rule."""
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


def test_rad_mul_matches_the_reference_loop():
    rng = random.Random(11)
    for _ in range(500):
        a, b = _rand_rad(rng), _rand_rad(rng)
        got = kernel.rad_mul(_packed(a), _packed(b))
        assert _unpacked(got) == _reference_rad_mul(a, b)
        for q in got.values():
            assert q and (type(q) is int) == (q.denominator == 1)
