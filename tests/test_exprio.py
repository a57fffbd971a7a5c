import json
import random

import pytest

from slh2.exprio import ParseError, parse, render, render_latex, render_text
from slh2.ncalg import GL, SL, NCPoly, gen, normal_form
from slh2.scalar import H, rational, sqrt_nat


def test_parse_sl_determinant():
    assert parse("x*y - u*v - h*x*v", SL) == NCPoly.one(SL)


def test_parse_single_generator():
    assert parse("x", GL) == gen("x", GL)


def test_parse_is_ring_aware():
    # two spellings of the same element parse identically
    assert parse("v*x - h*v^2", GL) == normal_form([("xv", 1)], GL)
    assert parse("x*y", SL) == parse("1 + v*u - h*v*y", SL)
    assert parse("u*v", GL) == parse("v*u - h*x*v - h*v*y", GL)


def test_parse_d_symbol():
    assert parse("D", SL) == NCPoly.one(SL)
    assert parse("D*x - x*D", GL).is_zero()


def test_parse_scalars():
    assert parse("3/2", GL) == NCPoly.scalar(rational(3, 2), GL)
    assert parse("sqrt(8)", GL) == NCPoly.scalar(sqrt_nat(2).scaled(2), GL)
    assert parse("2*h^2", GL) == NCPoly.scalar((H * H).scaled(2), GL)
    with pytest.raises(ParseError) as err:
        parse("2*h^2*g", GL)
    assert err.value.pos == 6


def test_parse_parens_and_signs():
    assert parse("-(x - y)", GL) == parse("y - x", GL)
    assert parse("x*(y + 1)", GL) == parse("x*y + x", GL)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", GL)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse("q", GL)
    with pytest.raises(ParseError):
        parse("x^", GL)
    with pytest.raises(ParseError):
        parse("x^(2)", GL)  # exponent must be a natural number literal
    with pytest.raises(ParseError):
        parse("x^-2", GL)


def _random_poly(rng, ring):
    out = NCPoly.zero(ring)
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randrange(4) for _ in range(rng.randint(0, 3)))
        coef = rational(rng.randint(-5, 5), rng.randint(1, 4))
        coef = coef * sqrt_nat(rng.choice([1, 1, 2, 3])) * H ** rng.randint(0, 2)
        out = out + normal_form([(w, coef)], ring)
    return out


def test_roundtrip_randomized_1000():
    rng = random.Random(42)
    for i in range(1000):
        ring = GL if i % 2 else SL
        p = _random_poly(rng, ring)
        assert parse(render_text(p), ring) == p


def test_render_zero():
    assert render_text(NCPoly.zero(GL)) == "0"


def test_render_constant_plus_word():
    p = parse("1 + 2*v*u", SL)
    assert render_text(p) == "1 + 2*v*u"


def test_render_multi_monomial_coefficient():
    p = parse("(1 + h^2)*x", GL)
    text = render_text(p)
    assert text == "(1 + h^2)*x"
    assert parse(text, GL) == p


def test_latex_style():
    # exponents in braces, juxtaposition with spaces
    p = parse("x^2 + h*x*v", GL)
    assert render_latex(p) == "-h^{2} v^{2} + h v x + x^{2}"
    assert render_latex(parse("sqrt(2)*y*u + 3/2*v", GL)) == "\\frac{3}{2} v + \\sqrt{2} y u"


def test_latex_of_normal_input():
    # an entry given already in normal order prints verbatim
    p = parse("x^2", GL)
    assert render_latex(p) == "x^{2}"
    assert render_latex(parse("v*x", GL)) == "v x"


def test_render_json_mode():
    p = parse("x", GL)
    obj = json.loads(render(p, "json"))
    assert obj["ring"] == "gl"
    assert obj["terms"][0]["word"] == "x"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(parse("x", GL), "html")
