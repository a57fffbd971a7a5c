"""Parsing and printing of noncommutative polynomial expressions.

Grammar (whitespace ignored):

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' natural)?
    atom     := 'x'|'u'|'v'|'y'|'D'|'h'|rational
              | 'sqrt' '(' natural ')' | '(' expr ')'
    rational := natural ('/' natural)?

'D' abbreviates the quantum determinant xy - uv - h*x*v and expands at
parse time.  Parsed input is normalized eagerly, so two spellings of the
same ring element always parse to the identical NCPoly.  The text printer
is the inverse of the parser on normal forms: parse(render_text(p)) == p.
The text and LaTeX printers are one printer with a style; it reads the
flat terms of p through ncalg.word_groups, so they list the words and
the monomials of each coefficient in the order NCPoly.to_json writes.
An exponent must be below kernel.EXP_LIMIT, the bound of the degree
field of a flat key: a longer word cannot be stored, so the parser
refuses such a power before it multiplies.  A sqrt argument must be
below kernel.RAD_LIMIT, the bound of the radicand field, so that no
argument takes longer to factor than one below 2^64.
"""

import json
import re
from typing import NamedTuple

from . import ncalg
from ._rat import Q
from .kernel import EXP_LIMIT, RAD_LIMIT
from .ncalg import NCPoly
from .scalar import H, RadScalar, sqrt_nat


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(.))")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m or m.end() == m.start():
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if ch not in "+-*^/()":
                raise ParseError(f"unexpected character {ch!r}", m.start(3))
            tokens.append((ch, ch, m.start(3)))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, what=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {what or kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> NCPoly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> NCPoly:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self) -> NCPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> NCPoly:
        value = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("int", "a natural number exponent")
            if int(tok[1]) >= EXP_LIMIT:
                raise ParseError(f"exponent {tok[1]} is not below the limit {EXP_LIMIT}", tok[2])
            value = value ** int(tok[1])
        return value

    def atom(self) -> NCPoly:
        tok = self.peek()
        kind, text, pos = tok
        if kind == "int":
            self.take()
            num = int(text)
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int", "a denominator")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator", den[2])
                return NCPoly.scalar(Q(num, int(den[1])), self.ring)
            return NCPoly.scalar(num, self.ring)
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")", "')'")
            return value
        if kind == "name":
            self.take()
            if text in ncalg.GEN_INDEX:
                return NCPoly.generator(text, self.ring)
            if text == "D":
                return ncalg.quantum_determinant(self.ring)
            if text == "h":
                return NCPoly.scalar(H, self.ring)
            if text == "sqrt":
                self.take("(", "'('")
                arg = self.take("int", "a natural number radicand")
                if int(arg[1]) >= RAD_LIMIT:
                    raise ParseError(f"sqrt argument {arg[1]} is not below the limit {RAD_LIMIT}", arg[2])
                self.take(")", "')'")
                return NCPoly.scalar(sqrt_nat(int(arg[1])), self.ring)
            raise ParseError(f"unknown symbol {text!r}", pos)
        raise ParseError(f"expected an atom, found {text!r}", pos)


def parse(text: str, ring=ncalg.SL) -> NCPoly:
    """Parse an expression into its normal form in the given ring."""
    ncalg.check_ring(ring)
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------


class _Style(NamedTuple):
    """How one output format spells a fraction, a root and a power."""

    frac: str  # format of p/q, from numerator and denominator
    root: str  # format of sqrt(r)
    power: str  # format of base^e, from base and exponent
    sep: str  # between the factors of a monomial


_TEXT = _Style("{}/{}", "sqrt({})", "{}^{}", "*")
_LATEX = _Style(r"\frac{{{}}}{{{}}}", r"\sqrt{{{}}}", "{}^{{{}}}", " ")


def _power(style, base, e):
    return base if e == 1 else style.power.format(base, e)


def _monomial(style, rad, hp, q):
    """(sign, factors) of one monomial q*sqrt(rad)*h^hp."""
    a = abs(q)
    factors = []
    if a.denominator != 1:
        factors.append(style.frac.format(a.numerator, a.denominator))
    elif a != 1:
        factors.append(str(a))
    if rad != 1:
        factors.append(style.root.format(rad))
    if hp:
        factors.append(_power(style, "h", hp))
    return ("-" if q < 0 else ""), factors


def _signed_sum(style, pieces):
    """Join (sign, factors) pairs as 'a - b + c'; no factors reads 1."""
    out = []
    for sign, factors in pieces:
        body = style.sep.join(factors) or "1"
        if not out:
            out.append(sign + body)
        else:
            out.append(("- " if sign else "+ ") + body)
    return " ".join(out) or "0"


def _scalar(monos, style):
    """The sum of (radicand, h_power, q) monomials."""
    return _signed_sum(style, (_monomial(style, *t) for t in monos))


def _render(p, style):
    pieces = []
    for exps, monos in ncalg.word_groups(p._terms):
        if len(monos) > 1:
            sign, factors = "", [f"({_scalar(monos, style)})"]
        else:
            sign, factors = _monomial(style, *monos[0])
        factors += (_power(style, g, e) for g, e in zip(ncalg.GEN_NAMES, exps) if e)
        pieces.append((sign, factors))
    return _signed_sum(style, pieces)


def scalar_text(c: RadScalar) -> str:
    """Render a RadScalar in the expression grammar."""
    return _scalar(c.terms(), _TEXT)


def render_text(p: NCPoly) -> str:
    return _render(p, _TEXT)


def render_latex(p: NCPoly) -> str:
    return _render(p, _LATEX)


def render(p: NCPoly, fmt: str = "text") -> str:
    """Render an NCPoly as text, latex or json."""
    if fmt == "text":
        return render_text(p)
    if fmt == "latex":
        return render_latex(p)
    if fmt == "json":
        return json.dumps(p.to_json())
    raise ValueError(f"unknown format {fmt!r}")
