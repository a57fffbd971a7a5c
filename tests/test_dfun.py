import random

import pytest

from slh2 import dfun
from slh2.dfun import CLASSICAL, JACOBI, ORDERED1, ORDERED2, dfunc, dmatrix, jacobi_poly
from slh2.exprio import parse
from slh2.ncalg import GL, SL, NCPoly, gen
from slh2.rep import magnetics
from slh2.scalar import H, rational


def test_jacobi_degree_zero():
    one = NCPoly.one(SL)
    z = parse("v*u", SL)
    assert jacobi_poly(0, 3, 1, z) == one


def test_jacobi_degree_one():
    z = parse("-u*v", SL)
    assert jacobi_poly(1, 0, 0, z) == parse("1 + 2*u*v", SL)


def test_jacobi_scalar_series_value():
    # 1 - 6z + 6z^2 at z = 1/2 sums to -1/2
    z = NCPoly.scalar(rational(1, 2), SL)
    got = jacobi_poly(2, 0, 0, z)
    assert got == NCPoly.scalar(rational(-1, 2), SL)


def test_jacobi_rejects_negative_alpha():
    with pytest.raises(ValueError):
        jacobi_poly(1, -1, 0, parse("u", SL))
    with pytest.raises(ValueError):
        jacobi_poly(-1, 0, 0, parse("u", SL))


def test_dmatrix_half_is_generator_matrix():
    d = dmatrix(1, ORDERED1, SL)
    want = [["x", "u"], ["v", "y"]]
    for i in range(2):
        for j in range(2):
            assert d.entries[i][j] == parse(want[i][j], SL)


def test_dfunc_j1_center_sl():
    assert dfunc(2, 0, 0, ORDERED1, SL) == parse("1 + 2*u*v", SL)
    assert dfunc(2, 0, 0, ORDERED1, SL) == parse("D + 2*u*v", SL)


def test_dfunc_j1_corner():
    assert dfunc(2, 2, 2, ORDERED1, SL) == parse("x^2 + h*x*v", SL)


def test_dmatrix_j1_full_display():
    want = [
        ["x^2 + h*x*v", "sqrt(2)*(u*x + h*u*v)", "u^2 + h*(u*x + u*y + h*u*v)"],
        ["sqrt(2)*x*v", "D + 2*u*v", "sqrt(2)*(u*y + h*u*v)"],
        ["v^2", "sqrt(2)*y*v", "y^2 + h*y*v"],
    ]
    d = dmatrix(2, ORDERED1, SL)
    for i in range(3):
        for j in range(3):
            assert d.entries[i][j] == parse(want[i][j], SL), (i, j)


def test_dmatrix_spin_zero():
    d = dmatrix(0, ORDERED1, SL)
    assert d.entries == [[NCPoly.one(SL)]]


def test_gl_j1_center_keeps_determinant():
    # in GL the same entry is D + 2uv with D not reduced to 1
    got = dfunc(2, 0, 0, ORDERED1, GL)
    assert got == parse("D + 2*u*v", GL)
    assert got != parse("1 + 2*u*v", GL)


@pytest.mark.parametrize("twoj", range(0, 7))
def test_scheme_equivalence_ordered(twoj):
    for ring in (SL, GL):
        a = dmatrix(twoj, ORDERED1, ring)
        b = dmatrix(twoj, ORDERED2, ring)
        assert a.entries == b.entries, (twoj, ring)


@pytest.mark.parametrize("twoj", range(0, 9))
def test_scheme_equivalence_jacobi(twoj):
    a = dmatrix(twoj, ORDERED1, SL)
    c = dmatrix(twoj, JACOBI, SL)
    assert a.entries == c.entries, twoj


def test_jacobi_covers_all_four_sign_cases():
    # at 2j = 5 every sign case of the Jacobi form is exercised, with
    # overlaps on the boundaries m' + m = 0 and m' = m
    seen = set()
    for twomp in magnetics(5):
        for twom in magnetics(5):
            seen.add((twomp + twom >= 0, twomp >= twom))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_jacobi_requires_sl():
    with pytest.raises(ValueError):
        dfunc(2, 0, 0, JACOBI, GL)


def test_dmatrix_rejects_negative_spin():
    with pytest.raises(ValueError):
        dmatrix(-1)


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        dfunc(2, 4, 0, ORDERED1, SL)
    with pytest.raises(ValueError):
        dfunc(2, 1, 0, ORDERED1, SL)  # parity
    with pytest.raises(ValueError):
        dfunc(-2, 0, 0, ORDERED1, SL)


def test_unknown_scheme():
    with pytest.raises(ValueError):
        dfunc(1, 1, 1, "sorted", SL)


@pytest.mark.parametrize("twoj", range(0, 6))
def test_classical_limit(twoj):
    cl = dmatrix(twoj, CLASSICAL, SL)
    o1 = dmatrix(twoj, ORDERED1, SL)
    for i in range(twoj + 1):
        for j in range(twoj + 1):
            assert o1.entries[i][j].specialize(h_value=0) == cl.entries[i][j]


def test_classical_gl_ring():
    cl = dmatrix(2, CLASSICAL, GL)
    o1 = dmatrix(2, ORDERED1, GL)
    for i in range(3):
        for j in range(3):
            assert o1.entries[i][j].specialize(h_value=0) == cl.entries[i][j]


@pytest.mark.parametrize("twoj", range(0, 5))
def test_top_row_has_no_y_classically(twoj):
    # m' = j forces the y-exponent pattern N = 0 in the undeformed form
    for twom in magnetics(twoj):
        p = dfunc(twoj, twoj, twom, CLASSICAL, GL)
        for (a, b, c, d) in p.terms():
            assert c == 0


def test_counit_image_is_identity_matrix():
    from slh2.hopfcheck import counit
    from slh2.scalar import ONE, ZERO

    d = dmatrix(3, ORDERED1, SL)
    for i, twomp in enumerate(magnetics(3)):
        for j, twom in enumerate(magnetics(3)):
            assert counit(d.entries[i][j]) == (ONE if i == j else ZERO)


def test_matrix_output_shapes():
    d = dmatrix(1, ORDERED1, SL)
    obj = d.to_json()
    assert obj["twoj"] == 1 and obj["ring"] == "sl"
    assert len(obj["entries"]) == 2
    tex = d.to_latex()
    assert tex.startswith("\\begin{pmatrix}") and "x & u" in tex
    txt = d.to_text()
    assert "D[1/2,1/2] = x" in txt
    assert d.entry(1, -1) == parse("u", SL)


# The ordered terms built left to right from 1, one factor at a time, as
# the closed forms read: the oracle for the term trie of dfun.


def _lin(ring, **coefs):
    out = NCPoly.zero(ring)
    for name, c in coefs.items():
        out = out + gen(name, ring).scaled(c)
    return out


def _x_run(term, ts):
    for t in ts:
        term = term * _lin(term.ring, x=1, v=H.scaled(t))
    return term


def _y_run(term, ts):
    for t in ts:
        term = term * _lin(term.ring, y=1, v=H.scaled(-t))
    return term


def _v_run(term, n):
    for _ in range(n):
        term = term * gen("v", term.ring)
    return term


def _oracle_ordered1(K, L, M, N, ring):
    term = _v_run(_x_run(NCPoly.one(ring), range(K)), L)
    for i in range(M, 0, -1):
        term = term * _lin(
            ring,
            u=1,
            x=H.scaled(-(K + L - M + i)),
            y=H.scaled(K - L + M - i),
            v=(H * H).scaled(-(K * K - (L - M + i) ** 2)),
        )
    return _y_run(term, (K + L - M - t for t in range(N)))


def _oracle_ordered2(K, L, M, N, ring):
    term = NCPoly.one(ring)
    for t in range(M):
        term = term * _lin(ring, u=1, x=H.scaled(t), y=H.scaled(t), v=(H * H).scaled(t * t))
    term = _x_run(term, range(M, M + K))
    return _v_run(_y_run(term, (K - M - t for t in range(N))), L)


_ORACLES = {ORDERED1: _oracle_ordered1, ORDERED2: _oracle_ordered2}


def _nodes(degree):
    return [
        (K, L, M, degree - K - L - M)
        for K in range(degree + 1)
        for L in range(degree + 1 - K)
        for M in range(degree + 1 - K - L)
    ]


def _cold():
    dfun._TERM_MEMO.clear()
    dfunc.cache_clear()


@pytest.fixture
def cold_terms():
    """An empty term trie and dfunc cache at the start of the test."""
    _cold()


@pytest.mark.parametrize("scheme", [ORDERED1, ORDERED2])
@pytest.mark.parametrize("ring", [SL, GL])
def test_term_trie_matches_left_to_right_oracle(scheme, ring, cold_terms):
    nodes = [klmn for degree in range(8) for klmn in _nodes(degree)]
    assert len(nodes) == 330
    # a seeded order, so that parents are found stored, dropped and absent
    random.Random(5).shuffle(nodes)
    for klmn in nodes:
        assert dfun._term(scheme, klmn, ring) == _ORACLES[scheme](*klmn, ring), klmn


@pytest.mark.parametrize("scheme", [ORDERED1, ORDERED2])
def test_term_trie_out_of_order_builds_equal_fresh_builds(scheme, cold_terms):
    fresh = {}
    for twoj in (3, 7):
        _cold()
        fresh[twoj] = dmatrix(twoj, scheme, SL).entries
    _cold()
    for twoj in (6, 3, 7):
        got = dmatrix(twoj, scheme, SL).entries
        if twoj in fresh:
            assert got == fresh[twoj], twoj


def test_term_trie_keeps_the_last_spin_leaves(cold_terms):
    # each degree-5 term is dropped once its degree-6 children are stored;
    # the degree-6 terms that dmatrix(6) sums stay, for dmatrix(13/2)
    dmatrix(6, ORDERED1, SL)
    want = {(ORDERED1, SL) + klmn for klmn in _nodes(6)}
    assert len(want) == 84
    assert set(dfun._TERM_MEMO) == want
    children = dfun._TRIE[ORDERED1][1]
    for (scheme, ring, *klmn), (term, pending) in dfun._TERM_MEMO.items():
        assert term == _oracle_ordered1(*klmn, ring)
        assert pending == children(*klmn)


@pytest.mark.parametrize("scheme", [ORDERED1, ORDERED2])
def test_term_trie_parent_counts(scheme):
    # every node of degree d + 1 has one parent of degree d, and each node
    # of degree d has as many children as _TRIE says
    parent_of, children = dfun._TRIE[scheme]
    for degree in range(6):
        counts = dict.fromkeys(_nodes(degree), 0)
        for klmn in _nodes(degree + 1):
            parent, _ = parent_of(*klmn, SL)
            counts[parent] += 1
        assert counts == {klmn: children(*klmn) for klmn in counts}
