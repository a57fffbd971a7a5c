import itertools
import random

import pytest

from slh2 import cli, dfun, fock, ncalg
from slh2.dfun import CLASSICAL, JACOBI, ORDERED1, ORDERED2, dfunc, dmatrix, jacobi_poly
from slh2.exprio import parse
from slh2.ncalg import GL, SL, NCPoly, gen, normal_form
from slh2.rep import magnetics
from slh2.scalar import ONE, H, rational


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


@pytest.mark.parametrize("twomp", [1, 4])
def test_entry_rejects_an_invalid_magnetic_index(twomp):
    # wrong parity, then |m'| > j: the checks of dfunc, not a wrong entry
    with pytest.raises(ValueError):
        dmatrix(2).entry(twomp, 0)


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


def _assert_factor(got, want):
    assert got == want
    assert all(type(q) is int for q in got._terms.values()), got._terms


@pytest.mark.parametrize("ring", [SL, GL])
def test_linear_factors_equal_sums_of_scaled_generators(ring):
    # the factors of dfun are flat terms; _lin above sums the generators
    # scaled by RadScalar coefficients, as they were built before
    hh = H * H
    for t in range(-8, 9):
        _assert_factor(dfun._x(ring, t), _lin(ring, x=1, v=H.scaled(t)))
        _assert_factor(dfun._y(ring, t), _lin(ring, y=1, v=H.scaled(-t)))
        _assert_factor(dfun._u(ring, t), _lin(ring, u=1, x=H.scaled(t), y=H.scaled(t), v=hh.scaled(t * t)))
    for K, L, s in itertools.product(range(7), repeat=3):
        parent, factor = dfun._ordered1_parent(K, L, s + 1, 0, ring)
        assert parent == (K, L, s, 0)
        want = _lin(
            ring, u=1, x=H.scaled(s - K - L), y=H.scaled(K - L + s), v=hh.scaled((L - s) ** 2 - K * K)
        )
        _assert_factor(factor, want)
    for parent_of in (dfun._ordered1_parent, dfun._ordered2_parent):
        _assert_factor(parent_of(1, 2, 0, 0, ring)[1], gen("v", ring))


@pytest.mark.parametrize("ring", [SL, GL])
def test_v_run_equals_products_by_v(ring):
    terms = [
        NCPoly.one(ring),
        NCPoly.zero(ring),
        parse("(x + h*v)^2*u - sqrt(2)*y + 1/3", ring),
        parse("u*y*x - h^2*sqrt(6)*x*x", ring),
        dfunc(4, 2, 0, ORDERED1, ring),
    ]
    for term in terms:
        for n in range(6):
            assert dfun._v_run(term, n) == _v_run(term, n), (term, n)


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
    """An empty term trie and dfunc cache at the start and at the end of
    the test."""
    _cold()
    yield
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


def _kept_leaves(twojs, ring):
    """The term memo after dmatrix(twoj, ORDERED1, ring) for each twoj in
    turn from a cold start, with each term checked against the oracle."""
    _cold()
    for twoj in twojs:
        dmatrix(twoj, ORDERED1, ring)
    for (scheme, r, *klmn), (term, pending) in dfun._TERM_MEMO.items():
        assert term == _oracle_ordered1(*klmn, r)
    return {tuple(k[2:]): pending for k, (term, pending) in dfun._TERM_MEMO.items()}


def test_term_trie_keeps_the_last_spin_leaves(cold_terms):
    # SL builds the entries with m' + m = K - N >= 0 alone: each degree-5
    # term is dropped once its degree-6 children with K >= N are stored,
    # and those that dmatrix(6) sums stay, for dmatrix(13/2), each counted
    # against the degree-7 nodes with K >= N that it is the parent of; a
    # node with K == N > 0 has none and is not kept
    parent_of, children = dfun._TRIE[ORDERED1]
    upper7 = [klmn for klmn in _nodes(7) if klmn[0] >= klmn[3]]
    want = {}
    for klmn in _nodes(6):
        if klmn[0] >= klmn[3]:
            pending = sum(parent_of(*child, SL)[0] == klmn for child in upper7)
            assert pending == children(*klmn, SL, 1) == children(*klmn, GL, 1) - (klmn[0] == klmn[3])
            if pending:
                want[klmn] = pending
    assert len(want) == 41
    assert _kept_leaves([6], SL) == want
    assert _kept_leaves(range(7), SL) == want


def test_term_trie_keeps_the_last_spin_leaves_gl(cold_terms):
    # GL lifts each entry from its SL entry, so the GL matrices leave the
    # SL trie of the SL twin above and no GL node
    want = _kept_leaves([6], SL)
    assert len(want) == 41
    assert _kept_leaves([6], GL) == want
    assert _kept_leaves(range(7), GL) == want
    assert {r for _, r, *_ in dfun._TERM_MEMO} == {SL}


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
        assert counts == {klmn: children(*klmn, GL, 1) for klmn in counts}


@pytest.mark.parametrize("scheme", [ORDERED1, ORDERED2])
def test_term_trie_sl_counts_the_children_that_lead_to_upper_entries(scheme):
    # in SL a node counts the children with an upper node (K >= N) among
    # their descendants at `ahead` degrees above the node
    parent_of, children = dfun._TRIE[scheme]
    parent = {klmn: parent_of(*klmn, SL)[0] for degree in range(1, 8) for klmn in _nodes(degree)}

    def ancestors(klmn):
        out = []
        while any(klmn):
            out.append(klmn)
            klmn = parent[klmn]
        return out

    for degree in range(5):
        for ahead in (1, 2, 3):
            lead = {}
            for z in _nodes(degree + ahead):
                if z[0] >= z[3]:
                    for a in ancestors(z):
                        if sum(a) == degree + 1:
                            lead.setdefault(parent[a], set()).add(a)
            for klmn in _nodes(degree):
                if klmn[0] >= klmn[3]:
                    want = len(lead.get(klmn, ()))
                    assert children(*klmn, SL, ahead) == want, (klmn, ahead)


# The SL half build: dfunc takes each entry with m' + m < 0 as sigma (swap
# x and y) of the entry D^j_{-m,-m'}; here the closed form of each such
# entry is built and compared with that relabeling.


def _relabel_mismatches(scheme, max_twoj, partner, swap):
    """(lower entries compared, mismatches) of the closed form against
    swap(dfunc(partner(m', m))) over the SL entries with m' + m < 0."""
    seen = bad = 0
    for twoj in range(max_twoj + 1):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                if twomp + twom < 0:
                    seen += 1
                    got = swap(dfunc(twoj, *partner(twomp, twom), scheme, SL))
                    bad += got != dfun._formula(twoj, twomp, twom, scheme, SL)
    return seen, bad


def _antitransposed(twomp, twom):
    return -twom, -twomp


@pytest.mark.parametrize("scheme, max_twoj, entries", [
    (ORDERED1, 10, 220), (ORDERED2, 8, 120), (JACOBI, 8, 120), (CLASSICAL, 8, 120),
])
def test_lower_half_formula_equals_sigma_relabeling(scheme, max_twoj, entries, cold_terms):
    assert _relabel_mismatches(scheme, max_twoj, _antitransposed, NCPoly.swap_xy) == (entries, 0)
    _cold()


def test_lower_half_comparison_fails_on_a_wrong_relabeling(cold_terms):
    # the negated indices in place of the antitransposed ones, and the
    # partner entry without the x <-> y swap, each give mismatches
    seen, bad = _relabel_mismatches(ORDERED1, 4, lambda mp, m: (-mp, -m), NCPoly.swap_xy)
    assert seen == 20 and bad > 0
    seen, bad = _relabel_mismatches(ORDERED1, 4, _antitransposed, lambda p: p)
    assert seen == 20 and bad > 0
    _cold()


# GL: dfunc takes each ordered entry as the lift of its SL entry through
# powers of the quantum determinant (ncalg.lift_to_gl); here the closed
# form evaluated in GL is compared with it.


def _gl_lift_mismatches(scheme, max_twoj):
    """(entries compared, mismatches) of dfunc in GL against the closed
    form in GL, from a cold start."""
    _cold()
    seen = bad = 0
    for twoj in range(max_twoj + 1):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                seen += 1
                bad += dfunc(twoj, twomp, twom, scheme, GL) != dfun._formula(twoj, twomp, twom, scheme, GL)
    return seen, bad


@pytest.mark.parametrize("scheme, max_twoj, entries", [(ORDERED1, 8, 285), (ORDERED2, 6, 140)])
def test_gl_entries_equal_the_closed_form(scheme, max_twoj, entries, cold_terms):
    assert _gl_lift_mismatches(scheme, max_twoj) == (entries, 0)


def _without_h_xv(ring):
    return normal_form([("xy", ONE), ("uv", -ONE)], ring)


def _dropping_a_power(lift):
    """lift with one power of the determinant too few on each word shorter
    than the degree."""
    def dropped(p, degree):
        top = NCPoly.from_terms(SL, {w: c for w, c in p.terms().items() if sum(w) == degree})
        return lift(top, degree) + lift(p - top, max(degree - 2, 0))

    return dropped


@pytest.mark.parametrize("patch", [
    ("quantum_determinant", lambda: _without_h_xv),
    ("lift_to_gl", lambda: _dropping_a_power(ncalg.lift_to_gl)),
], ids=["determinant-without-h-xv", "dropped-power"])
def test_gl_lift_checks_fail_on_a_wrong_lift(patch, monkeypatch, cold_terms):
    # both the closed form and the Fock oracle see each wrong lift
    monkeypatch.setattr(ncalg, patch[0], patch[1]())
    seen, bad = _gl_lift_mismatches(ORDERED1, 4)
    assert seen == 55 and bad > 0
    assert not fock.twisted_dop_check(4, 3).ok


def test_fock_oracle_records_an_inhomogeneous_entry_as_failing(monkeypatch, cold_terms, capsys):
    # with a power dropped, the entries that keep words shorter than 2j
    # are failing cases, and `slh2 verify --suite fock` exits 1, not 2
    monkeypatch.setattr(ncalg, "lift_to_gl", _dropping_a_power(ncalg.lift_to_gl))
    mixed = [
        {"twoj": twoj, "twomp": twomp, "twom": twom}
        for twoj in range(3)
        for twomp in magnetics(twoj)
        for twom in magnetics(twoj)
        if {sum(w) for w in dfunc(twoj, twomp, twom, ORDERED1, GL).terms()} != {twoj}
    ]
    rep = fock.twisted_dop_check(2, 3)
    assert mixed and [c["params"] for c in rep.cases if not c["pass"]] == mixed
    assert cli.run(["verify", "--suite", "fock", "--nmax", "2"]) == 1


def test_lifted_gl_entries_pass_the_fock_oracle(cold_terms):
    rep = fock.twisted_dop_check(4, 3)
    assert rep.ok and len(rep.cases) == 55
