import hashlib
import json
from itertools import product

import pytest

from slh2 import hopfcheck as hc
from slh2.dfun import dmatrix
from slh2.exprio import parse
from slh2.ncalg import (
    GL,
    SL,
    GL_RULES,
    SL_RULES,
    NCPoly,
    gen,
    normal_form,
    quantum_determinant,
)
from slh2.kernel import sqrt_split
from slh2._rat import Q
from slh2.scalar import H, ONE, ZERO, sqrt_nat


def test_tensor_sums_store_ints():
    half = Q(1, 2)
    for ring in (GL, SL):
        x, y = gen("x", ring), gen("y", ring)
        t = hc.TensorPoly.of(x.scaled(half), x.scaled(2))
        assert t.terms == {((0, 1, 0, 0), (0, 1, 0, 0), 1, 0): 1}
        assert [type(q) for q in t.terms.values()] == [int]
        c = hc.counit(x.scaled(half) + y.scaled(half))
        assert c == ONE and [type(q) for q in c.raw().values()] == [int]
        eps = hc.TensorPoly.of(x.scaled(half) + y.scaled(half), x).apply_counit(0)
        assert [type(q) for q in eps.terms.values()] == [int]
        p = parse("1/2*x*y + 1/2*u*v - 1/3*h*x*v + 3/2*v", ring)
        delta = hc.coproduct(p)
        for tp in (delta, delta.apply_coproduct(1), delta.scaled(Q(2, 3))):
            assert all((type(q) is int) == (q.denominator == 1) for q in tp.terms.values())


def test_coproduct_on_generators():
    x, u, v, y = (gen(n, GL) for n in "xuvy")
    assert hc.coproduct(x) == hc.TensorPoly.of(x, x) + hc.TensorPoly.of(u, v)
    assert hc.coproduct(u) == hc.TensorPoly.of(x, u) + hc.TensorPoly.of(u, y)
    assert hc.coproduct(v) == hc.TensorPoly.of(v, x) + hc.TensorPoly.of(y, v)
    assert hc.coproduct(y) == hc.TensorPoly.of(v, u) + hc.TensorPoly.of(y, y)


def test_coproduct_of_unit():
    one = NCPoly.one(SL)
    assert hc.coproduct(one) == hc.TensorPoly.of(one, one)


def test_coproduct_is_algebra_map():
    for ring in (GL, SL):
        for g1, g2 in product("vxyu", repeat=2):
            p, q = gen(g1, ring), gen(g2, ring)
            assert hc.coproduct(p * q) == hc.coproduct(p) * hc.coproduct(q)


def test_coproduct_respects_relations():
    # Delta and eps of both sides of every rewrite rule agree
    for ring, rules in ((GL, GL_RULES), (SL, SL_RULES)):
        for pair, repl in rules.items():
            lhs = normal_form([(pair, ONE)], ring)
            rhs = normal_form(list(repl), ring)
            assert hc.coproduct(lhs) == hc.coproduct(rhs)
            assert hc.counit(lhs) == hc.counit(rhs)


def _free_coproduct(word, ring):
    # letter-by-letter extension with no normalization of the input word,
    # so this genuinely tests that Delta annihilates lhs - rhs
    out = hc.TensorPoly.of(NCPoly.one(ring), NCPoly.one(ring))
    for g in word:
        out = out * hc.coproduct(gen("vxyu"[g], ring))
    return out


def _free_counit(word, ring):
    eps = ONE
    for g in word:
        eps = eps * hc.counit(gen("vxyu"[g], ring))
    return eps


def test_delta_annihilates_relations_free_side():
    for ring, rules in ((GL, GL_RULES), (SL, SL_RULES)):
        for pair, repl in rules.items():
            dl = _free_coproduct(pair, ring)
            de = _free_counit(pair, ring)
            for word, coef in repl:
                dl = dl - _free_coproduct(word, ring).scaled(coef)
                de = de - coef * _free_counit(word, ring)
            assert dl.is_zero(), (ring, pair)
            assert de.is_zero(), (ring, pair)


def test_determinant_grouplike():
    d = quantum_determinant(GL)
    assert hc.coproduct(d) == hc.TensorPoly.of(d, d)
    assert hc.counit(d) == ONE
    dsl = quantum_determinant(SL)
    one = NCPoly.one(SL)
    assert hc.coproduct(dsl) - hc.TensorPoly.of(one, one) == hc.TensorPoly.zero(SL)


def test_counit_values():
    assert hc.counit(gen("x", SL)) == ONE
    assert hc.counit(gen("y", SL)) == ONE
    assert hc.counit(gen("u", SL)) == ZERO
    assert hc.counit(parse("u*v", GL)) == ZERO
    assert hc.counit(parse("x*y + 3*h*x", GL)) == ONE + H.scaled(3)


def test_coassociativity_on_generators():
    for ring in (GL, SL):
        for name in "vxyu":
            t = hc.coproduct(gen(name, ring))
            assert t.apply_coproduct(0) == t.apply_coproduct(1)


def test_counit_axiom():
    for ring in (GL, SL):
        for name in "vxyu":
            p = gen(name, ring)
            t = hc.coproduct(p)
            single = hc.TensorPoly.of(p)
            assert t.apply_counit(0) == single
            assert t.apply_counit(1) == single


@pytest.mark.parametrize("method", ["apply_coproduct", "apply_counit"])
@pytest.mark.parametrize("slot", [-1, 2])
def test_slot_outside_the_tensor_raises(method, slot):
    t = hc.coproduct(gen("x", GL))
    with pytest.raises(ValueError):
        getattr(t, method)(slot)


def test_tensor_arithmetic():
    x, v = gen("x", GL), gen("v", GL)
    t = hc.TensorPoly.of(x, v)
    assert t + t == t.scaled(2)
    assert (t - t).is_zero()
    assert t.scaled(sqrt_nat(2)).scaled(sqrt_nat(2)) == t.scaled(2)
    assert t.scaled(sqrt_nat(6)) == hc.TensorPoly.of(x.scaled(sqrt_nat(2)), v.scaled(sqrt_nat(3)))
    assert t.scaled(0).is_zero()
    tt = t * t
    assert tt == hc.TensorPoly.of(x * x, v * v)
    s = t.scaled(sqrt_nat(2) * H)
    assert s * s == tt.scaled(H * H * 2)
    with pytest.raises(ValueError):
        t * hc.TensorPoly.of(x, v, x)
    # flat keys: arity words, a squarefree radicand and an h-power; no zero value
    for ring in (GL, SL):
        for entry in (p for row in dmatrix(3, ring=ring).entries for p in row):
            t = hc.coproduct(entry)
            assert t.terms
            for k, q in t.terms.items():
                assert len(k) == t.arity + 2 and all(len(w) == 4 for w in k[:-2])
                r, i = k[-2:]
                assert type(r) is int and type(i) is int and sqrt_split(r) == (1, r)
                assert q != 0


@pytest.mark.parametrize("twoj", range(0, 7))
def test_corep_small(twoj):
    for ring in (SL, GL) if twoj <= 3 else (SL,):
        rep = hc.check_corep(twoj, ring=ring)
        assert rep.ok, rep.first_failure()


def test_corep_detects_a_wrong_coproduct(monkeypatch):
    # negative control: with Delta(x) = x (x) x the corepresentation law
    # must fail, so a vacuous pass would be caught; the digest pins the
    # failing report text byte for byte
    from slh2.ncalg import X

    monkeypatch.setitem(hc._DELTA_GEN, X, ((X, X),))
    monkeypatch.setattr(hc, "_DELTA_MEMO", {GL: {}, SL: {}})
    rep = hc.check_corep(2, ring=SL)
    assert rep.failed == 6 and rep.passed == 12
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "66e9779953c6f66534559ebfd151434d3b192ba23e197b50100168112ad64c40"
    )


def test_wigner_sums_run_over_ints(monkeypatch):
    # the twisted CGCs are rational, but lincomb clears their denominators
    # before the hot loop: every coefficient reaching kernel.scale_into,
    # from the engine or from the tensors, is int
    from slh2 import kernel, ncalg

    seen = []

    def spy(dst, terms, coef):
        seen.extend(coef.values())
        return kernel.scale_into(dst, terms, coef)

    for module in (ncalg, hc):
        monkeypatch.setattr(module, "scale_into", spy)
    assert any(q.denominator != 1 for _, c in hc.omega(2, 2, 2).items() for q in c.raw().values())
    assert hc.wigner_check(2, 2, 2).ok
    assert seen and {type(q) for q in seen} == {int}


def test_wigner_detects_a_wrong_cgc(monkeypatch):
    # negative control: with one omega(1, 1, 2) entry doubled the product
    # law must fail; the digest pins the text of the failing sums
    from slh2 import rep
    from slh2.rep import CgcTable

    # rel3 reads the table too: its cached records are cleared before the
    # patch, and after it, so that the bad rel3 reaches no later test
    rep.omega.cache_clear()
    hc._dprod.cache_clear()
    hc._rel3.cache_clear()
    hc._DLETTER_MEMO.clear()
    table = dict(rep.omega(1, 1, 2).items())
    table[(1, -1, 0)] = table[(1, -1, 0)] * 2
    bad = CgcTable(1, 1, 2, table)
    monkeypatch.setattr(hc, "omega", lambda *spins: bad if spins == (1, 1, 2) else rep.omega(*spins))
    try:
        report = hc.wigner_check(1, 1, 2, SL)
    finally:
        hc._rel3.cache_clear()
        hc._DLETTER_MEMO.clear()
    assert report.failed == 14 and report.passed == 38
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1bddc0fa3e7037ce16d476bdfd96cdcaf0daf52adc35e22873624620640899d"
    )


def _rel3_reference(twoj1, twoj2, ring=SL):
    """rel3 as wigner_check built it inline for every j, kept as the
    reference for the cached _rel3."""
    from slh2 import ncalg
    from slh2.report import Report
    from slh2.rep import magnetics, mho, omega, rows

    report = Report("wigner")
    spins = {"twoj1": twoj1, "twoj2": twoj2}
    m1s, m2s = list(magnetics(twoj1)), list(magnetics(twoj2))
    tables = [
        (twojs, rows(omega(twoj1, twoj2, twojs).items(), hc._by_pair),
         rows(mho(twoj1, twoj2, twojs).items(), hc._by_pair))
        for twojs in hc._triangle(twoj1, twoj2)
    ]
    for twok1 in m1s:
        for twom1 in m1s:
            params = {"law": "rel3", **spins, "twok1": twok1, "twom1": twom1}
            for twok2 in m2s:
                for twom2 in m2s:
                    rhs = ncalg.lincomb(
                        ((cm * co, hc._dref(twojs, twomp, twom, ring))
                         for twojs, oms, mhs in tables
                         for twom, cm in mhs.get((twom1, twom2), ())
                         for twomp, co in oms.get((twok1, twok2), ())),
                        ring,
                    )
                    report.record(
                        {**params, "twok2": twok2, "twom2": twom2},
                        hc._dprod(twoj1, twok1, twom1, twoj2, twok2, twom2, ring),
                        rhs,
                    )
    return report.cases


def _rel3_cases(report):
    return [c for c in report.cases if c["params"]["law"] == "rel3"]


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_rel3_is_built_once_per_spin_pair(pair):
    want = _rel3_reference(*pair)
    hc._rel3.cache_clear()
    for twoj in hc._triangle(*pair):
        assert _rel3_cases(hc.wigner_check(*pair, twoj)) == want
    assert hc._rel3.cache_info().misses == 1


def test_rel3_records_are_copied_per_report():
    first, second = hc.wigner_check(1, 1, 0), hc.wigner_check(1, 1, 2)
    want = json.loads(json.dumps(_rel3_cases(second)))
    case = _rel3_cases(first)[0]
    case["params"]["twok1"] = 99
    case["pass"] = False
    assert _rel3_cases(second) == want
    assert _rel3_cases(hc.wigner_check(1, 1, 0)) == want


def test_corep_counts_cases():
    rep = hc.check_corep(2)
    # one coproduct and one counit case per matrix entry
    assert len(rep.cases) == 2 * 9


def test_wigner_half_half():
    for twoj in (0, 2):
        rep = hc.wigner_check(1, 1, twoj)
        assert rep.ok, rep.first_failure()


def test_wigner_singlet_projection_gives_determinant():
    # the j = 0 component of (1/2) x (1/2) collapses to the unit: this is
    # the product law at j = 0, i.e. the determinant relation D = 1
    rep = hc.wigner_check(1, 1, 0)
    assert rep.ok
    product_cases = [c for c in rep.cases if c["params"]["law"] == "product"]
    assert any(c["params"]["twojp"] == 0 for c in product_cases)


def test_wigner_triangle_violation():
    with pytest.raises(ValueError):
        hc.wigner_check(1, 1, 1)


def test_wigner_classical_limit():
    # at h = 0 the product law becomes the classical one; spot check that
    # each passing identity specializes consistently at one spin pair
    from slh2.dfun import ORDERED1, dfunc
    from slh2.rep import cgc_classical, magnetics

    twoj1 = twoj2 = 1
    twoj = 2
    cgc = cgc_classical(twoj1, twoj2, twoj)
    for twomp in magnetics(twoj):
        for twom in magnetics(twoj):
            lhs = dfunc(twoj, twomp, twom, ORDERED1, SL).specialize(h_value=0)
            rhs = NCPoly.zero(SL)
            for k1 in magnetics(twoj1):
                for k2 in magnetics(twoj2):
                    ck = cgc.get(k1, k2, twomp)
                    if ck.is_zero():
                        continue
                    for m1 in magnetics(twoj1):
                        for m2 in magnetics(twoj2):
                            cm = cgc.get(m1, m2, twom)
                            if cm.is_zero():
                                continue
                            d1 = dfunc(twoj1, k1, m1, ORDERED1, SL)
                            d2 = dfunc(twoj2, k2, m2, ORDERED1, SL)
                            rhs = rhs + (d1 * d2).scaled(ck * cm)
            assert rhs.specialize(h_value=0) == lhs


@pytest.mark.parametrize("which", hc.RECURRENCES)
def test_recurrences_spin_one(which):
    rep = hc.recurrence_check(which, 2)
    assert rep.ok, rep.first_failure()


def test_recurrence_zero_coefficient_edge():
    # relation ii at k = j: lhs coefficient sqrt(j-k) = 0 and the rhs
    # references only out-of-band matrix elements, so both sides vanish
    lhs_terms, rhs_terms = hc.recurrence_terms("ii", 2, 2, 0, SL)
    lhs = hc._combine(lhs_terms, SL)
    rhs = hc._combine(rhs_terms, SL)
    assert lhs.is_zero() and rhs.is_zero()


def test_lowering_recurrences_hold_in_gl_too():
    # i-iv relate D^j to D^{j-1/2} times a generator, which is degree
    # homogeneous, so they hold without the determinant condition
    for which in ("i", "ii", "iii", "iv"):
        rep = hc.recurrence_check(which, 2, ring=GL)
        assert rep.ok, (which, rep.first_failure())


def test_raising_recurrences_need_determinant_one():
    # v-viii mix degrees 2j and 2j+2, so in GL they pick up determinant
    # factors and fail verbatim; GL refuses them instead
    for which in ("v", "vi", "vii", "viii"):
        with pytest.raises(ValueError):
            hc.recurrence_check(which, 1, ring=GL)
    assert hc.RING_RECURRENCES[GL] == ("i", "ii", "iii", "iv")


def test_recurrence_rejects_spin_zero():
    with pytest.raises(ValueError):
        hc.recurrence_check("i", 0)


def test_recurrence_iv_shifted_coefficient_is_forced():
    # relation iv carries sqrt(j+n+1) on the D^j_{m,n+1} term; the
    # unshifted sqrt(j+n) variant provably fails at an interior point
    from slh2._rat import Q
    from slh2.scalar import H, sqrt_nat

    twoj, twon, twom = 2, 0, 0
    lhs_terms, rhs_terms = hc.recurrence_terms("iv", twoj, twon, twom, SL)
    good = hc._combine(lhs_terms, SL) - hc._combine(rhs_terms, SL)
    assert good.is_zero()
    coef, dspec, rightmul = lhs_terms[1]
    assert coef == sqrt_nat((twoj + twon + 2) // 2).scaled(Q(twon + 1)) * H
    bad_terms = [lhs_terms[0], (sqrt_nat((twoj + twon) // 2).scaled(Q(twon + 1)) * H, dspec, rightmul)]
    bad = hc._combine(bad_terms, SL) - hc._combine(rhs_terms, SL)
    assert not bad.is_zero()


@pytest.mark.parametrize("ring, twoj", [(SL, 1), (SL, 2), (SL, 3), (GL, 2)])
def test_recurrences_multiply_each_entry_and_letter_once(monkeypatch, ring, twoj):
    # with the D-matrices built, the only products are _dletter misses:
    # an in-band D-entry times one generator, one per distinct pair, and
    # none for a zero coefficient or an out-of-band entry
    from slh2.ncalg import LETTER_WORDS
    from slh2.rep import magnetics

    for t in range(max(twoj - 1, 0), twoj + 2):
        dmatrix(t, ring=ring)
    want = set()
    for which in hc.RING_RECURRENCES[ring]:
        for twok in range(-twoj - 2, twoj + 4, 2):
            for twom in magnetics(twoj):
                for side in hc.recurrence_terms(which, twoj, twok, twom, ring):
                    for coef, (j, mp, m), right in side:
                        if right is not None and coef and abs(mp) <= j and abs(m) <= j:
                            want.update((j, mp, m, g) for g, _ in right)
    calls = []
    mul = NCPoly.__mul__

    def spy(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(NCPoly, "__mul__", spy)
    hc._DLETTER_MEMO.clear()
    for _ in range(2):
        for which in hc.RING_RECURRENCES[ring]:
            assert hc.recurrence_check(which, twoj, ring).ok
    assert len(calls) == len(want) == sum(map(len, hc._DLETTER_MEMO.values())) > 0
    letters = {w + (1, 0) for w in LETTER_WORDS}
    for d, g in calls:
        assert not d.is_zero() and len(g._terms) == 1 and set(g._terms) <= letters
        assert g._terms[next(iter(g._terms))] == 1


def test_dletter_keeps_only_the_spins_still_read():
    # a loop up in 2j keeps the products of spins 2j - 1 and up: after
    # 2j = 1..6, those of D^{5/2} (read at 2j = 4 and 6), D^3 (at 2j = 5)
    # and D^{7/2} (at 2j = 6), each read pair once
    from slh2.rep import magnetics

    hc._DLETTER_MEMO.clear()
    read = {}
    for twoj in range(1, 7):
        for which in hc.RECURRENCES:
            assert hc.recurrence_check(which, twoj, SL).ok
            for twok in range(-twoj - 2, twoj + 4, 2):
                for twom in magnetics(twoj):
                    for side in hc.recurrence_terms(which, twoj, twok, twom, SL):
                        for coef, (j, mp, m), right in side:
                            if right is not None and coef and abs(mp) <= j and abs(m) <= j:
                                read.setdefault(j, set()).update((mp, m, g, SL) for g, _ in right)
    assert sum(map(len, read.values())) == 814
    left = {spin: set(memo) for spin, memo in hc._DLETTER_MEMO.items()}
    assert left == {spin: read[spin] for spin in (5, 6, 7)}
    assert [len(left[spin]) for spin in (5, 6, 7)] == [144, 195, 255]


def test_recurrence_detects_a_wrong_letter_coefficient(monkeypatch):
    # negative control: flipping the sign of the h(m+1) x letter of
    # relation i breaks every instance where that letter survives: at
    # 2j = 2 where D^{1/2}_{k-1,m+1} is in the band (h(m+1) and sqrt(j-m)
    # do not vanish there)
    from slh2.ncalg import X

    terms = hc.recurrence_terms

    def flipped(which, twoj, twok, twom, ring):
        lhs, rhs = terms(which, twoj, twok, twom, ring)
        coef, dspec, (first, (g, c)) = rhs[1]
        assert g == X
        return lhs, [rhs[0], (coef, dspec, (first, (g, -c)))]

    monkeypatch.setattr(hc, "recurrence_terms", flipped)
    report = hc.recurrence_check("i", 2)
    assert report.failed > 0
    for case in report.cases:
        p = case["params"]
        survives = abs(p["twok"] - 1) <= 1 and abs(p["twom"] + 1) <= 1
        assert case["pass"] != survives, p


def test_recurrence_v_relates_spin_half_to_one():
    rep = hc.recurrence_check("v", 1)
    assert rep.ok, rep.first_failure()


@pytest.mark.parametrize("twoj", range(0, 4))
def test_ortho_like(twoj):
    rep = hc.ortho_like_check(twoj)
    assert rep.ok, rep.first_failure()


def test_ortho_classical_limit_is_orthogonality():
    # at h = 0 ortho1 becomes sum_m (-1)^{k1-m} D_{k1,m} D_{k2,-m} = delta
    from slh2._rat import Q
    from slh2.dfun import ORDERED1, dfunc
    from slh2.rep import magnetics

    twoj = 2
    for twok1 in magnetics(twoj):
        for twok2 in magnetics(twoj):
            acc = NCPoly.zero(SL)
            for twom in magnetics(twoj):
                sign = -1 if ((twok1 - twom) // 2) % 2 else 1
                d1 = dfunc(twoj, twok1, twom, ORDERED1, SL).specialize(h_value=0)
                d2 = dfunc(twoj, twok2, -twom, ORDERED1, SL).specialize(h_value=0)
                acc = acc + (d1 * d2).scaled(
                    ONE.scaled(Q(sign))
                )
            want = (
                NCPoly.one(SL)
                if twok2 == -twok1
                else NCPoly.zero(SL)
            )
            assert acc.specialize(h_value=0) == want, (twok1, twok2)


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2)])
def test_rtt(pair):
    rep = hc.rtt_check(*pair)
    assert rep.ok, rep.first_failure()


def test_rtt_detects_a_wrong_intertwiner(monkeypatch):
    # negative control: substituting the twist F for R must break the
    # relation, so a vacuous pass in the checker would be caught here
    from slh2 import rep

    monkeypatch.setattr(hc, "r_matrix", rep.f_matrix)
    rep_report = hc.rtt_check(1, 1)
    assert not rep_report.ok and rep_report.failed == 15
    # the digest pins the text of the failing sums byte for byte
    text = json.dumps(rep_report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d7d3f25f9929ed8450c8b58a7f4a117ebf74b569b105947e12113c4b0aa9f79b"
    )


@pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
def test_rtt_multiplies_each_entry_pair_once(monkeypatch, pair):
    # with the D-matrices built, rtt_check's only products are _dprod
    # misses: both sides read their D D products from the memo
    for twoj in pair:
        dmatrix(twoj)
    calls = []
    mul = NCPoly.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(NCPoly, "__mul__", spy)
    hc._dprod.cache_clear()
    assert hc.rtt_check(*pair).ok
    assert len(calls) == hc._dprod.cache_info().misses > 0


def test_suites_build_no_product_with_zero_coefficient():
    # the suites multiply D-entries only where a coupling or twist
    # coefficient is non-zero; the miss counts pin that.  wigner (1, 2, 3)
    # and the left side of rtt (1, 2) need every product D^{1/2} D^1 of
    # the 6 x 6 entry pairs, the right side of rtt every D^1 D^{1/2}:
    # 2 x 36 misses
    hc._dprod.cache_clear()
    hc.wigner_check(1, 2, 3)
    hc.rtt_check(1, 2)
    assert hc._dprod.cache_info().misses == 72
    hc._dprod.cache_clear()
    hc.ortho_like_check(2)
    assert hc._dprod.cache_info().misses == 56  # of 81 entry pairs


def test_rtt_spans_defining_relations():
    rep = hc.rtt_frt_check()
    assert rep.ok, rep.first_failure()
    rank_case = [c for c in rep.cases if c["params"].get("direction") == "rank"]
    assert rank_case and rank_case[0]["pass"]


def test_report_json_shape():
    rep = hc.check_corep(1)
    obj = rep.to_json()
    assert set(obj) == {"suite", "cases", "passed", "failed"}
    assert obj["failed"] == 0
    assert all(c["pass"] for c in obj["cases"])
