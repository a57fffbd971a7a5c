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
    V,
    X,
    NCPoly,
    gen,
    normal_form,
    quantum_determinant,
    word_letters,
)
from slh2.kernel import add_into, rad_add, rad_sub, scale_into, sqrt_split
from slh2._rat import Q
from slh2.scalar import H, ONE, ZERO, sqrt_nat

from flatkeys import pack, unpack, unpacked


def _slot_polys(k, q, ring):
    """A flat 2-slot tensor term as one NCPoly per slot, its scalar in the
    first."""
    w1, w2, r, i = unpack(k, 2)
    return [NCPoly(ring, {pack((w1,), r, i): q}), NCPoly(ring, {pack((w2,)): 1})]


def tensor_mul(t1, t2, ring):
    """Test oracle: the slotwise product of two flat 2-slot tensors, each
    term pair a tensor of NCPoly products."""
    out = {}
    for k1, q1 in t1.items():
        for k2, q2 in t2.items():
            slots = zip(_slot_polys(k1, q1, ring), _slot_polys(k2, q2, ring))
            out = rad_add(out, hc.tensor(*(p * q for p, q in slots)))
    return out


def _coproduct_at(t, slot, ring):
    """Test oracle: Delta applied to one slot of a flat 2-slot tensor, as
    3-slot terms {(w1, w2, w3, radicand, h_power): q}."""
    out = {}
    for k, q in t.items():
        *words, r, i = unpack(k, 2)
        for d, m in hc.coproduct(NCPoly(ring, {pack((words[slot],), r, i): q})).items():
            d = unpack(d, 2)
            add_into(out, (*words[:slot], *d[:2], *words[slot + 1 :], *d[2:]), m)
    return out


def _counit_at(t, slot, ring):
    """Test oracle: eps applied to one slot of a flat 2-slot tensor, as
    1-slot flat terms."""
    out = {}
    for k, q in t.items():
        *words, r, i = unpack(k, 2)
        for rad_h, m in hc.counit(NCPoly(ring, {pack((words[slot],), r, i): q})).raw().items():
            add_into(out, pack((words[1 - slot],), *unpack(rad_h, 0)), m)
    return out


def test_tensor_sums_store_ints():
    half = Q(1, 2)
    for ring in (GL, SL):
        x, y = gen("x", ring), gen("y", ring)
        t = hc.tensor(x.scaled(half), x.scaled(2))
        assert unpacked(t, 2) == {((0, 1, 0, 0), (0, 1, 0, 0), 1, 0): 1}
        assert [type(q) for q in t.values()] == [int]
        c = hc.counit(x.scaled(half) + y.scaled(half))
        assert c == ONE and [type(q) for q in c.raw().values()] == [int]
        eps = _counit_at(hc.tensor(x.scaled(half) + y.scaled(half), x), 0, ring)
        assert [type(q) for q in eps.values()] == [int]
        p = parse("1/2*x*y + 1/2*u*v - 1/3*h*x*v + 3/2*v", ring)
        delta = hc.coproduct(p)
        for tp in (delta, _coproduct_at(delta, 1, ring), scale_into({}, delta, {pack(()): Q(2, 3)})):
            assert all((type(q) is int) == (q.denominator == 1) for q in tp.values())


def test_coproduct_on_generators():
    x, u, v, y = (gen(n, GL) for n in "xuvy")
    assert hc.coproduct(x) == rad_add(hc.tensor(x, x), hc.tensor(u, v))
    assert hc.coproduct(u) == rad_add(hc.tensor(x, u), hc.tensor(u, y))
    assert hc.coproduct(v) == rad_add(hc.tensor(v, x), hc.tensor(y, v))
    assert hc.coproduct(y) == rad_add(hc.tensor(v, u), hc.tensor(y, y))


def test_coproduct_of_unit():
    one = NCPoly.one(SL)
    assert hc.coproduct(one) == hc.tensor(one, one)


def test_coproduct_is_algebra_map():
    for ring in (GL, SL):
        for g1, g2 in product("vxyu", repeat=2):
            p, q = gen(g1, ring), gen(g2, ring)
            assert hc.coproduct(p * q) == tensor_mul(hc.coproduct(p), hc.coproduct(q), ring)


def _sigma_tensor(t, flip=True):
    """tau (sigma (x) sigma) on a 2-slot SL tensor, or sigma (x) sigma
    when flip is False."""
    sig = {}
    for k, q in t.items():
        w1, w2, r, i = unpack(k, 2)
        w1, w2 = (w1[0], w1[2], w1[1], w1[3]), (w2[0], w2[2], w2[1], w2[3])
        sig[pack((w2, w1) if flip else (w1, w2), r, i)] = q
    return sig


def test_coproduct_commutes_with_sigma_up_to_the_flip():
    # Delta sigma = tau (sigma (x) sigma) Delta on the generators, since
    # sigma swaps T_11 with T_22 of T = [[x, u], [v, y]] and fixes T_12, T_21
    for name in "vxyu":
        g = gen(name, SL)
        assert hc.coproduct(g.swap_xy()) == _sigma_tensor(hc.coproduct(g)), name
    # sigma is a coalgebra anti-map: without the flip it fails on u
    u = gen("u", SL)
    assert hc.coproduct(u.swap_xy()) != _sigma_tensor(hc.coproduct(u), flip=False)


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
    out = hc.tensor(NCPoly.one(ring), NCPoly.one(ring))
    for g in word:
        out = tensor_mul(out, hc.coproduct(gen("vxyu"[g], ring)), ring)
    return out


def test_coproduct_of_each_normal_word_is_the_free_product():
    # Delta of every normal word of degree <= 4 is the product of the
    # generator images in letter order
    for ring in (GL, SL):
        for exps in product(range(5), repeat=4):
            if sum(exps) > 4 or (ring == SL and exps[1] and exps[2]):
                continue
            letters = word_letters(exps)
            p = normal_form([(letters, ONE)], ring)
            assert p.terms() == {exps: ONE}
            assert hc.coproduct(p) == _free_coproduct(letters, ring), (ring, exps)


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
                dl = rad_sub(dl, scale_into({}, _free_coproduct(word, ring), coef.raw()))
                de = de - coef * _free_counit(word, ring)
            assert not dl, (ring, pair)
            assert de.is_zero(), (ring, pair)


def test_determinant_grouplike():
    d = quantum_determinant(GL)
    assert hc.coproduct(d) == hc.tensor(d, d)
    assert hc.counit(d) == ONE
    dsl = quantum_determinant(SL)
    one = NCPoly.one(SL)
    assert hc.coproduct(dsl) == hc.tensor(one, one)


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
            assert _coproduct_at(t, 0, ring) == _coproduct_at(t, 1, ring)


def test_counit_axiom():
    for ring in (GL, SL):
        for name in "vxyu":
            p = gen(name, ring)
            t = hc.coproduct(p)
            single = hc.tensor(p)
            assert _counit_at(t, 0, ring) == single
            assert _counit_at(t, 1, ring) == single


def test_tensor_arithmetic():
    x, v = gen("x", GL), gen("v", GL)
    r2, r3, r6 = (sqrt_nat(n) for n in (2, 3, 6))
    # the radicands of the slots meet by the gcd rule
    assert hc.tensor(x.scaled(r2), v.scaled(r3)) == scale_into({}, hc.tensor(x, v), r6.raw())
    assert unpacked(hc.tensor(x.scaled(r2), v.scaled(r2 * H)), 2) == {((0, 1, 0, 0), (1, 0, 0, 0), 1, 1): 2}
    # radicals in both slots of both factors: the slots multiply in the ring
    y, u = gen("y", GL), gen("u", GL)
    left = (u.scaled(r2) + x, y.scaled(r3) + v.scaled(r6))
    right = (x.scaled(r3) + y, v.scaled(r6) + u.scaled(r2))
    want = hc.tensor(*(p * q for p, q in zip(left, right)))
    assert tensor_mul(hc.tensor(*left), hc.tensor(*right), GL) == want
    # a flat key holds two words
    with pytest.raises(ValueError, match="1 to 2 factors"):
        hc.tensor(x, y, v)
    # flat keys: two words, a squarefree radicand and an h-power; no zero value
    for ring in (GL, SL):
        for entry in (p for row in dmatrix(3, ring=ring).entries for p in row):
            t = hc.coproduct(entry)
            assert t
            for k, q in unpacked(t, 2).items():
                assert len(k) == 4 and all(len(w) == 4 for w in k[:-2])
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
    # failing report text byte for byte.  The coproducts of the entries
    # with m' + m < 0 are tau (sigma (x) sigma) of their partners', so
    # the lower entries (-1, 0) and (-1, -1) fail with their partners
    # (0, 1) and (1, 1), and (0, -1) shows the image of (1, 0)'s
    from slh2.ncalg import X

    monkeypatch.setitem(hc._DELTA_GEN, X, ((X, X),))
    monkeypatch.setattr(hc, "_DELTA_MEMO", {GL: {}, SL: {}})
    rep = hc.check_corep(2, ring=SL)
    assert rep.failed == 8 and rep.passed == 10
    assert [(c["params"]["twomp"], c["params"]["twom"]) for c in rep.cases if not c["pass"]] == [
        (2, 2), (2, 0), (2, -2), (0, 2), (0, 0), (0, -2), (-2, 0), (-2, -2)
    ]
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a81e6a0740c46933bc50fc5eda7b39c2002f63341dc8c144bdb672068d005f6b"
    )


# the two sides of the first failing case of check_corep(2) with the
# leading coefficient of D^1_{1,1} doubled, pinned byte for byte
_COREP_FAILURE = {
    SL: (
        (
            "(3*h)*[1 (x) vx] + (2)*[uu (x) vv] + (h)*[yu (x) vv] + "
            "(-h^2)*[yy (x) vv] + (4)*[xu (x) vx] + (-2*h)*[xu (x) vv] + "
            "(2)*[xx (x) xx] + (-2*h)*[xx (x) vx] + (2*h)*[vu (x) vx] + "
            "(-h^2)*[vu (x) vv] + (-2*h^2)*[vy (x) vx] + (h^3)*[vy (x) vv] + "
            "(h)*[vx (x) xx] + (-h^2)*[vx (x) vx] + (-h^2)*[vv (x) xx] + "
            "(h^3)*[vv (x) vx]"
        ),
        (
            "(2*h)*[1 (x) vx] + (1)*[uu (x) vv] + (h)*[yu (x) vv] + "
            "(-h^2)*[yy (x) vv] + (2)*[xu (x) vx] + (-h)*[xu (x) vv] + "
            "(4)*[xx (x) xx] + (-h^2)*[xx (x) vv] + (2*h)*[vu (x) vx] + "
            "(-h^2)*[vu (x) vv] + (-2*h^2)*[vy (x) vx] + (h^3)*[vy (x) vv] + "
            "(2*h)*[vx (x) xx] + (-h^2)*[vx (x) vx] + (-2*h^2)*[vv (x) xx] + "
            "(h^3)*[vv (x) vx]"
        ),
    ),
    GL: (
        (
            "(2)*[uu (x) vv] + (h)*[yu (x) vv] + (-h^2)*[yy (x) vv] + "
            "(4)*[xu (x) vx] + (-2*h)*[xu (x) vv] + (3*h)*[xy (x) vx] + "
            "(2)*[xx (x) xx] + (-2*h)*[xx (x) vx] + (-h)*[vu (x) vx] + "
            "(-h^2)*[vu (x) vv] + (h^2)*[vy (x) vx] + (h^3)*[vy (x) vv] + "
            "(h)*[vx (x) xx] + (-h^2)*[vx (x) vx] + (-h^2)*[vv (x) xx] + "
            "(h^3)*[vv (x) vx]"
        ),
        (
            "(1)*[uu (x) vv] + (h)*[yu (x) vv] + (-h^2)*[yy (x) vv] + "
            "(2)*[xu (x) vx] + (-h)*[xu (x) vv] + (2*h)*[xy (x) vx] + "
            "(4)*[xx (x) xx] + (-h^2)*[xx (x) vv] + (-h^2)*[vu (x) vv] + "
            "(h^3)*[vy (x) vv] + (2*h)*[vx (x) xx] + (-h^2)*[vx (x) vx] + "
            "(-2*h^2)*[vv (x) xx] + (h^3)*[vv (x) vx]"
        ),
    ),
}


@pytest.mark.parametrize("ring", [SL, GL])
def test_corep_failure_text_is_pinned(ring):
    from slh2.dfun import ORDERED1, dfunc

    for r in (SL, GL):  # build every entry, mirrors and lifts, before the change
        dmatrix(2, ring=r)
    terms = dfunc(2, 2, 2, ORDERED1, ring)._terms
    key = min(terms, key=unpack)
    q = terms[key]
    terms[key] = 2 * q
    try:
        rep = hc.check_corep(2, ring=ring)
    finally:
        terms[key] = q
    # in SL the coproduct of D_{-1,-1} is tau (sigma (x) sigma) of that of
    # D_{1,1}, so the doubled coefficient fails its case too
    assert (rep.failed, rep.passed) == ((7, 11) if ring == SL else (6, 12))
    case = rep.first_failure()
    assert case["params"] == {"twoj": 2, "twomp": 2, "twom": 2, "law": "coproduct"}
    assert (case["lhs"], case["rhs"]) == _COREP_FAILURE[ring]
    assert hc.check_corep(2, ring=ring).ok


def test_wigner_sums_run_over_ints(monkeypatch):
    # the twisted CGCs are rational, but lincomb clears their denominators
    # before the hot loop: every coefficient that the engine's sums
    # (lincomb) pass to kernel.scale_into is int
    from slh2 import kernel, ncalg

    seen = []

    def spy(dst, terms, coef):
        seen.extend(coef.values())
        return kernel.scale_into(dst, terms, coef)

    monkeypatch.setattr(ncalg, "scale_into", spy)
    assert any(q.denominator != 1 for _, c in hc.omega(2, 2, 2).items() for q in c.raw().values())
    assert hc.wigner_check(2, 2, 2).ok
    assert seen and {type(q) for q in seen} == {int}


def test_wigner_detects_a_wrong_cgc(monkeypatch):
    # negative control: with one omega(1, 1, 2) entry doubled the product
    # law must fail; the digest pins the text of the failing sums
    from slh2 import rep

    # rel3 reads the table too: its cached records are cleared before the
    # patch, and after it, so that the bad rel3 reaches no later test
    rep.omega.cache_clear()
    hc._DPROD_MEMO.clear()
    hc._rel3.cache_clear()
    bad = dict(rep.omega(1, 1, 2))
    bad[(1, -1), 0] = bad[(1, -1), 0] * 2
    monkeypatch.setattr(hc, "omega", lambda *spins: bad if spins == (1, 1, 2) else rep.omega(*spins))
    try:
        report = hc.wigner_check(1, 1, 2, SL)
    finally:
        hc._rel3.cache_clear()
        hc._DPROD_MEMO.clear()
    assert report.failed == 14 and report.passed == 38
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1bddc0fa3e7037ce16d476bdfd96cdcaf0daf52adc35e22873624620640899d"
    )


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_gl_rel1_and_rel2_hold_at_the_top_spin_only(pair):
    # in GL (no determinant condition) rel1 and rel2 hold at j = j1 + j2,
    # as the lowering recurrences do at (j - 1/2, 1/2, j), and fail at
    # every lower j, whose coupled states carry the determinant
    from slh2.rep import pair_basis, triangle

    twoj1, twoj2 = pair
    for twoj in triangle(twoj1, twoj2):
        for law in ("rel1", "rel2"):
            cases = list(hc._rel(law, twoj1, twoj2, twoj, pair_basis(twoj1, twoj2), GL))
            failed = sum(lhs != rhs for *_, lhs, rhs in cases)
            assert cases and (failed == 0) == (twoj == twoj1 + twoj2), (law, twoj, failed)


def test_rel2_detects_a_decoupling_table_read_as_omega(monkeypatch):
    # negative control: with mho replaced by omega, rel2 fails both in
    # wigner_check and in the recurrences read off mho (iii, iv), while
    # rel1 and the recurrences read off omega (i, ii) still pass
    from slh2 import rep

    # rel3 reads mho too: its cached records are cleared before and after
    hc._rel3.cache_clear()
    monkeypatch.setattr(hc, "mho", rep.omega)
    try:
        report = hc.wigner_check(1, 2, 1)
        recurrences = {(which, twoj): hc.recurrence_check(which, twoj)
                       for which in ("i", "ii", "iii", "iv") for twoj in (2, 3)}
    finally:
        hc._rel3.cache_clear()
    failed = {law: sum(not c["pass"] for c in report.cases if c["params"]["law"] == law)
              for law in ("rel1", "rel2")}
    assert failed == {"rel1": 0, "rel2": 12}
    counts = {key: (r.failed, len(r.cases)) for key, r in recurrences.items()}
    assert counts == {
        ("i", 2): (0, 15), ("i", 3): (0, 24), ("ii", 2): (0, 15), ("ii", 3): (0, 24),
        ("iii", 2): (6, 15), ("iii", 3): (12, 24), ("iv", 2): (6, 15), ("iv", 3): (12, 24),
    }


def _law_counts(report, laws):
    """(failed, cases) per law of a report."""
    return {law: (sum(not c["pass"] for c in report.cases if c["params"]["law"] == law),
                  sum(c["params"]["law"] == law for c in report.cases)) for law in laws}


def test_rel2_detects_a_decoupling_entry_with_its_sign_flipped(monkeypatch):
    # negative control of the sigma premise: with one entry of mho(1, 2, 1)
    # negated, mho is no longer s Omega with its indices negated (s = -1
    # here), so rel2 must be summed off the patched table and fail, not
    # derived from rel1, which still passes; the counts and the digest are
    # those of the direct sums.  rel1 passes, so there is no residual: the
    # product law fails through B = mho^T Omega alone
    from slh2 import rep

    hc._rel3.cache_clear()
    bad = dict(rep.mho(1, 2, 1))
    bad[(1, 0), 1] = -bad[(1, 0), 1]
    monkeypatch.setattr(hc, "mho", lambda *spins: bad if spins == (1, 2, 1) else rep.mho(*spins))
    try:
        report = hc.wigner_check(1, 2, 1)
    finally:
        hc._rel3.cache_clear()
    assert _law_counts(report, ("product", "rel1", "rel2", "rel3")) == {
        "product": (2, 12), "rel1": (0, 12), "rel2": (7, 12), "rel3": (5, 36),
    }
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aab858d5240f23fa2ad5b2ef7cf76c56c342ef69693dc5c829d251fd5bc1a3a0"
    )


@pytest.mark.parametrize("pair, failed, digest", [
    ((1, 1), {"product": (1, 16), "rel1": (3, 16), "rel2": (3, 16), "rel3": (18, 32)},
     "a17667a85d4d859976aa64f47594956d5eed425587773321168f55130b3524f6"),
    ((2, 2), {"product": (64, 81), "rel1": (38, 81), "rel2": (38, 81), "rel3": (75, 243)},
     "dd62ebee9e2a03b62cd730568ff1330da9b1481afd03ad8ff240cddb47fc0d57"),
])
def test_wigner_detects_a_wrong_d_entry(monkeypatch, pair, failed, digest):
    # negative control: with the v u coefficient of D^1_{0,0} doubled as
    # _dref reads it (D^j at j = 1, and P at (2, 2)), rel1 fails and its
    # residuals carry the failure into the product law, whose rhs reads
    # D^j through B too; the counts and digest, those of the direct
    # contraction, pin the reports of every j of the spin pair
    from slh2.rep import triangle
    from slh2.report import Report

    good = hc._dref
    bad = good(2, 0, 0, SL) + gen("v", SL) * gen("u", SL) * 2
    monkeypatch.setattr(hc, "_dref", lambda *ix: bad if ix == (2, 0, 0, SL) else good(*ix))
    hc._DPROD_MEMO.clear()
    hc._rel3.cache_clear()
    try:
        reports = [hc.wigner_check(*pair, twoj) for twoj in triangle(*pair)]
    finally:
        hc._rel3.cache_clear()
        hc._DPROD_MEMO.clear()
    every_j = Report("wigner")
    for report in reports:
        every_j.extend(report)
    assert _law_counts(every_j, ("product", "rel1", "rel2", "rel3")) == failed
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _recorded_sides(monkeypatch):
    """A list that collects (law, params, lhs, rhs) of every case a Report
    records from here on."""
    from slh2.report import Report

    seen = []
    record = Report.record

    def spy(self, params, lhs, rhs, text=repr):
        seen.append((params.get("law"), params, lhs, rhs))
        return record(self, params, lhs, rhs, text)

    monkeypatch.setattr(Report, "record", spy)
    return seen


def _by_params(seen, law):
    return {tuple(sorted(params.items())): (lhs, rhs) for name, params, lhs, rhs in seen if name == law}


def test_wigner_sides_equal_the_direct_sums(monkeypatch):
    # every rel2 and rel3 case of wigner_check, made as sigma of a partner
    # case, has the two sides of its direct sum: rel2 through _rel off mho,
    # rel3 through _rel3_reference; every spin pair with 2j1, 2j2 <= 4 and
    # every j, so both signs s = +-1 occur
    from slh2.rep import magnetics, pair_basis, triangle

    seen = _recorded_sides(monkeypatch)
    for twoj1, twoj2 in product(range(5), repeat=2):
        pairs = pair_basis(twoj1, twoj2)
        hc._rel3.cache_clear()
        seen.clear()
        for twoj in triangle(twoj1, twoj2):
            report = hc.wigner_check(twoj1, twoj2, twoj)
            assert report.ok
            want = {}
            for (m1, m2), mp, lhs, rhs in hc._rel("rel2", twoj1, twoj2, twoj, pairs, SL):
                params = {"law": "rel2", "twoj1": twoj1, "twoj2": twoj2, "twoj": twoj,
                          "twom1": m1, "twom2": m2, "twomp": mp}
                want[tuple(sorted(params.items()))] = lhs, rhs
            got = {k: v for k, v in _by_params(seen, "rel2").items() if dict(k)["twoj"] == twoj}
            assert len(got) == len(pairs) * len(magnetics(twoj))
            assert got == want, (twoj1, twoj2, twoj)
            order = [tuple(sorted(c["params"].items())) for c in report.cases if c["params"]["law"] == "rel2"]
            assert order == list(want)
        got = _by_params(seen, "rel3")
        seen.clear()
        _rel3_reference(twoj1, twoj2)
        assert got == _by_params(seen, "rel3") and len(got) == len(pairs) ** 2


def _product_reference(twoj1, twoj2, twoj, ring=SL):
    """The product law summed directly, as the reference for wigner_check:
    each column of mho^{j'} contracted with the rel1 right sides A = P
    Omega^j, as {params: (lhs, rhs)}."""
    from slh2 import ncalg
    from slh2.rep import magnetics, mho, pair_basis, rows, transpose, triangle

    rel1 = hc._rel("rel1", twoj1, twoj2, twoj, pair_basis(twoj1, twoj2), ring)
    acc = {(pair, m): rhs for pair, m, _, rhs in rel1}
    want = {}
    for twojp in triangle(twoj1, twoj2):
        mhp_m = rows(transpose(mho(twoj1, twoj2, twojp)))
        for twomp in magnetics(twojp):
            for twom in magnetics(twoj):
                rhs = ncalg.lincomb(((c, acc[pair, twom]) for pair, c in mhp_m.get(twomp, ())), ring)
                lhs = hc._dref(twoj, twomp, twom, ring) if twojp == twoj else NCPoly.zero(ring)
                params = {"law": "product", "twoj1": twoj1, "twoj2": twoj2, "twoj": twoj,
                          "twojp": twojp, "twomp": twomp, "twom": twom}
                want[tuple(sorted(params.items()))] = lhs, rhs
    return want


def test_product_law_sides_equal_the_direct_contraction(monkeypatch):
    # each product-law side of wigner_check, B D^j plus the residuals of
    # failing rel1 cases, equals mho^{j'}T applied to the rel1 right
    # sides; every spin pair with 2j1, 2j2 <= 4 and every j and j'
    from slh2.rep import triangle

    seen = _recorded_sides(monkeypatch)
    for twoj1, twoj2 in product(range(5), repeat=2):
        for twoj in triangle(twoj1, twoj2):
            seen.clear()
            assert hc.wigner_check(twoj1, twoj2, twoj).ok
            got = _by_params(seen, "product")
            assert got and got == _product_reference(twoj1, twoj2, twoj), (twoj1, twoj2, twoj)


@pytest.mark.parametrize("twoj", [1, 3, 5])
def test_product_law_reads_no_rel1_right_side(monkeypatch, twoj):
    # on correct code every rel1 case passes, so no residual is kept: no
    # sum of wigner_check reads a rel1 right side
    from slh2 import ncalg

    seen = _recorded_sides(monkeypatch)
    read = []
    lincomb = ncalg.lincomb

    def spy(pairs, ring):
        pairs = list(pairs)
        read.extend(p for _, p in pairs)
        return lincomb(pairs, ring)

    monkeypatch.setattr(ncalg, "lincomb", spy)
    assert hc.wigner_check(2, 3, twoj).ok
    rel1_rhs = {id(rhs) for law, _, _, rhs in seen if law == "rel1"}
    assert len(rel1_rhs) == 12 * (twoj + 1)
    assert read and not rel1_rhs & {id(p) for p in read}


@pytest.mark.parametrize("spins", [(1, 1, 0), (1, 1, 2), (1, 2, 1), (2, 2, 2), (2, 3, 3)])
def test_wigner_sums_each_sigma_pair_once(monkeypatch, spins):
    # with the D-matrices built, wigner_check's only lincombs are its
    # sums: one per product-law case, two per rel1 case, none for rel2
    # and one per sigma pair of rel3 cases, (N + S) / 2 of the N cases
    # with S self-partners.  With mho patched to omega the premise fails
    # and rel2 and every rel3 case are summed
    from slh2 import ncalg, rep
    from slh2.rep import triangle

    twoj1, twoj2, twoj = spins
    for spin in (twoj1, twoj2, *triangle(twoj1, twoj2)):
        dmatrix(spin)
    sums = []
    lincomb = ncalg.lincomb
    monkeypatch.setattr(ncalg, "lincomb", lambda pairs, ring: sums.append(1) or lincomb(pairs, ring))
    n_pairs, n_m = (twoj1 + 1) * (twoj2 + 1), twoj + 1
    product_law = sum(twojp + 1 for twojp in triangle(twoj1, twoj2)) * n_m
    try:
        hc._rel3.cache_clear()
        assert hc.wigner_check(*spins).ok
        assert len(sums) == product_law + 2 * n_pairs * n_m + (n_pairs ** 2 + n_pairs) // 2
        sums.clear()
        hc._rel3.cache_clear()
        monkeypatch.setattr(hc, "mho", rep.omega)
        hc.wigner_check(*spins)
        assert len(sums) == product_law + 4 * n_pairs * n_m + n_pairs ** 2
    finally:
        hc._rel3.cache_clear()


def _rel3_reference(twoj1, twoj2, ring=SL):
    """rel3 as wigner_check built it inline for every j, kept as the
    reference for the cached _rel3."""
    from slh2 import ncalg
    from slh2.report import Report
    from slh2.rep import magnetics, mho, omega, rows, triangle

    report = Report("wigner")
    spins = {"twoj1": twoj1, "twoj2": twoj2}
    m1s, m2s = list(magnetics(twoj1)), list(magnetics(twoj2))
    tables = [
        (twojs, rows(omega(twoj1, twoj2, twojs)), rows(mho(twoj1, twoj2, twojs)))
        for twojs in triangle(twoj1, twoj2)
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
    from slh2.rep import triangle

    want = _rel3_reference(*pair)
    hc._rel3.cache_clear()
    for twoj in triangle(*pair):
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
    with pytest.raises(ValueError) as err:
        hc.wigner_check(1, 1, 1)
    assert "(1/2, 1/2, 1/2)" in str(err.value)


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
                    ck = cgc.get(((k1, k2), twomp), ZERO)
                    if ck.is_zero():
                        continue
                    for m1 in magnetics(twoj1):
                        for m2 in magnetics(twoj2):
                            cm = cgc.get(((m1, m2), twom), ZERO)
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


def _sq(twoint):
    """sqrt of an integer given doubled; negative means the term is absent.

    A negative radicand only ever occurs one step outside the magnetic
    band, where the accompanying matrix element vanishes as well.
    """
    if twoint % 2:
        raise ValueError("half-integer radicand in a recurrence coefficient")
    return ZERO if twoint < 0 else sqrt_nat(twoint // 2)


def _recurrence_terms_reference(which, twoj, twok, twom):
    """The eight relations as the paper writes them, one by one: (lhs,
    rhs) term lists of one instance.

    Each term is (coefficient, (twoj, twom_row, twom_col), right_factor),
    the right factor None or a linear form in the generators as
    (generator index, RadScalar) pairs: u - h(m+1) x is ((U, ONE), (X,
    -h(m+1))).  twok plays the role of k in relations i/ii/v/vi and of n
    in the column relations iii/iv/vii/viii, where twom is the row index.
    """
    from slh2.ncalg import U, V, X, Y

    sq = _sq
    J, k, m = twoj, twok, twom
    x, v, y = ((X, ONE),), ((V, ONE),), ((Y, ONE),)
    hm = H.scaled
    if which == "i":
        lhs = [
            (sq(J + k), (J, k, m), None),
            (-sq(J - k + 2).scaled(k - 1) * H, (J, k - 2, m), None),
        ]
        rhs = [
            (sq(J + m), (J - 1, k - 1, m - 1), x),
            (sq(J - m), (J - 1, k - 1, m + 1), ((U, ONE), (X, -hm(m + 1)))),
        ]
    elif which == "ii":
        lhs = [(sq(J - k), (J, k, m), None)]
        rhs = [
            (sq(J + m), (J - 1, k + 1, m - 1), v),
            (sq(J - m), (J - 1, k + 1, m + 1), ((Y, ONE), (V, -hm(m + 1)))),
        ]
    elif which == "iii":
        lhs = [(sq(J + k), (J, m, k), None)]
        rhs = [
            (sq(J + m), (J - 1, m - 1, k - 1), ((X, ONE), (V, hm(m - 1)))),
            (sq(J - m), (J - 1, m + 1, k - 1), v),
        ]
    elif which == "iv":
        lhs = [
            (sq(J - k), (J, m, k), None),
            (sq(J + k + 2).scaled(k + 1) * H, (J, m, k + 2), None),
        ]
        rhs = [
            (sq(J + m), (J - 1, m - 1, k + 1), ((U, ONE), (Y, hm(m - 1)))),
            (sq(J - m), (J - 1, m + 1, k + 1), y),
        ]
    elif which == "v":
        lhs = [
            (sq(J - k + 2), (J, k, m), None),
            (sq(J + k).scaled(k - 1) * H, (J, k - 2, m), None),
        ]
        rhs = [
            (sq(J - m + 2), (J + 1, k - 1, m - 1), x),
            (-sq(J + m + 2), (J + 1, k - 1, m + 1), ((U, ONE), (X, -hm(m + 1)))),
        ]
    elif which == "vi":
        lhs = [(sq(J + k + 2), (J, k, m), None)]
        rhs = [
            (-sq(J - m + 2), (J + 1, k + 1, m - 1), v),
            (sq(J + m + 2), (J + 1, k + 1, m + 1), ((Y, ONE), (V, -hm(m + 1)))),
        ]
    elif which == "vii":
        lhs = [(sq(J - k + 2), (J, m, k), None)]
        rhs = [
            (sq(J - m + 2), (J + 1, m - 1, k - 1), ((X, ONE), (V, hm(m - 1)))),
            (-sq(J + m + 2), (J + 1, m + 1, k - 1), v),
        ]
    else:
        assert which == "viii"
        lhs = [
            (sq(J + k + 2), (J, m, k), None),
            (-sq(J - k).scaled(k + 1) * H, (J, m, k + 2), None),
        ]
        rhs = [
            (-sq(J - m + 2), (J + 1, m - 1, k + 1), ((U, ONE), (Y, hm(m - 1)))),
            (sq(J + m + 2), (J + 1, m + 1, k + 1), y),
        ]
    return lhs, rhs


def _combine(side_terms, ring):
    """The sum of coef * D-entry * right over one side's written terms; a
    term with a zero coefficient or an out-of-band D-entry is skipped."""
    from slh2.dfun import ORDERED1, dfunc

    acc = NCPoly.zero(ring)
    for coef, (j, mp, m), right in side_terms:
        if coef.is_zero() or abs(mp) > j or abs(m) > j:
            continue
        d = dfunc(j, mp, m, ORDERED1, ring)
        for g, c in right or ((None, ONE),):
            acc = acc + (d if g is None else d * NCPoly.generator(g, ring)).scaled(coef * c)
    return acc


def _keyed(side_terms):
    """Written terms as {(spin, row, col, generator): coefficient}, the
    generator None for a bare D-entry; out-of-band entries and zero sums
    are left out."""
    out = {}
    for coef, (j, mp, m), right in side_terms:
        if abs(mp) <= j and abs(m) <= j:
            for g, c in right or ((None, ONE),):
                out[(j, mp, m, g)] = out.get((j, mp, m, g), ZERO) + coef * c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _table_terms(which, twoj, twok, twom):
    """The two sides of one instance read off its coupling table, keyed as
    _keyed keys them: the row of the pair (k - t, t) on the left and the
    column m, against D^{j'} at the index k - t, on the right."""
    from slh2.rep import mho, omega

    raising, law, t = hc._RELATIONS[which]
    twojp = twoj + 1 if raising else twoj - 1
    lhs, rhs = {}, {}
    for ((m1, m2), m), c in (omega if law == "rel1" else mho)(twojp, 1, twoj).items():
        if (m1, m2) == (twok - t, t):
            lhs[(twoj, m, twom, None) if law == "rel1" else (twoj, twom, m, None)] = c
        if m == twom and abs(twok - t) <= twojp:
            if law == "rel1":
                rhs[(twojp, twok - t, m1, hc._GEN_AT[t, m2])] = c
            else:
                rhs[(twojp, m1, twok - t, hc._GEN_AT[m2, t])] = c
    return lhs, rhs


def _scale(which, twoj):
    """s of the written relation over the rows of its table."""
    if which in ("i", "ii", "iii", "iv"):
        return sqrt_nat(twoj)
    return -sqrt_nat(twoj + 2) if which in ("v", "vii") else sqrt_nat(twoj + 2)


def _products_read(which, twoj, ring):
    """The (spin, row, col, generator) of each D-entry times a generator
    one recurrence_check call reads off its table."""
    from slh2.rep import magnetics

    return {
        key
        for twok in range(-twoj - 2, twoj + 4, 2)
        for twom in magnetics(twoj)
        for key in _table_terms(which, twoj, twok, twom)[1]
    }


def test_recurrence_zero_coefficient_edge():
    # relation ii at k = j: the written lhs coefficient sqrt(j-k) = 0 and
    # the rhs references only out-of-band matrix elements, so both sides
    # vanish; omega(1/2, 1/2, 1) has no row at the pair (3/2, -1/2)
    lhs_terms, rhs_terms = _recurrence_terms_reference("ii", 2, 2, 0)
    assert _combine(lhs_terms, SL).is_zero() and _combine(rhs_terms, SL).is_zero()
    assert _table_terms("ii", 2, 2, 0) == ({}, {})
    case = next(
        c for c in hc.recurrence_check("ii", 2).cases
        if (c["params"]["twok"], c["params"]["twom"]) == (2, 0)
    )
    assert case["pass"]


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

    twoj, twon, twom = 2, 0, 0
    lhs_terms, rhs_terms = _recurrence_terms_reference("iv", twoj, twon, twom)
    good = _combine(lhs_terms, SL) - _combine(rhs_terms, SL)
    assert good.is_zero()
    coef, dspec, rightmul = lhs_terms[1]
    assert coef == sqrt_nat((twoj + twon + 2) // 2).scaled(Q(twon + 1)) * H
    bad_terms = [lhs_terms[0], (sqrt_nat((twoj + twon) // 2).scaled(Q(twon + 1)) * H, dspec, rightmul)]
    bad = _combine(bad_terms, SL) - _combine(rhs_terms, SL)
    assert not bad.is_zero()


def _spy_products(monkeypatch):
    """Record every NCPoly product (d, g) and every swap_xy input."""
    calls, swaps = [], []
    mul, swap = NCPoly.__mul__, NCPoly.swap_xy

    def spy_mul(self, other):
        calls.append((self, other))
        return mul(self, other)

    def spy_swap(self):
        swaps.append(self)
        return swap(self)

    monkeypatch.setattr(NCPoly, "__mul__", spy_mul)
    monkeypatch.setattr(NCPoly, "swap_xy", spy_swap)
    return calls, swaps


def _canonical(*index_pairs):
    """Whether the SL engine multiplies this member of a sigma pair itself:
    its index tuple is at least its partner's, with (k, m) -> (-m, -k)."""
    flat = tuple(i for pair in index_pairs for i in pair)
    return flat >= tuple(i for k, m in index_pairs for i in (-m, -k))


# the index (a, b) of each generator T_ab
_GEN_INDEX = {g: ab for ab, g in hc._GEN_AT.items()}


def _letter_products_read(which, twoj, ring):
    """_products_read as _dprod keys them: (spin, row, col, a, b) of each
    D-entry times T_ab."""
    return {(j, mp, m, *_GEN_INDEX[g]) for j, mp, m, g in _products_read(which, twoj, ring)}


def _dprod_entries():
    """Every memoised product as (2j1, k1, m1, 2j2, k2, m2, ring)."""
    return {
        (j1, k1, m1, j2, k2, m2, ring)
        for (j1, j2, ring), memo in hc._DPROD_MEMO.items()
        for k1, m1, k2, m2 in memo
    }


@pytest.mark.parametrize("ring, twoj", [(SL, 1), (SL, 2), (SL, 3), (GL, 2)])
def test_recurrences_multiply_each_entry_and_letter_once(monkeypatch, ring, twoj):
    # with the D-matrices built, the only products are _dprod misses at
    # the spins (j', 1/2): an in-band D-entry times one generator T_ab,
    # and none for an entry the tables leave out.  GL multiplies each
    # distinct pair the table rows read once.  SL multiplies each
    # canonical pair read once, and every other pair read is swap_xy of
    # its memoised sigma partner, which is read as well: at sl-1, 23
    # products for 39 pairs.  The sigma partner of D_{m'm} T_ab is
    # D_{-m,-m'} T_{-b,-a}, so a self-partner D-entry times x is the
    # partner of its product with y, and only one of the two is made
    from slh2.dfun import ORDERED1, dfunc

    for t in range(max(twoj - 1, 0), twoj + 2):
        dmatrix(t, ring=ring)
    want = set()
    for which in hc.RING_RECURRENCES[ring]:
        want |= _letter_products_read(which, twoj, ring)
    made = {key for key in want if ring == GL or _canonical(key[1:3], key[3:5])}
    swapped = want - made
    partner = {key: (key[0], -key[2], -key[1], -key[4], -key[3]) for key in swapped}
    assert set(partner.values()) <= made
    calls, swaps = _spy_products(monkeypatch)
    hc._DPROD_MEMO.clear()
    for _ in range(2):
        for which in hc.RING_RECURRENCES[ring]:
            assert hc.recurrence_check(which, twoj, ring).ok
    if (ring, twoj) == (SL, 1):
        assert (len(made), len(want)) == (23, 39)
    assert len(calls) == len(made) > 0 and (ring == GL or swapped)
    assert sorted(map(repr, calls)) == sorted(
        repr((dfunc(j, mp, m, ORDERED1, ring), NCPoly.generator(hc._GEN_AT[a, b], ring)))
        for j, mp, m, a, b in made
    )
    assert all(spins[1:] == (1, ring) for spins in hc._DPROD_MEMO)
    memo = {(j, *key): p for (j, _, _), spin in hc._DPROD_MEMO.items() for key, p in spin.items()}
    assert set(memo) == want
    assert sorted(map(repr, swaps)) == sorted(repr(memo[partner[key]]) for key in swapped)
    for key in swapped:
        assert memo[key] == memo[partner[key]].swap_xy()


def test_dprod_memo_keeps_only_the_spin_pairs_still_read():
    # a loop up in 2j keeps the products D^{j'} T with 2j' >= 2j - 1:
    # after 2j = 1..6, those of D^{5/2} (read at 2j = 4 and 6), D^3 (at
    # 2j = 5) and D^{7/2} (at 2j = 6), each read pair once
    hc._DPROD_MEMO.clear()
    read = {}
    for twoj in range(1, 7):
        for which in hc.RECURRENCES:
            assert hc.recurrence_check(which, twoj, SL).ok
            for j, mp, m, a, b in _letter_products_read(which, twoj, SL):
                read.setdefault(j, set()).add((mp, m, a, b))
    assert sum(map(len, read.values())) == 814
    assert sorted(hc._DPROD_MEMO) == [(spin, 1, SL) for spin in (5, 6, 7)]
    left = {spin: set(memo) for (spin, _, _), memo in hc._DPROD_MEMO.items()}
    assert left == {spin: read[spin] for spin in (5, 6, 7)}
    assert [len(left[spin]) for spin in (5, 6, 7)] == [144, 195, 255]


@pytest.mark.parametrize("ring", [SL, GL])
def test_recurrence_products_equal_the_letter_oracle(ring):
    # every D^{j'} T product the recurrences read for 2j <= 5, sigma
    # images included, is the D-entry times its generator
    from slh2.dfun import ORDERED1, dfunc

    hc._DPROD_MEMO.clear()
    checked = set()
    for twoj in range(1, 6):
        for which in hc.RING_RECURRENCES[ring]:
            assert hc.recurrence_check(which, twoj, ring).ok
        for (j, twoj2, r), memo in hc._DPROD_MEMO.items():
            assert (twoj2, r) == (1, ring)
            for (mp, m, a, b), p in memo.items():
                assert p == dfunc(j, mp, m, ORDERED1, ring) * NCPoly.generator(hc._GEN_AT[a, b], ring)
                checked.add((j, mp, m, a, b))
    assert {j for j, *_ in checked} == set(range(7 if ring == SL else 5))
    hc._DPROD_MEMO.clear()


def test_dprod_outside_the_band_is_zero_and_not_stored():
    # an index outside the band of j1, as a recurrence reads one step
    # beyond it, reads zero with no product made and no entry stored
    hc._DPROD_MEMO.clear()
    for ring in (SL, GL):
        for j1, k1, m1 in [(3, 5, 1), (3, 1, -5), (2, 4, 4), (0, 2, 0), (4, 6, -6)]:
            for k2, m2 in hc._GEN_AT:
                assert hc._dprod(j1, k1, m1, 1, k2, m2, ring) == NCPoly.zero(ring)
            assert hc._dprod(j1, k1, m1, 2, 0, 2, ring).is_zero()
    assert hc._DPROD_MEMO == {}


def test_recurrence_detects_a_wrong_letter_coefficient(monkeypatch):
    # negative control: flipping the sign of the h entries Omega[(m+1/2,
    # +1/2), m] of omega(1/2, 1/2, 1) flips both h terms of the written
    # relation i at 2j = 2: the h(m+1) x letter on the right and, as the
    # row (k-1/2, +1/2) is read on the left too, the h(k-1) D^j_{k-1,m}
    # term there.  i fails exactly where one of them survives, with its
    # entry in the band and its root non-zero.  wigner_check reads the
    # same table, and its rel1 fails too
    from slh2 import rep

    good = rep.omega(1, 1, 2)
    bad = {((m1, m2), m): -c if (m1 - m, m2) == (1, 1) else c for ((m1, m2), m), c in good.items()}
    assert sum(bad[key] != c for key, c in good.items()) == 2
    monkeypatch.setattr(hc, "omega", lambda *spins: bad if spins == (1, 1, 2) else rep.omega(*spins))
    # rel3 reads the table too: its cached records are cleared before the
    # patch, and after it, so that the bad rel3 reaches no later test
    hc._rel3.cache_clear()
    try:
        report = hc.recurrence_check("i", 2)
        wigner = hc.wigner_check(1, 1, 2, SL)
    finally:
        hc._rel3.cache_clear()
    assert report.failed == 6
    for case in report.cases:
        k, m = case["params"]["twok"], case["params"]["twom"]
        lhs, rhs = map(_keyed, _recurrence_terms_reference("i", 2, k, m))
        survives = (2, k - 2, m, None) in lhs or (1, k - 1, m + 1, X) in rhs
        assert case["pass"] != survives, case["params"]
    assert any(not c["pass"] for c in wigner.cases if c["params"]["law"] == "rel1")


def test_recurrence_shapes_equal_the_eight_written_relations():
    # every instance recurrence_check reads for 2j <= 12: the written
    # terms are s times the table's, coefficient by coefficient (int
    # values stay int)
    from slh2.rep import magnetics

    def types(side):
        return {key: [type(q) for q in c.raw().values()] for key, c in side.items()}

    count = 0
    for twoj in range(1, 13):
        for which in hc.RECURRENCES:
            s = _scale(which, twoj)
            for twok in range(-twoj - 2, twoj + 4, 2):
                for twom in magnetics(twoj):
                    want = [_keyed(side) for side in _recurrence_terms_reference(which, twoj, twok, twom)]
                    got = [
                        {key: s * c for key, c in side.items()}
                        for side in _table_terms(which, twoj, twok, twom)
                    ]
                    assert got == want, (which, twoj, twok, twom)
                    assert list(map(types, got)) == list(map(types, want)), (which, twoj, twok, twom)
                    count += 1
    assert count == 7984


def test_recurrence_pairs_are_spin_half_cgcs():
    # the written pair (a, b)(m) of the lowering relations is sqrt(2j)
    # times the couplings (m - 1/2, +1/2 | m) and (m + 1/2, -1/2 | m) of
    # j - 1/2 and 1/2 into j; raising is -sqrt(2j + 2) times the same
    # couplings of j + 1/2 and 1/2.  omega and mho hold them unchanged
    # where m1 + m2 = m
    from slh2.rep import cgc_classical, magnetics, mho, omega

    for twoj in range(1, 12):
        for which, twojp, scale in (("i", twoj - 1, sqrt_nat(twoj)),
                                    ("v", twoj + 1, -sqrt_nat(twoj + 2))):
            cgc = cgc_classical(twojp, 1, twoj)
            om, mh = omega(twojp, 1, twoj), mho(twojp, 1, twoj)
            for twom in magnetics(twoj):
                (a, _, _), (b, _, _) = _recurrence_terms_reference(which, twoj, twoj, twom)[1]
                for key, want in ((((twom - 1, 1), twom), a), (((twom + 1, -1), twom), b)):
                    c = cgc.get(key, ZERO)
                    assert want == scale * c, (twoj, which, key)
                    assert om.get(key, ZERO) == mh.get(key, ZERO) == c, (twoj, which, key)


def test_recurrence_detects_a_wrong_raising_sign(monkeypatch):
    # negative control: the raising tables omega(3/2, 1/2, 1) and
    # mho(3/2, 1/2, 1) with every entry from the coupling (m + 1/2, -1/2 |
    # m), the b of the written relations, negated break each of v-viii
    # and leave i-iv alone
    from slh2 import rep

    def flipped(table):
        def read(*spins):
            if spins != (3, 1, 2):
                return table(*spins)
            return {(pair, m): -c if pair[0] - m == 1 else c for (pair, m), c in table(*spins).items()}
        return read

    monkeypatch.setattr(hc, "omega", flipped(rep.omega))
    monkeypatch.setattr(hc, "mho", flipped(rep.mho))
    for which in hc.RECURRENCES:
        report = hc.recurrence_check(which, 2)
        assert report.ok == (which in ("i", "ii", "iii", "iv")), which


@pytest.mark.parametrize("ring", [SL, GL])
def test_recurrence_detects_a_wrong_d_entry(ring):
    # mutation: one coefficient of the cached D^2_{1,-1} doubled breaks
    # each of i-iv at 2j = 4, which reads it on the left, and at 2j = 5,
    # which reads it times a generator on the right
    from slh2.dfun import ORDERED1, dfunc

    terms = dfunc(4, 2, -2, ORDERED1, ring)._terms
    key = min(terms, key=unpack)
    q = terms[key]
    hc._DPROD_MEMO.clear()
    terms[key] = 2 * q
    try:
        failed = {
            (which, twoj): hc.recurrence_check(which, twoj, ring).failed
            for twoj in (4, 5)
            for which in ("i", "ii", "iii", "iv")
        }
    finally:
        terms[key] = q
        hc._DPROD_MEMO.clear()
    assert all(failed.values()), failed


def test_unknown_recurrence_keeps_the_dprod_memo():
    # the name is checked before the ring and before the per-spin eviction
    hc._DPROD_MEMO.clear()
    for twoj in range(1, 5):
        for which in hc.RECURRENCES:
            assert hc.recurrence_check(which, twoj, SL).ok
    before = {spins: dict(memo) for spins, memo in hc._DPROD_MEMO.items()}
    assert sorted(before) == [(3, 1, SL), (4, 1, SL), (5, 1, SL)]
    for ring in (SL, GL):
        with pytest.raises(ValueError, match="unknown recurrence 'ix'"):
            hc.recurrence_check("ix", 9, ring)
    assert hc._DPROD_MEMO == before


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


def test_ortho_sides_equal_the_direct_sums(monkeypatch):
    # every case of ortho_like_check for 2j <= 5, the ortho2 cases made
    # as sigma of ortho1 cases, has the sides of a direct loop over the
    # rows of F and F^-1
    from slh2 import ncalg
    from slh2.rep import f_inv_matrix, f_matrix, pair_basis

    seen = _recorded_sides(monkeypatch)
    index = lambda params: (params["law"], *[v for k, v in params.items() if k not in ("law", "twoj")])
    for twoj in range(6):
        seen.clear()
        report = hc.ortho_like_check(twoj)
        assert report.ok
        f, f_inv = f_matrix(twoj, twoj), f_inv_matrix(twoj, twoj)
        basis = pair_basis(twoj, twoj)
        sign = lambda a1, b1: -1 if ((a1 - b1) // 2) % 2 else 1
        want = {}
        for a1, a2 in basis:
            lhs = ncalg.lincomb(
                ((c.scaled(sign(a1, m1)), hc._dprod(twoj, a1, m1, twoj, a2, m2, SL))
                 for m1, m2 in basis if (c := f.get(((m1, m2), (m1, -m1))))), SL)
            want["ortho1", a1, a2] = lhs, NCPoly.scalar(f.get(((a1, a2), (a1, -a1)), ZERO), SL)
        for a1, a2 in basis:
            lhs = ncalg.lincomb(
                ((c.scaled(sign(a1, k1)), hc._dprod(twoj, k1, a1, twoj, k2, a2, SL))
                 for k1, k2 in basis if (c := f_inv.get(((k1, -k1), (k1, k2))))), SL)
            want["ortho2", a1, a2] = lhs, NCPoly.scalar(f_inv.get(((a1, -a1), (a1, a2)), ZERO), SL)
        assert {index(params): (lhs, rhs) for _, params, lhs, rhs in seen} == want, twoj
        assert [index(c["params"]) for c in report.cases] == list(want)


def test_ortho2_detects_a_wrong_inverse_twist(monkeypatch):
    # negative control of the sigma premise: with one diagonal entry of
    # F^-1 at 2j = 2 doubled, F^-1[(b1,-b1),(b1,b2)] is no longer
    # F[(-b1,-b2),(-b1,b1)], so ortho2 must be summed off the patched
    # table and fail, while ortho1 passes
    from slh2 import rep

    bad = dict(rep.f_inv_matrix(2, 2))
    bad[(-2, 2), (-2, 0)] = bad[(-2, 2), (-2, 0)] * 2
    monkeypatch.setattr(hc, "f_inv_matrix", lambda *spins: bad if spins == (2, 2) else rep.f_inv_matrix(*spins))
    report = hc.ortho_like_check(2)
    assert _law_counts(report, ("ortho1", "ortho2")) == {"ortho1": (0, 9), "ortho2": (9, 9)}
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "42c6e9f9d51ef3caf0b741f8acf2dbad2396bd4ea68256ba042bb26e1351c8c2"
    )


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
    # misses, and each pair of D-entries that a side reads is one entry
    # of the memo.
    # The engine multiplies each canonical pair read once; every other
    # pair read is swap_xy of its cached sigma partner, read as well
    from slh2.dfun import ORDERED1, dfunc
    from slh2.rep import pair_basis, r_matrix

    twoj1, twoj2 = pair
    for twoj in pair:
        dmatrix(twoj)
    read = set()
    for (m1, m2), (s1, s2) in r_matrix(twoj1, twoj2):
        for k1, k2 in pair_basis(twoj1, twoj2):
            read.add((twoj1, s1, k1, twoj2, s2, k2))  # row (m1, m2) of R
            read.add((twoj2, k2, m2, twoj1, k1, m1))  # column (s1, s2) of R
    made = {ix for ix in read if _canonical(ix[1:3], ix[4:6])}
    swapped = read - made
    partner = {ix: (ix[0], -ix[2], -ix[1], ix[3], -ix[5], -ix[4]) for ix in swapped}
    assert swapped and set(partner.values()) <= made
    calls, swaps = _spy_products(monkeypatch)
    hc._DPROD_MEMO.clear()
    assert hc.rtt_check(*pair).ok
    assert _dprod_entries() == {ix + (SL,) for ix in read}
    assert len(calls) == len(made)
    assert sorted(map(repr, calls)) == sorted(
        repr((dfunc(a, k1, m1, ORDERED1, SL), dfunc(b, k2, m2, ORDERED1, SL)))
        for a, k1, m1, b, k2, m2 in made
    )
    assert sorted(map(repr, swaps)) == sorted(repr(hc._dprod(*partner[ix], SL)) for ix in swapped)
    for ix in swapped:
        assert hc._dprod(*ix, SL) == hc._dprod(*partner[ix], SL).swap_xy()


def _entries(twoj_max):
    """(2j, 2m', 2m) of every D-entry with 2j <= twoj_max."""
    from slh2.rep import magnetics

    return [(j, mp, m) for j in range(twoj_max + 1) for mp in magnetics(j) for m in magnetics(j)]


def test_sigma_products_equal_the_plain_products():
    # every D D product with 2j1, 2j2 <= 4 and every D-entry times a
    # letter with 2j <= 5, made cold so that each non-canonical member
    # is swap_xy of its partner, equals the plain NCPoly product
    from slh2.dfun import ORDERED1, dfunc

    hc._DPROD_MEMO.clear()
    d = lambda j, mp, m: dfunc(j, mp, m, ORDERED1, SL)
    entries = _entries(4)
    pairs = [(e1, e2) for e1 in entries for e2 in entries]
    assert len(pairs) == 3025
    for (j1, k1, m1), (j2, k2, m2) in pairs:
        assert hc._dprod(j1, k1, m1, j2, k2, m2, SL) == d(j1, k1, m1) * d(j2, k2, m2)
    letters = [(e, ab) for e in _entries(5) for ab in hc._GEN_AT]
    assert len(letters) == 364
    for (j, mp, m), (a, b) in letters:
        assert hc._dprod(j, mp, m, 1, a, b, SL) == d(j, mp, m) * NCPoly.generator(hc._GEN_AT[a, b], SL)
    hc._DPROD_MEMO.clear()


def test_sigma_products_equal_the_naive_rewriter():
    # independent oracle: each D D product with 2j1 + 2j2 <= 3 is the sum
    # over the word pairs of its factors of the naive normal form of the
    # concatenated word, with no engine product
    from slh2.pbwcheck import naive_normal_form

    hc._DPROD_MEMO.clear()
    entries = _entries(3)
    for (j1, k1, m1), (j2, k2, m2) in product(entries, entries):
        if j1 + j2 > 3:
            continue
        want = {}
        for w1, c1 in dmatrix(j1).entry(k1, m1).terms().items():
            for w2, c2 in dmatrix(j2).entry(k2, m2).terms().items():
                for w, c in naive_normal_form(word_letters(w1) + word_letters(w2), SL).items():
                    want[w] = want.get(w, ZERO) + c1 * c2 * c
        want = {w: c for w, c in want.items() if not c.is_zero()}
        assert hc._dprod(j1, k1, m1, j2, k2, m2, SL).terms() == want, (j1, k1, m1, j2, k2, m2)


def test_gl_products_make_no_sigma_swap(monkeypatch):
    # sigma needs a rewrite in GL: its products are all made by the engine
    for twoj in range(4):
        dmatrix(twoj, ring=GL)
    calls, swaps = _spy_products(monkeypatch)
    hc._DPROD_MEMO.clear()
    assert hc.rtt_check(1, 2, GL).ok
    for which in hc.RING_RECURRENCES[GL]:
        assert hc.recurrence_check(which, 2, GL).ok
    assert calls and not swaps
    hc._DPROD_MEMO.clear()


def test_sigma_products_detect_a_wrong_partner(monkeypatch):
    # mutation: with the partner of D_{km} read as D_{-k,-m} in place of
    # D_{-m,-k}, a swapped product is a transposed one, and the suites
    # that read the swapped products must fail
    monkeypatch.setattr(hc, "_sigma_index", lambda twomp, twom: (-twomp, -twom))
    hc._DPROD_MEMO.clear()
    try:
        assert not hc.rtt_check(1, 2).ok
        assert not hc.ortho_like_check(2).ok
        assert not hc.recurrence_check("i", 2).ok
    finally:
        hc._DPROD_MEMO.clear()


def test_suites_build_no_product_with_zero_coefficient():
    # the suites multiply D-entries only where a coupling or twist
    # coefficient is non-zero; the memo sizes pin that.  wigner (1, 2, 3)
    # and the left side of rtt (1, 2) need every product D^{1/2} D^1 of
    # the 6 x 6 entry pairs, the right side of rtt every D^1 D^{1/2}:
    # 2 x 36 misses.  ortho1 at 2j = 2 reads the 9 rows times the 4
    # non-zero diagonal entries of F, 36 products, 7 of which are made as
    # sigma of a partner it does not read; ortho2 is sigma of ortho1 and
    # reads no product
    hc._DPROD_MEMO.clear()
    hc.wigner_check(1, 2, 3)
    hc.rtt_check(1, 2)
    assert len(_dprod_entries()) == 72
    hc._DPROD_MEMO.clear()
    hc.ortho_like_check(2)
    assert len(_dprod_entries()) == 43  # of 81 entry pairs


def test_rtt_spans_defining_relations():
    rep = hc.rtt_frt_check()
    assert rep.ok, rep.first_failure()
    rank_case = [c for c in rep.cases if c["params"].get("direction") == "rank"]
    assert rank_case and rank_case[0]["pass"]


def test_rtt_span_detects_a_wrong_relation(monkeypatch):
    # negative control: xv -> vx + h v^2, the h v^2 sign flipped, is not in
    # the span of the RTT system, nor does it span it
    rules = dict(GL_RULES)
    rules[(X, V)] = (((V, X), ONE), ((V, V), H))
    monkeypatch.setattr(hc.ncalg, "GL_RULES", rules)
    rep = hc.rtt_frt_check()
    assert (rep.passed, rep.failed) == (15, 7)


def test_rtt_span_detects_a_wrong_r_matrix(monkeypatch):
    # negative control: R[(1/2, 1/2), (1/2, -1/2)] = h doubled, on a copy:
    # the cached R is shared by every caller
    from slh2 import rep

    before = dict(rep.r_matrix(1, 1))
    wrong = dict(before)
    wrong[((1, 1), (1, -1))] = wrong[((1, 1), (1, -1))] * 2
    monkeypatch.setattr(hc, "r_matrix", lambda twoj1, twoj2: wrong)
    report = hc.rtt_frt_check()
    assert (report.passed, report.failed) == (13, 9)
    # the same R fails R T1 T2 = T2 T1 R read through the shared R reader
    report = hc.rtt_check(1, 1)
    assert (report.passed, report.failed) == (9, 7)
    assert rep.r_matrix(1, 1) == before


def test_report_json_shape():
    rep = hc.check_corep(1)
    obj = rep.to_json()
    assert set(obj) == {"suite", "cases", "passed", "failed"}
    assert obj["failed"] == 0
    assert all(c["pass"] for c in obj["cases"])


# Delta sigma = tau (sigma (x) sigma) Delta: check_corep takes the
# coproducts of the SL entries with m' + m < 0 from their partners'.


@pytest.mark.parametrize("scheme", ["ordered1", "ordered2", "jacobi", "classical"])
def test_sigma_coproduct_equals_the_coproduct_of_each_sl_entry(scheme):
    seen = 0
    for twoj in range(7):
        d = dmatrix(twoj, scheme, SL)
        for twomp in range(twoj, -twoj - 1, -2):
            for twom in range(twoj, -twoj - 1, -2):
                partner = d.entry(-twom, -twomp)
                assert hc.sigma_coproduct(hc.coproduct(partner)) == hc.coproduct(d.entry(twomp, twom))
                seen += 1
    assert seen == 140


def test_corep_takes_the_lower_sl_coproducts_from_their_partners(monkeypatch):
    made, images = [], []
    coproduct, sigma_coproduct = hc.coproduct, hc.sigma_coproduct
    monkeypatch.setattr(hc, "coproduct", lambda p: made.append(p) or coproduct(p))
    monkeypatch.setattr(hc, "sigma_coproduct", lambda t: images.append(t) or sigma_coproduct(t))
    for twoj in range(5):
        assert hc.check_corep(twoj).ok
    # 55 entries for 2j <= 4, of which 20 have m' + m < 0
    assert (len(made), len(images)) == (35, 20)
    made.clear()
    images.clear()
    for twoj in range(4):
        assert hc.check_corep(twoj, ring=GL).ok
    assert (len(made), len(images)) == (30, 0)


def test_corep_fails_with_the_flip_dropped(monkeypatch):
    # without tau, sigma (x) sigma of a partner's coproduct is not the
    # coproduct of the entry: sigma is a coalgebra anti-map
    assert hc.check_corep(2).ok
    monkeypatch.setattr(hc, "swap_slots", lambda key: key)
    rep = hc.check_corep(2)
    assert not rep.ok
    failed = [(c["params"]["twomp"], c["params"]["twom"]) for c in rep.cases if not c["pass"]]
    assert failed and all(twomp + twom < 0 for twomp, twom in failed)
