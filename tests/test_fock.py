import itertools
import random
from math import comb, factorial, gcd

import pytest

from slh2 import fock, kernel, ncalg
from slh2._rat import Q
from slh2.dfun import CLASSICAL, ORDERED1, dfunc
from slh2.exprio import parse
from slh2.fock import (
    FockOp,
    classical_dop,
    determinant_op,
    eval_free,
    eval_letters,
    evaluate,
    exp_lr,
    twisted_dop,
    twisted_generators,
    two_parameter_generators,
)
from slh2.ncalg import GL, SL, NCPoly, normal_form
from slh2.rep import _binom, magnetics
from slh2.scalar import H, ONE, ZERO, RadScalar, rational, sqrt_nat

V, X, Y, U = ncalg.V, ncalg.X, ncalg.Y, ncalg.U

# the points g = t h at which the two-parameter relations are checked
T_POINTS = range(fock.g_degree_bound(fock._TWO_PARAMETER_RELATIONS) + 1)

A11, A21, A12, A22 = fock.A11, fock.A21, fock.A12, fock.A22


# single bosons, the limit h = 0 and the normalized entries, built here
# as test oracles
def boson(mode, kind, n):
    """The creation or annihilation matrix of one mode on grade n."""
    if kind == "create":
        return fock._creation_monomial(tuple(int(i == mode) for i in range(4)), n)
    if n == 0:
        raise ValueError("cannot annihilate on the vacuum grade")
    idx = fock.state_index(n - 1)
    width = fock.dim(n)
    data = {}
    for j, s in enumerate(fock.states(n)):
        if s[mode]:
            t = list(s)
            t[mode] -= 1
            data[idx[tuple(t)] * width + j] = s[mode]
    return FockOp(n, n - 1, data, -fock.MODE_WEIGHT[mode])


def at_h_zero(op):
    """The limit h = 0 of an operator: its entries of h-degree zero."""
    dst, src = fock.states(op.dst), fock.states(op.src)
    width = len(src)
    data = {
        k: v
        for k, v in op.data.items()
        if fock.weight(dst[k // width]) - fock.weight(src[k % width]) == op.offset
    }
    return FockOp(op.src, op.dst, data, op.offset, op.rad)


def entry(op, dst_state, src_state):
    """The entry of op in the normalized occupation basis, as a RadScalar."""
    row, col = fock.state_index(op.dst)[dst_state], fock.state_index(op.src)[src_state]
    v = op.data.get(row * fock.dim(op.src) + col)
    if v is None:
        return ZERO
    d = fock.weight(dst_state) - fock.weight(src_state) - op.offset
    fd = fs = 1
    for nd, ns in zip(dst_state, src_state):
        fd *= factorial(nd)
        fs *= factorial(ns)
    # sqrt(fd / fs) = sqrt(fd * fs) / fs undoes the basis change
    return sqrt_nat(op.rad * fd * fs).scaled(Q(v) / (fs << d)) * H**d


# the bilinears the library does not use, built here as test oracles:
# J+-, K+- as hops, J0, K0 and the grade operators z_L, z_R as diagonals
def _hop(n, moves):
    """Number-conserving bilinear: sum of single-quantum hops.

    moves is a sequence of (from_mode, to_mode) that all change the weight
    by the same amount; the amplitude of one hop is n_from.
    """
    (shift,) = {fock.MODE_WEIGHT[dst_m] - fock.MODE_WEIGHT[src_m] for src_m, dst_m in moves}
    idx = fock.state_index(n)
    width = fock.dim(n)
    data = {}
    for j, s in enumerate(fock.states(n)):
        for src_m, dst_m in moves:
            if s[src_m] == 0:
                continue
            t = list(s)
            t[src_m] -= 1
            t[dst_m] += 1
            k = idx[tuple(t)] * width + j
            data[k] = data.get(k, 0) + s[src_m]
    return FockOp(n, n, data, shift)


def _diag(n, value):
    width = fock.dim(n)
    data = {}
    for i, s in enumerate(fock.states(n)):
        w = value(s)
        if w:
            data[i * width + i] = w
    return FockOp(n, n, data)


def j_plus(n):
    return _hop(n, ((A11, A21), (A12, A22)))


def k_plus(n):
    return _hop(n, ((A12, A11), (A22, A21)))


def j_minus(n):
    return _hop(n, ((A21, A11), (A22, A12)))


def k_minus(n):
    return _hop(n, ((A11, A12), (A21, A22)))


def j0(n):
    return _diag(n, lambda s: s[A21] + s[A22] - s[A11] - s[A12])


def k0(n):
    return _diag(n, lambda s: s[A11] + s[A21] - s[A12] - s[A22])


def z_l(n):
    return _diag(n, lambda s: -sum(s))


def z_r(n):
    return _diag(n, lambda s: sum(s))


def test_states_dimension():
    for n in range(6):
        assert fock.dim(n) == (n + 1) * (n + 2) * (n + 3) // 6


def test_number_operator():
    # abar a counts quanta: on the pure mode-0 state with n = 3
    num = boson(0, "create", 2) * boson(0, "annihilate", 3)
    assert entry(num, (3, 0, 0, 0), (3, 0, 0, 0)) == rational(3)


def test_ccr():
    for n in range(1, 4):
        for m1 in range(4):
            for m2 in range(4):
                got = boson(m1, "annihilate", n + 1) * boson(m2, "create", n) - boson(
                    m2, "create", n - 1
                ) * boson(m1, "annihilate", n)
                want = FockOp.identity(n) if m1 == m2 else FockOp.zero(n, n)
                assert got == want


def test_commuting_creations():
    for n in range(3):
        for m1 in range(4):
            for m2 in range(4):
                ab = boson(m1, "create", n + 1) * boson(m2, "create", n)
                ba = boson(m2, "create", n + 1) * boson(m1, "create", n)
                assert ab == ba


def test_annihilate_vacuum_rejected():
    with pytest.raises(ValueError):
        boson(0, "annihilate", 0)


def test_bilinear_su2_pairs():
    two = RadScalar.from_rational(2)
    for n in range(4):
        jp, jm, jz = j_plus(n), j_minus(n), j0(n)
        kp, km, kz = k_plus(n), k_minus(n), k0(n)
        assert jz * jp - jp * jz == jp.scaled(two)
        assert jp * jm - jm * jp == jz
        assert kz * kp - kp * kz == kp.scaled(two)
        assert kp * km - km * kp == kz
        for a in (jp, jm, jz):
            for b in (kp, km, kz):
                assert (a * b - b * a).is_zero()


def test_z_operators():
    n = 3
    assert z_l(n) == FockOp.identity(n).scaled(rational(-n))
    assert z_r(n) == FockOp.identity(n).scaled(rational(n))


def test_defining_relations_to_grade_4():
    rep = fock.relations_check(4)
    assert rep.ok, rep.first_failure()


def test_twisted_x_at_h_zero_is_bare_boson():
    for n in range(4):
        x = at_h_zero(fock.twisted_letter(X, n))
        assert x == boson(fock.A11, "create", n)


def test_determinant_undeformed():
    rep = fock.determinant_check(4)
    assert rep.ok, rep.first_failure()


def test_evaluate_rejects_sl():
    with pytest.raises(ValueError):
        evaluate(parse("x", SL), 2)


def test_evaluate_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        evaluate(parse("1 + x", GL), 2)


def test_no_terms_evaluate_to_the_zero_map():
    for n in range(3):
        assert eval_free([], n) == FockOp.zero(n, n)
        assert evaluate(NCPoly.zero(GL), n) == FockOp.zero(n, n)
    with pytest.raises(ValueError, match="mixed degrees"):
        eval_free([((X,), ONE), ((X, V), ONE)], 1)


@pytest.mark.parametrize("word,letter", [("xy", "'y'"), ((7,), "7")], ids=["names", "index-7"])
def test_unknown_letter_raises(word, letter):
    with pytest.raises(ValueError, match=f"not a generator index: {letter}"):
        eval_free([(word, ONE)], 0)


def test_one_letter_word_is_the_letter_itself():
    # no product by the identity, and no second cached copy of the letter
    for g in range(4):
        for n in range(4):
            assert fock.eval_letters((g,), n) is fock.twisted_letter(g, n)


def test_evaluate_identity():
    assert evaluate(parse("7", GL), 3) == FockOp.identity(3).scaled(rational(7))


def test_evaluate_determinant():
    p = parse("D", GL)
    for n in range(4):
        assert evaluate(p, n) == determinant_op(n)


def test_homomorphism_randomized():
    rep = fock.homomorphism_check(nmax=3, words=40, maxlen=4, seed=3)
    assert rep.ok, rep.first_failure()


def test_homomorphism_on_fixed_hard_words():
    for word in ((U, X), (U, Y, V), (Y, X, U), (U, U, X, V)):
        p = normal_form([(word, ONE)], GL)
        for n in range(4):
            assert evaluate(p, n) == eval_letters(word, n)


# ---------------------------------------------------------------------
# the commutation identities used to move exponential factors around
# ---------------------------------------------------------------------


@pytest.mark.parametrize("k", [Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2)])
def test_sigma_commutators(k):
    # [e^{k sL}, a11] = 2hk e^{(k+1) sL} a21 and its three companions
    twohk = (H + H).scaled(k)
    for n in range(3):
        pairs = [
            ((k, 0), fock.A11, fock.A21),
            ((k, 0), fock.A12, fock.A22),
            ((0, k), fock.A12, fock.A11),
            ((0, k), fock.A22, fock.A21),
        ]
        for (lc, rc), mode, target in pairs:
            lhs = exp_lr(n + 1, lc, rc) * boson(mode, "create", n) - boson(
                mode, "create", n
            ) * exp_lr(n, lc, rc)
            lshift = (lc + 1, rc) if lc else (lc, rc + 1)
            rhs = (exp_lr(n + 1, *lshift) * boson(target, "create", n)).scaled(twohk)
            assert lhs == rhs, (k, mode)


def _lin_op(parts, n):
    out = None
    for g, coef in parts:
        term = fock.twisted_letter(g, n).scaled(coef)
        out = term if out is None else out + term
    return out


def _chain(factors, n):
    """Compose grade-raising one-letter combinations, leftmost acts last."""
    out = FockOp.identity(n)
    grade = n
    for parts in reversed(factors):
        out = _lin_op(parts, grade) * out
        grade += 1
    return out


@pytest.mark.parametrize("A,B", [(Q(0), Q(0)), (Q(1), Q(-1)), (Q(1, 2), Q(3, 2)), (Q(-2), Q(1))])
def test_exponential_moves_through_a11_powers(A, B):
    # (a11)^K e^{(A sL + B sR)/2} =
    #   e^{((A+K) sL + (B-K) sR)/2} (x - h(A+K)v) ... (x - h(A+1)v)
    for K in range(4):
        for n in range(3):
            lhs = fock._creation_monomial((K, 0, 0, 0), n) * exp_lr(
                n, A / 2, B / 2
            )
            factors = [
                [(X, ONE), (V, -H.scaled(A + i))] for i in range(K, 0, -1)
            ]
            rhs = exp_lr(n + K, (A + K) / 2, (B - K) / 2) * _chain(factors, n)
            assert lhs == rhs, (A, B, K, n)


@pytest.mark.parametrize("A,B", [(Q(0), Q(0)), (Q(1), Q(-1)), (Q(1, 2), Q(3, 2))])
def test_exponential_moves_through_other_powers(A, B):
    for P in range(3):
        for n in range(3):
            # (a21)^L: picks up only v factors
            lhs = fock._creation_monomial((0, P, 0, 0), n) * exp_lr(n, A / 2, B / 2)
            factors = [[(V, ONE)]] * P
            rhs = exp_lr(n + P, (A - P) / 2, (B - P) / 2) * _chain(factors, n)
            assert lhs == rhs, ("a21", A, B, P, n)
            # (a12)^M: the four-term u factors
            lhs = fock._creation_monomial((0, 0, P, 0), n) * exp_lr(n, A / 2, B / 2)
            factors = [
                [
                    (U, ONE),
                    (X, -H.scaled(B + i)),
                    (Y, -H.scaled(A + i)),
                    (V, (H * H).scaled((A + i) * (B + i))),
                ]
                for i in range(P, 0, -1)
            ]
            rhs = exp_lr(n + P, (A + P) / 2, (B + P) / 2) * _chain(factors, n)
            assert lhs == rhs, ("a12", A, B, P, n)
            # (a22)^N: y factors (with the sign pattern y - h(B+i)v)
            lhs = fock._creation_monomial((0, 0, 0, P), n) * exp_lr(n, A / 2, B / 2)
            factors = [
                [(Y, ONE), (V, -H.scaled(B + i))] for i in range(P, 0, -1)
            ]
            rhs = exp_lr(n + P, (A - P) / 2, (B + P) / 2) * _chain(factors, n)
            assert lhs == rhs, ("a22", A, B, P, n)


@pytest.mark.parametrize("twomp,twom", [(0, 0), (2, 0), (0, 2), (2, -2), (-2, 2), (1, 1), (1, -1)])
def test_jacobi_variable_change_identity(twomp, twom):
    # (uv)^r e^{-m' sL + m sR} =
    #   e^{-m' sL + m sR} {uv - 2h(-m' yv + m xv) - 4h^2 m m' v^2}^r
    mp, m = Q(twomp, 2), Q(twom, 2)

    def pairop(g1, g2, n):
        return fock.twisted_letter(g1, n + 1) * fock.twisted_letter(g2, n)

    for r in range(3):
        for n in range(3):
            # left side: (uv)^r after the exponential
            op = exp_lr(n, -mp, m)
            grade = n
            for _ in range(r):
                op = pairop(U, V, grade) * op
                grade += 2
            lhs = op
            # right side: zeta^r then the exponential
            zeta = lambda k: (
                pairop(U, V, k)
                + pairop(Y, V, k).scaled((H + H).scaled(mp))
                - pairop(X, V, k).scaled((H + H).scaled(m))
                - pairop(V, V, k).scaled((H * H).scaled(4 * mp * m))
            )
            op = FockOp.identity(n)
            grade = n
            for _ in range(r):
                op = zeta(grade) * op
                grade += 2
            rhs = exp_lr(n + 2 * r, -mp, m) * op
            assert lhs == rhs, (twomp, twom, r, n)


# ---------------------------------------------------------------------
# tensor operator laws of the undeformed matrix elements
# ---------------------------------------------------------------------


def _tensor_commutator(side, dop, twoj, n):
    lift = {"jp": j_plus, "jm": j_minus, "j0": j0,
            "kp": k_plus, "km": k_minus, "k0": k0,
            "zl": z_l, "zr": z_r}[side]
    return lift(n + twoj) * dop - dop * lift(n)


@pytest.mark.parametrize("twoj", [0, 1, 2])
def test_left_tensor_operator_laws(twoj, nmax=2):
    for twomp in magnetics(twoj):
        for twom in magnetics(twoj):
            for n in range(nmax + 1):
                d = classical_dop(twoj, twomp, twom, n)
                # [J+, D] = sqrt((j+m')(j-m'+1)) D_{m'-1, m}
                amp = (twoj + twomp) * (twoj - twomp + 2) // 4
                want = (
                    classical_dop(twoj, twomp - 2, twom, n).scaled(sqrt_nat(amp))
                    if twomp > -twoj
                    else FockOp.zero(n, n + twoj)
                )
                assert _tensor_commutator("jp", d, twoj, n) == want
                # [J-, D] = sqrt((j-m')(j+m'+1)) D_{m'+1, m}
                amp = (twoj - twomp) * (twoj + twomp + 2) // 4
                want = (
                    classical_dop(twoj, twomp + 2, twom, n).scaled(sqrt_nat(amp))
                    if twomp < twoj
                    else FockOp.zero(n, n + twoj)
                )
                assert _tensor_commutator("jm", d, twoj, n) == want
                assert _tensor_commutator("j0", d, twoj, n) == d.scaled(
                    rational(-twomp)
                )
                assert _tensor_commutator("zl", d, twoj, n) == d.scaled(
                    rational(-twoj)
                )


@pytest.mark.parametrize("twoj", [0, 1, 2])
def test_right_tensor_operator_laws(twoj, nmax=2):
    for twomp in magnetics(twoj):
        for twom in magnetics(twoj):
            for n in range(nmax + 1):
                d = classical_dop(twoj, twomp, twom, n)
                # [K+, D] = sqrt((j-m)(j+m+1)) D_{m', m+1}
                amp = (twoj - twom) * (twoj + twom + 2) // 4
                want = (
                    classical_dop(twoj, twomp, twom + 2, n).scaled(sqrt_nat(amp))
                    if twom < twoj
                    else FockOp.zero(n, n + twoj)
                )
                assert _tensor_commutator("kp", d, twoj, n) == want
                amp = (twoj + twom) * (twoj - twom + 2) // 4
                want = (
                    classical_dop(twoj, twomp, twom - 2, n).scaled(sqrt_nat(amp))
                    if twom > -twoj
                    else FockOp.zero(n, n + twoj)
                )
                assert _tensor_commutator("km", d, twoj, n) == want
                assert _tensor_commutator("k0", d, twoj, n) == d.scaled(
                    rational(twom)
                )
                assert _tensor_commutator("zr", d, twoj, n) == d.scaled(
                    rational(twoj)
                )


def test_classical_dop_spot_values():
    # j=1/2, (1/2,1/2) is the bare creation operator of mode a_1^1
    for n in range(3):
        assert classical_dop(1, 1, 1, n) == boson(fock.A11, "create", n)
        assert classical_dop(1, -1, 1, n) == boson(fock.A21, "create", n)


def test_twisted_dop_matches_generators():
    for n in range(4):
        tg = twisted_generators(n)
        assert twisted_dop(1, 1, 1, n) == tg["x"]
        assert twisted_dop(1, 1, -1, n) == tg["u"]
        assert twisted_dop(1, -1, 1, n) == tg["v"]
        assert twisted_dop(1, -1, -1, n) == tg["y"]


def test_twisted_dop_classical_limit():
    for twoj in (1, 2):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                for n in range(3):
                    got = at_h_zero(twisted_dop(twoj, twomp, twom, n))
                    assert got == classical_dop(twoj, twomp, twom, n)


def test_twisted_dop_equals_ordered_form():
    rep = fock.twisted_dop_check(2, 3)
    assert rep.ok, rep.first_failure()


def test_ordered_form_fock_equality_spin_3half():
    # one step beyond the suite default, at low grades
    for twomp in magnetics(3):
        for twom in magnetics(3):
            p = dfunc(3, twomp, twom, ORDERED1, GL)
            for n in range(2):
                assert evaluate(p, n) == twisted_dop(3, twomp, twom, n)


def test_classical_scheme_matches_classical_dop():
    for twoj in (1, 2):
        for twomp in magnetics(twoj):
            for twom in magnetics(twoj):
                p = dfunc(twoj, twomp, twom, CLASSICAL, GL)
                for n in range(3):
                    got = at_h_zero(evaluate(p, n))
                    assert got == classical_dop(twoj, twomp, twom, n)


# ---------------------------------------------------------------------
# two-parameter extension
# ---------------------------------------------------------------------


def test_two_parameter_relations():
    rep = fock.two_parameter_check(3)
    assert rep.ok, rep.first_failure()


def test_two_parameter_reduces_at_g_zero():
    # at g = t h the g n terms are t n h multiples; t = 0 leaves x, u, v, y
    for t in T_POINTS:
        for n in range(4):
            tp = two_parameter_generators(n, t)
            tg = twisted_generators(n)
            gn = H.scaled(t * n)
            assert tp["a"] - tg["x"] == tg["v"].scaled(gn)
            assert tp["b"] - tg["u"] == (tg["y"] - tg["x"]).scaled(gn) - tg["v"].scaled(gn * gn)
            assert tp["c"] == tg["v"]
            assert tp["d"] - tg["y"] == -tg["v"].scaled(gn)
            if t == 0:
                for a, b in (("a", "x"), ("b", "u"), ("c", "v"), ("d", "y")):
                    assert tp[a] == tg[b]


def test_two_parameter_ac_relation_explicit():
    # [a, c] = -(h-g) c^2 on low grades, at every point g = t h
    for t in T_POINTS:
        for n in range(3):
            lo = two_parameter_generators(n, t)
            hi = two_parameter_generators(n + 1, t)
            com = hi["a"] * lo["c"] - hi["c"] * lo["a"]
            assert com == (hi["c"] * lo["c"]).scaled(H.scaled(t - 1))


def test_fock_suite_aggregate():
    rep = fock.fock_suite(nmax=2, with_g=True)
    assert rep.ok, rep.first_failure()


@pytest.mark.parametrize(
    "check",
    [
        fock.relations_check,
        fock.determinant_check,
        fock.homomorphism_check,
        lambda nmax: fock.twisted_dop_check(2, nmax),
        fock.two_parameter_check,
    ],
    ids=["relations", "determinant", "homomorphism", "dfunction", "two-parameter"],
)
def test_negative_grade_cutoff_rejected(check):
    # with nmax < 0 no grade is evaluated, so every case would pass vacuously
    with pytest.raises(ValueError):
        check(-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"maxlen": 0}, "word length cutoff maxlen=0 must be at least 1"),
    ({"words": -1}, "word count words=-1 must be at least 1"),
    ({"words": 0}, "word count words=0 must be at least 1"),
])
def test_homomorphism_check_rejects_an_empty_draw(kwargs, message):
    # maxlen = 0 would fail inside random.randint, and words < 1 would
    # give an empty report without saying why
    with pytest.raises(ValueError, match=f"^{message}$"):
        fock.homomorphism_check(nmax=1, **kwargs)


def test_twisted_dop_check_rejects_a_negative_spin():
    # max_twoj = -1 would loop over no spin and give an empty report
    with pytest.raises(ValueError, match=r"^spin -1/2 must be non-negative$"):
        fock.twisted_dop_check(-1, 2)


# ---------------------------------------------------------------------
# the integer representation: basis, offsets, radicands, mutations
# ---------------------------------------------------------------------


# a dense test-local reference for the storage rule: entry (i, j) is
# stored under the int key i * dim(src) + j
def _dense(op):
    width = fock.dim(op.src)
    out = [[0] * width for _ in range(fock.dim(op.dst))]
    for k, v in op.data.items():
        assert type(k) is int and 0 <= k < len(out) * width, k
        i, j = divmod(k, width)
        out[i][j] = v
    return out


def _dense_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _from_dense(m, src, dst, offset):
    width = fock.dim(src)
    data = {i * width + j: v for i, row in enumerate(m) for j, v in enumerate(row) if v}
    return FockOp(src, dst, data, offset)


@pytest.mark.parametrize("n", [0, 1], ids=["1to3-after-0to1", "2to4-after-1to2"])
def test_key_rule_across_grade_blocks_of_unequal_dimension(n):
    # the product's keys use the width of the right factor's source block;
    # here dim(n) differs from dim(n + 1), so the left factor's would fail
    left, left2 = eval_letters((U, X), n + 1), eval_letters((X, U), n + 1)
    right = eval_letters((Y,), n)
    assert fock.dim(left.src) != fock.dim(right.src)
    prod, prod2 = left * right, left2 * right
    want = _dense_mul(_dense(left), _dense(right))
    want2 = _dense_mul(_dense(left2), _dense(right))
    assert _dense(prod) == want
    assert prod == _from_dense(want, n, n + 3, prod.offset)
    assert prod != _from_dense(want2, n, n + 3, prod.offset)
    comb = FockOp.lincomb(n, n + 3, [(3, prod), (-1, prod2)])
    assert _dense(comb) == [
        [3 * a - b for a, b in zip(row, row2)] for row, row2 in zip(want, want2)
    ]
    assert comb == prod.scaled(3) - prod2


def test_cached_operators_have_int_keys():
    fock.relations_check(2)
    misses = fock.eval_letters.cache_info().misses
    for combo in fock._GL_FREE_RELATIONS.values():
        for word, _ in combo:
            for n in range(3):
                op = eval_letters(fock._letters(word), n)
                assert all(type(k) is int for k in op.data), (word, n)
    assert fock.eval_letters.cache_info().misses == misses


def _bumped(state, *changes):
    t = list(state)
    for mode, delta in changes:
        t[mode] += delta
    return tuple(t)


def test_entry_is_the_normalized_amplitude():
    for n in range(4):
        for s in fock.states(n):
            for m in range(4):
                up = _bumped(s, (m, 1))
                assert entry(boson(m, "create", n), up, s) == sqrt_nat(s[m] + 1)
                assert entry(boson(m, "create", n).scaled(H), up, s) == H * sqrt_nat(s[m] + 1)
                if n and s[m]:
                    down = _bumped(s, (m, -1))
                    assert entry(boson(m, "annihilate", n), down, s) == sqrt_nat(s[m])
                for to in range(4):
                    if to == m or not s[m]:
                        continue
                    hop = _hop(n, ((m, to),))
                    moved = _bumped(s, (m, -1), (to, 1))
                    assert entry(hop, moved, s) == sqrt_nat(s[m] * (s[to] + 1))
                    assert entry(hop, s, s) == ZERO


def test_entry_keeps_the_radicand_and_power_of_h():
    # a radical and a power of h in the coefficient survive the basis change
    op = boson(fock.A11, "create", 1).scaled(sqrt_nat(6) * H * H)
    assert entry(op, (2, 0, 0, 0), (1, 0, 0, 0)) == sqrt_nat(12) * H * H
    x = fock.twisted_letter(X, 0)
    assert entry(x, (1, 0, 0, 0), (0, 0, 0, 0)) == ONE


def test_sum_of_unlike_terms_raises():
    x = fock.twisted_letter(X, 1)
    v = fock.twisted_letter(V, 1)
    with pytest.raises(ValueError):
        x + v  # h-offsets 1 and 2
    with pytest.raises(ValueError):
        x - x.scaled(sqrt_nat(2))  # radicands 1 and 2
    with pytest.raises(ValueError):
        FockOp.lincomb(1, 2, [(ONE, x), (H * H, v)])
    with pytest.raises(ValueError):
        x.scaled(ONE + H)  # not one monomial
    assert (x + v.scaled(H)).offset == x.offset
    assert (x - x).is_zero()


def test_two_parameter_degree_bound():
    # the relation table gives degree 3 in g, so the check uses t = 0..3
    assert list(T_POINTS) == [0, 1, 2, 3]
    # each generator's stated g-degree is its true degree: the finite
    # difference of that order over t = 0, 1, ... is the first to vanish
    for n in range(1, 3):
        gens = [two_parameter_generators(n, t) for t in range(4)]
        for name, degree in fock._G_DEGREE.items():
            for order in (degree, degree + 1):
                weights = [(-1) ** (order - i) * comb(order, i) for i in range(order + 1)]
                diff = FockOp.lincomb(n, n + 1, zip(weights, (g[name] for g in gens)))
                assert diff.is_zero() == (order > degree), (name, n, order)


def _mutated_relation(table, name, old, new):
    out = dict(table)
    out[name] = [new if term == old else term for term in table[name]]
    assert out[name] != table[name]
    return out


def test_mutation_wrong_relation_coefficient_fails(monkeypatch):
    table = _mutated_relation(
        fock._GL_FREE_RELATIONS, "[v,x]=hv2", ("vv", -H), ("vv", -H.scaled(2))
    )
    monkeypatch.setattr(fock, "_GL_FREE_RELATIONS", table)
    rep = fock.relations_check(3)
    assert not rep.ok
    assert {c["params"]["relation"] for c in rep.cases if not c["pass"]} == {"[v,x]=hv2"}


def test_mutation_wrong_power_of_h_raises(monkeypatch):
    table = _mutated_relation(
        fock._GL_FREE_RELATIONS, "[u,x]=h(D-x2)", ("xv", H * H), ("xv", H)
    )
    monkeypatch.setattr(fock, "_GL_FREE_RELATIONS", table)
    with pytest.raises(ValueError):
        fock.relations_check(2)


def test_mutation_b_without_g_squared_fails(monkeypatch):
    real = fock.two_parameter_generators

    def mutant(n, t):
        gens = dict(real(n, t))
        gn = H.scaled(t * n)
        gens["b"] = gens["b"] + twisted_generators(n)["v"].scaled(gn * gn)
        return gens

    monkeypatch.setattr(fock, "two_parameter_generators", mutant)
    rep = fock.two_parameter_check(2)
    assert not rep.ok


def test_mutation_h_plus_g_swapped_fails(monkeypatch):
    name = "[c,d]=(h+g)c^2"
    table = _mutated_relation(
        fock._TWO_PARAMETER_RELATIONS, name, ("cc", 0, -1, -1), ("cc", 0, -1, 1)
    )
    monkeypatch.setattr(fock, "_TWO_PARAMETER_RELATIONS", table)
    rep = fock.two_parameter_check(2)
    assert [c["params"] for c in rep.cases if not c["pass"]] == [
        {"relation": name, "grade": n} for n in range(3)
    ]


def test_defining_relations_to_grade_6():
    rep = fock.relations_check(6)
    assert rep.ok, rep.first_failure()
    assert len(rep.cases) == 6 * 7


def test_determinant_undeformed_to_grade_6():
    rep = fock.determinant_check(6)
    assert rep.ok, rep.first_failure()
    assert [c["params"] for c in rep.cases] == [{"grade": n} for n in range(7)]


# ---------------------------------------------------------------------
# the product-free kernels against the paths they replaced
# ---------------------------------------------------------------------

EXPONENTS = [Q(0), Q(1, 2), Q(-1, 2), Q(1), Q(-1), Q(3, 2), Q(-3, 2), Q(-2)]


def _series_by_products(plus, n, e):
    """(1 - 2h P)^e as the finite binomial series, one product per power."""
    power = FockOp.identity(n)
    terms = [(ONE, power)]
    coef = ONE
    k = 0
    while True:
        k += 1
        power = power * plus
        if power.is_zero():
            return FockOp.lincomb(n, n, terms)
        coef = coef * -(H + H)
        terms.append((coef.scaled(_binom(e, k)), power))


@pytest.mark.parametrize("which,plus", [("j", j_plus), ("k", k_plus)])
def test_closed_series_equals_the_series_by_products(which, plus):
    for n in range(8):
        for e in EXPONENTS:
            got = fock._one_minus_pow(which, n, e)
            want = _series_by_products(plus(n), n, e)
            assert got == want, (which, n, e)
            assert (got.offset, got.rad) == (want.offset, want.rad) == (0, 1)
            assert all(type(v) is int for v in got.data.values())


def test_twisted_letter_equals_creation_times_twist():
    for g, (occ, lc, rc) in fock._LETTER_FACTORS.items():
        for n in range(6):
            got = fock.twisted_letter(g, n)
            want = fock._creation_monomial(occ, n) * exp_lr(n, lc, rc)
            assert got == want, (g, n)
            assert (got.offset, got.rad) == (want.offset, want.rad)


def _random_op(rng, src, dst, density):
    width = fock.dim(src)
    data = {}
    for k in range(fock.dim(dst) * width):
        if rng.random() < density:
            data[k] = rng.choice((rng.randint(-9, 9) or 1, Q(rng.randint(1, 9), rng.randint(2, 5))))
    return FockOp(src, dst, data, rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))


@pytest.mark.parametrize("seed", range(6))
def test_column_driven_product_equals_dense_reference(seed):
    rng = random.Random(seed)
    # grade 0 gives a width-1 right operand; density 0 an empty one
    for src, mid, dst in [(0, 0, 1), (0, 2, 3), (1, 1, 2), (2, 1, 3), (1, 3, 2)]:
        for dl, dr in [(0.3, 0.3), (0.05, 0.6), (0.6, 0.05), (0, 0.4), (0.4, 0)]:
            left = _random_op(rng, mid, dst, dl)
            right = _random_op(rng, src, mid, dr)
            got = left * right
            g = gcd(left.rad, right.rad)
            want = [[v * g for v in row] for row in _dense_mul(_dense(left), _dense(right))]
            assert _dense(got) == want
            assert (got.src, got.dst) == (src, dst)
            assert got.offset == left.offset + right.offset
            assert got.rad == (left.rad // g) * (right.rad // g)
            assert 0 not in got.data.values()


# negative controls: a closed series with one amplitude wrong must fail
# each check that reads the twist
@pytest.fixture
def cold_twist_caches():
    cached = (fock._one_minus_pow, fock.exp_lr, fock.twisted_letter, fock.eval_letters)

    def clear():
        for f in cached:
            f.cache_clear()

    clear()
    yield
    clear()


def _sign_flipped(real):
    # 4^k in place of (-4)^k: term k has h-degree k, so its entries change sign
    def mutant(which, n, e):
        op = real(which, n, e)
        w, st = fock.dim(n), fock.states(n)
        parity = lambda k: (fock.weight(st[k // w]) - fock.weight(st[k % w])) % 2
        return FockOp(n, n, {k: -v if parity(k) else v for k, v in op.data.items()})

    return mutant


@pytest.mark.parametrize("mutation", ["no-binom(i+j,i)", "4^k"])
def test_mutated_closed_series_fails_the_checks(monkeypatch, cold_twist_caches, mutation):
    if mutation == "4^k":
        monkeypatch.setattr(fock, "_one_minus_pow", _sign_flipped(fock._one_minus_pow))
    else:
        monkeypatch.setattr(fock, "comb", lambda n, k: 1)
    assert not fock.relations_check(3).ok
    assert not fock.homomorphism_check(nmax=3, words=40, maxlen=4, seed=3).ok
    assert not fock.twisted_dop_check(2, 3).ok


# ---------------------------------------------------------------------
# sums: FockOp.lincomb against a dense reference, and evaluate against
# the grouped-terms path it replaced
# ---------------------------------------------------------------------


def _coef(q, r, k):
    """The coefficient q * sqrt(r) * h^k."""
    return RadScalar.coerce(q) * sqrt_nat(r) * H**k


def _dense_lincomb(terms, src, dst):
    """The naive sum at h = 2: every entry of every operand times its scale."""
    out = [[0] * fock.dim(src) for _ in range(fock.dim(dst))]
    for (q, r, k), op in terms:
        scale = q * gcd(op.rad, r) * 2**k
        for i, row in enumerate(_dense(op)):
            for j, v in enumerate(row):
                out[i][j] += v * scale
    return out


def _check_sum(terms, src, dst, offset, rad):
    got = FockOp.lincomb(src, dst, [(_coef(*c), op) for c, op in terms])
    assert _dense(got) == _dense_lincomb(terms, src, dst)
    assert (got.src, got.dst) == (src, dst)
    assert 0 not in got.data.values()
    assert all(got.data is not op.data for _, op in terms)
    if got.data:
        assert (got.offset, got.rad) == (offset, rad)
    return got


def _operand(rng, src, dst, density, offset, rad, r, k):
    """A random operator that a scale q sqrt(r) h^k takes to (offset, rad)."""
    g = gcd(rad, r)
    data = _random_op(rng, src, dst, density).data
    return FockOp(src, dst, data, offset + k, (rad // g) * (r // g))


@pytest.mark.parametrize("seed", range(6))
def test_lincomb_equals_dense_reference(seed):
    rng = random.Random(seed)
    for src, dst in [(0, 1), (1, 2), (2, 3), (1, 3), (2, 2)]:
        offset, rad = rng.randint(-3, 3), rng.choice((1, 2, 3, 6))

        def scale():
            q = rng.choice((1, 1, -1, rng.randint(-9, 9) or 2, Q(rng.randint(-9, 9) or 1, rng.randint(2, 7))))
            return q, rng.choice((1, 2, 3, 6)), rng.randint(0, 2)

        def operand(c, density=0.4):
            return _operand(rng, src, dst, density, offset, rad, c[1], c[2])

        for q in (1, Q(3, 7), -2):
            # a single operand: a copy, scaled unless q = 1
            c = (q, rng.choice((1, 2, 3, 6)), rng.randint(0, 2))
            _check_sum([(c, operand(c))], src, dst, offset, rad)
        for _ in range(6):
            # up to four operands, with zero coefficients and empty operands
            terms = []
            for _ in range(rng.randint(1, 4)):
                c = scale()
                if rng.random() < 0.2:
                    c = (0,) + c[1:]
                terms.append((c, operand(c, rng.choice((0, 0.1, 0.5)))))
            _check_sum(terms, src, dst, offset, rad)
        # entire cancellation, also with a zero term between the two
        c = scale()
        a = operand(c)
        neg = (-c[0],) + c[1:]
        assert _check_sum([(c, a), (neg, a)], src, dst, offset, rad).is_zero()
        assert _check_sum([(c, a), ((0, 1, 0), a), (neg, a)], src, dst, offset, rad).is_zero()
        # partial cancellation: b is -a on every other entry of a, plus others
        b = operand((1, 1, 0))
        for ij in sorted(a.data)[::2]:
            b.data[ij] = -a.data[ij] * c[0] * gcd(a.rad, c[1]) * 2 ** c[2]
        got = _check_sum([(c, a), ((1, 1, 0), b)], src, dst, offset, rad)
        assert got.data.keys().isdisjoint(sorted(a.data)[::2])


def test_single_operand_sum_owns_its_dict():
    # the operand may be a cached operator: the sum must copy its dict
    for n in range(3):
        op = eval_letters((X, V), n)
        before = dict(op.data)
        zero = FockOp.zero(n, n + 2)
        sums = [
            op.scaled(1),
            op.scaled(ONE),
            op + zero,
            zero + op,
            op - zero,
            FockOp.lincomb(n, n + 2, [(0, eval_letters((V, X), n)), (1, op)]),
        ]
        for s in sums:
            assert s == op and (s.offset, s.rad) == (op.offset, op.rad)
            assert s.data is not op.data
            s.data.clear()
        assert eval_letters((X, V), n).data == before
        assert op.scaled(Q(1, 3)).data == {ij: Q(v, 3) for ij, v in before.items()}
        assert (-op).data == {ij: -v for ij, v in before.items()}


def _evaluate_by_terms(p, n):
    """The path evaluate replaced: p.terms() grouped per word, through eval_free."""
    return eval_free([(ncalg.word_letters(w), c) for w, c in p.terms().items()], n)


def test_evaluate_equals_the_grouped_terms_path():
    polys = [
        dfunc(twoj, twomp, twom, ORDERED1, GL)
        for twoj in range(5)
        for twomp in magnetics(twoj)
        for twom in magnetics(twoj)
    ]
    polys += [
        normal_form([(letters, ONE)], GL)
        for length in range(5)
        for letters in itertools.product(range(4), repeat=length)
    ]
    assert len(polys) == 55 + 341
    for p in polys:
        for n in range(4):
            got, want = evaluate(p, n), _evaluate_by_terms(p, n)
            assert got == want, (p, n)
            assert (got.src, got.dst, got.offset, got.rad) == (want.src, want.dst, want.offset, want.rad)


@pytest.mark.parametrize(
    "text,match",
    [
        ("(1+h)*x", "one monomial"),
        ("(1+sqrt(2))*x", "one monomial"),
        ("x + v", "unlike terms"),
        ("sqrt(2)*x + sqrt(3)*y", "unlike terms"),
        ("1 + x", "mixed degrees"),
        ("(1+h) + x", "mixed degrees"),
    ],
)
def test_evaluate_rejects(text, match):
    p = parse(text, GL)
    for n in range(3):
        with pytest.raises(ValueError, match=match):
            evaluate(p, n)
        with pytest.raises(ValueError):
            _evaluate_by_terms(p, n)


def _caught(check):
    """Whether a check fails a case or raises ValueError."""
    try:
        return not check().ok
    except ValueError:
        return True


def test_evaluate_without_the_h_power_of_a_key_fails_the_checks(monkeypatch):
    # negative control: each key's monomial read as sqrt(r) alone
    monkeypatch.setattr(fock, "scalar_part", lambda key: key & kernel.RAD_FIELD)
    assert _caught(lambda: fock.homomorphism_check(nmax=3, words=40, maxlen=4, seed=3))
    assert _caught(lambda: fock.twisted_dop_check(2, 3))


def _at_grade(f, grade, change):
    return lambda *args: change(f(*args)) if args[-1] == grade else f(*args)


@pytest.mark.parametrize("suite", ["homomorphism", "dfunction", "relations"])
def test_failing_fock_cases_name_the_grade_and_both_operators(monkeypatch, suite):
    times_h = lambda op: op.scaled(H)
    if suite == "homomorphism":
        monkeypatch.setattr(fock, "evaluate", _at_grade(fock.evaluate, 2, times_h))
        rep = fock.homomorphism_check(nmax=3, words=3, maxlen=3, seed=3)
    elif suite == "dfunction":
        monkeypatch.setattr(fock, "twisted_dop", _at_grade(fock.twisted_dop, 2, times_h))
        rep = fock.twisted_dop_check(1, 3)
    else:
        table = _mutated_relation(
            fock._GL_FREE_RELATIONS, "[v,x]=hv2", ("vv", -H), ("vv", -(H + H))
        )
        monkeypatch.setattr(fock, "_GL_FREE_RELATIONS", table)
        rep = fock.relations_check(3)
    case = rep.first_failure()
    assert case is not None
    if suite == "relations":
        # the nonzero operator of the relation at its first grade
        assert case["params"] == {"relation": "[v,x]=hv2", "grade": 0}
        assert set(case) == {"params", "pass", "lhs"}
        assert case["lhs"].startswith("FockOp(0->2, nnz=1,"), case
    else:
        assert case["lhs"].startswith("grade 2: FockOp(2->"), case
        assert case["rhs"].startswith("grade 2: FockOp(2->"), case
        # the mutated side has one h more, so its offset is one less
        lhs, rhs = (int(case[side].split("offset=")[1].split(",")[0]) for side in ("lhs", "rhs"))
        mutated, plain = (lhs, rhs) if suite == "homomorphism" else (rhs, lhs)
        assert mutated == plain - 1
    assert all(set(c) == {"params", "pass"} for c in rep.cases if c["pass"])


def test_passing_fock_cases_keep_no_sides():
    assert all(set(c) == {"params", "pass"} for c in fock.fock_suite(2, with_g=True).cases)
