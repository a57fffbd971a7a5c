"""The benchmark's workloads: seeded op lists and the cases each op must report.

An op is one call into the public API of slh2 whose result the gate
checks after the clock stops.  Every op list is built from the workload
seed alone, so the same seed always gives the same ops in the same order.

The expected case parameters below are written out from the documented
meaning of each suite (which spins, magnetic numbers, laws and grades it
covers), not read back from the library, so a suite that silently skips
cases fails the gate.
"""

import json
import random
from collections import namedtuple

from slh2 import dfun, exprio, fock, hopfcheck, ncalg, pbwcheck
from slh2.scalar import ONE

# kind: "entry" | "words" | "report"; key: what the gate checks the result against
Op = namedtuple("Op", "label fn kind key")

GEN = "vxyu"


def magnetics(twoj):
    return range(twoj, -twoj - 2, -2)


def triangle(twoj1, twoj2):
    return range(abs(twoj1 - twoj2), twoj1 + twoj2 + 2, 2)


# ---------------------------------------------------------------------
# construct: cold D-matrix construction plus seeded normal ordering
# ---------------------------------------------------------------------

CONSTRUCT_MAX_TWOJ = 6
CONSTRUCT_CONFIGS = (
    (dfun.ORDERED1, ncalg.SL),
    (dfun.ORDERED2, ncalg.SL),
    (dfun.JACOBI, ncalg.SL),
    (dfun.CLASSICAL, ncalg.SL),
    (dfun.ORDERED1, ncalg.GL),
)
CONSTRUCT_LARGE = ((7, dfun.ORDERED1, ncalg.SL),)
WORD_LENGTHS = (6, 7, 8, 9)
WORDS_PER_LENGTH = 4  # per batch
BATCHES_PER_RING = 3


def dmatrix_key(twoj, scheme, ring):
    return f"{ring}/{scheme}/{twoj}"


def dmatrix_configs():
    """(twoj, scheme, ring) of every D-matrix op, smallest spin first."""
    out = [
        (twoj, scheme, ring)
        for twoj in range(CONSTRUCT_MAX_TWOJ + 1)
        for scheme, ring in CONSTRUCT_CONFIGS
    ]
    return out + list(CONSTRUCT_LARGE)


def seeded_batches(seed):
    """(words, ring) pairs, BATCHES_PER_RING per ring, rings alternating.

    A batch holds WORDS_PER_LENGTH words of each length in WORD_LENGTHS.
    A word of length L is a seeded shuffle of the letters v, x, y, u
    repeated cyclically to length L, so every seed orders the same letter
    content.  The cost of one random word varies over two orders of
    magnitude; a batch stratified by length varies far less, which keeps
    the latency quantiles of a run from depending on the seed.
    """
    rng = random.Random(seed)
    batches = []
    for _ in range(BATCHES_PER_RING):
        for ring in ncalg.RINGS:
            words = []
            for length in WORD_LENGTHS:
                for _ in range(WORDS_PER_LENGTH):
                    letters = [i % 4 for i in range(length)]
                    rng.shuffle(letters)
                    words.append(tuple(letters))
            batches.append((tuple(words), ring))
    return batches


def _entry_op(twoj, twomp, twom, scheme, ring):
    def fn():
        p = dfun.dfunc(twoj, twomp, twom, scheme, ring)
        return p, json.dumps(p.to_json())

    key = dmatrix_key(twoj, scheme, ring)
    return Op(f"dfunc {key} {twomp} {twom}", fn, "entry", (twoj, twomp, twom, scheme, ring))


def _words_op(index, words, ring):
    def fn():
        p = ncalg.normal_form([(letters, ONE) for letters in words], ring)
        return p, exprio.render_text(p)

    return Op(f"normal_form {ring} batch {index}", fn, "words", (words, ring))


def construct_ops(seed):
    """Every D-matrix entry from a cold memo, matrix by matrix in the order
    `slh2 dmatrix` computes them, then the seeded word batches.

    One op per entry rather than per matrix: matrix costs grow about five
    times per spin step, so a handful of matrix ops leaves the latency
    quantiles sitting in the gaps between spins, where noise moves them
    most; entries fill those gaps.
    """
    ops = [
        _entry_op(twoj, twomp, twom, scheme, ring)
        for twoj, scheme, ring in dmatrix_configs()
        for twomp in magnetics(twoj)
        for twom in magnetics(twoj)
    ]
    return ops + [_words_op(i, words, ring) for i, (words, ring) in enumerate(seeded_batches(seed))]


# ---------------------------------------------------------------------
# verify: the identity suites at small spins, one op per suite call
# ---------------------------------------------------------------------

VERIFY_COREP_MAX = 4
VERIFY_RECURRENCE_MAX = 4
VERIFY_ORTHO_MAX = 3
VERIFY_PAIR_MAX = 3
VERIFY_PAIRS = [
    (a, b)
    for a in range(1, VERIFY_PAIR_MAX + 1)
    for b in range(a, VERIFY_PAIR_MAX + 1)
    if (a, b) != (VERIFY_PAIR_MAX, VERIFY_PAIR_MAX)
]
RECURRENCES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


def corep_params(twoj):
    return [
        {"twoj": twoj, "twomp": mp, "twom": m, "law": law}
        for mp in magnetics(twoj)
        for m in magnetics(twoj)
        for law in ("coproduct", "counit")
    ]


def recurrence_params(which, twoj):
    return [
        {"which": which, "twoj": twoj, "twok": k, "twom": m}
        for k in range(-twoj - 2, twoj + 4, 2)
        for m in magnetics(twoj)
    ]


def ortho_params(twoj):
    mags = list(magnetics(twoj))
    out = [
        {"law": "ortho1", "twoj": twoj, "twok1": k1, "twok2": k2}
        for k1 in mags
        for k2 in mags
    ]
    return out + [
        {"law": "ortho2", "twoj": twoj, "twom1": m1, "twom2": m2}
        for m1 in mags
        for m2 in mags
    ]


def rtt_params(a, b):
    return [
        {"twoj1": a, "twoj2": b, "twom1": m1, "twom2": m2, "twok1": k1, "twok2": k2}
        for m1 in magnetics(a)
        for m2 in magnetics(b)
        for k1 in magnetics(a)
        for k2 in magnetics(b)
    ]


def wigner_params(a, b, j):
    base = {"twoj1": a, "twoj2": b, "twoj": j}
    out = [
        {"law": "product", **base, "twojp": jp, "twomp": mp, "twom": m}
        for jp in triangle(a, b)
        for mp in magnetics(jp)
        for m in magnetics(j)
    ]
    out += [
        {"law": "rel1", **base, "twok1": k1, "twok2": k2, "twom": m}
        for k1 in magnetics(a)
        for k2 in magnetics(b)
        for m in magnetics(j)
    ]
    out += [
        {"law": "rel2", **base, "twom1": m1, "twom2": m2, "twomp": mp}
        for m1 in magnetics(a)
        for m2 in magnetics(b)
        for mp in magnetics(j)
    ]
    return out + [
        {"law": "rel3", "twoj1": a, "twoj2": b, "twok1": k1, "twom1": m1, "twok2": k2, "twom2": m2}
        for k1 in magnetics(a)
        for m1 in magnetics(a)
        for k2 in magnetics(b)
        for m2 in magnetics(b)
    ]


# At spin (1/2, 1/2) the six defining relations and the 15 non-vanishing
# RTT identities (16 index choices, one of which is trivially zero)
# span the same rank-6 space.
FRT_RELATIONS = 6
FRT_RTT = 15


def frt_params():
    out = [{"direction": "relation in rtt span", "index": i} for i in range(FRT_RELATIONS)]
    out += [{"direction": "rtt in relation span", "index": i} for i in range(FRT_RTT)]
    return out + [{"direction": "rank", "rtt": 6, "relations": 6}]


PBW_MAXLEN = 4
PBW_SAMPLES = 300  # termination_check's default random sample count


def pbw_params():
    all_words = sum(4**n for n in range(1, PBW_MAXLEN + 1))
    out = [
        {"ring": ring, "words": all_words - 4 + PBW_SAMPLES} for ring in ncalg.RINGS
    ]
    for ring in ncalg.RINGS:
        out.append({"ring": ring, "words": all_words, "law": "peaks rejoin"})
        out.append({"ring": ring, "words": all_words, "law": "engine agrees"})
    out += [{"degree": n} for n in range(7)]
    out += [{"generator": g} for g in GEN]
    return out + [{"generator": "determinant in SL"}]


def _report_op(label, fn, params):
    return Op(label, fn, "report", params)


def verify_ops(seed):
    """The calls `slh2 verify` makes per spin; the seed does not enter."""
    del seed
    ops = []
    for twoj in range(VERIFY_COREP_MAX + 1):
        ops.append(_report_op(f"corep {twoj}", lambda t=twoj: hopfcheck.check_corep(t), corep_params(twoj)))
    for twoj in range(1, VERIFY_RECURRENCE_MAX + 1):
        for which in RECURRENCES:
            ops.append(
                _report_op(
                    f"recurrence {which} {twoj}",
                    lambda w=which, t=twoj: hopfcheck.recurrence_check(w, t),
                    recurrence_params(which, twoj),
                )
            )
    for twoj in range(VERIFY_ORTHO_MAX + 1):
        ops.append(_report_op(f"ortho {twoj}", lambda t=twoj: hopfcheck.ortho_like_check(t), ortho_params(twoj)))
    for a, b in VERIFY_PAIRS:
        ops.append(_report_op(f"rtt {a} {b}", lambda a=a, b=b: hopfcheck.rtt_check(a, b), rtt_params(a, b)))
        for j in triangle(a, b):
            ops.append(
                _report_op(
                    f"wigner {a} {b} {j}",
                    lambda a=a, b=b, j=j: hopfcheck.wigner_check(a, b, j),
                    wigner_params(a, b, j),
                )
            )
    ops.append(_report_op("rtt_frt", hopfcheck.rtt_frt_check, frt_params()))
    ops.append(_report_op("pbw_suite", lambda: pbwcheck.pbw_suite(PBW_MAXLEN), pbw_params()))
    return ops


# ---------------------------------------------------------------------
# fock: the boson oracle
# ---------------------------------------------------------------------

FOCK_NMAX = 4
FOCK_DOP = (2, 3)  # twisted_dop_check(max_twoj, nmax)
FOCK_TWO_PARAMETER_NMAX = 2
HOM_NMAX = 3
HOM_MAXLEN = 3
HOM_REPEAT_MAXLEN = 2  # words up to this length are checked twice

FOCK_RELATIONS = (
    "[v,x]=hv2",
    "[v,y]=hv2",
    "[u,x]=h(D-x2)",
    "[u,y]=h(D-y2)",
    "[x,y]=h(xv-yv)",
    "[v,u]=h(xv+vy)",
)
TWO_PARAMETER_RELATIONS = (
    "[a,b]=-(h+g)(D'-a^2)",
    "[a,c]=-(h-g)c^2",
    "[a,d]=(h+g)ac-(h-g)dc",
    "[b,c]=-(h+g)ac-(h-g)cd",
    "[b,d]=(h-g)(D'-d^2)",
    "[c,d]=(h+g)c^2",
    "D'=D",
)


def homomorphism_word(seed, maxlen=HOM_MAXLEN):
    """The word homomorphism_check(words=1, maxlen, seed) draws."""
    rng = random.Random(seed)
    length = rng.randint(1, maxlen)
    return "".join(GEN[rng.randrange(4)] for _ in range(length))


def _is_normal(word):
    return list(word) == sorted(word, key=GEN.index)


def homomorphism_seeds(seed):
    """(seed, word) per op: every free word of length <= HOM_MAXLEN once,
    and every word of length <= HOM_REPEAT_MAXLEN once more.

    The per-op seeds come from the workload seed, and so does the order
    within each group of words of one length; normal words go before the
    others of their length.  In GL the rules keep word length, so by the
    time a non-normal word is checked every normal word its normal form
    needs has been evaluated, and each op's cold-cache work does not
    depend on the seed.  Words drawn at random would make the work of a
    run depend on which words the seed happens to hit.
    """
    want = {}
    for n in range(1, HOM_MAXLEN + 1):
        for k in range(4**n):
            word = "".join(GEN[(k >> (2 * i)) & 3] for i in range(n))
            want[word] = 2 if n <= HOM_REPEAT_MAXLEN else 1
    total = sum(want.values())
    rng = random.Random(seed)
    found = []
    while len(found) < total:
        k = rng.getrandbits(48)
        word = homomorphism_word(k)
        if want.get(word):
            want[word] -= 1
            found.append((k, word))
    rng.shuffle(found)
    first, again, seen = [], [], set()
    for k, word in found:
        (again if word in seen else first).append((k, word))
        seen.add(word)

    def group(item):
        return len(item[1]), not _is_normal(item[1])

    return sorted(first, key=group) + sorted(again, key=group)


def fock_ops(seed):
    ops = [
        _report_op(
            f"relations_check {FOCK_NMAX}",
            lambda: fock.relations_check(FOCK_NMAX),
            [{"relation": r, "grade": n} for r in FOCK_RELATIONS for n in range(FOCK_NMAX + 1)],
        ),
        _report_op(
            f"determinant_check {FOCK_NMAX}",
            lambda: fock.determinant_check(FOCK_NMAX),
            [{"grade": n} for n in range(FOCK_NMAX + 1)],
        ),
        _report_op(
            "twisted_dop_check {} {}".format(*FOCK_DOP),
            lambda: fock.twisted_dop_check(*FOCK_DOP),
            [
                {"twoj": t, "twomp": mp, "twom": m}
                for t in range(FOCK_DOP[0] + 1)
                for mp in magnetics(t)
                for m in magnetics(t)
            ],
        ),
        _report_op(
            f"two_parameter_check {FOCK_TWO_PARAMETER_NMAX}",
            lambda: fock.two_parameter_check(FOCK_TWO_PARAMETER_NMAX),
            [
                {"relation": r, "grade": n}
                for n in range(FOCK_TWO_PARAMETER_NMAX + 1)
                for r in TWO_PARAMETER_RELATIONS
            ],
        ),
    ]
    for k, word in homomorphism_seeds(seed):
        ops.append(
            _report_op(
                f"homomorphism {word}",
                lambda k=k: fock.homomorphism_check(nmax=HOM_NMAX, words=1, maxlen=HOM_MAXLEN, seed=k),
                [{"word": word, "index": 0}],
            )
        )
    return ops


WORKLOADS = {"construct": construct_ops, "verify": verify_ops, "fock": fock_ops}
