"""A test-local oracle of the flat-key layout.

pack and unpack here are written from the field widths of slh2.kernel
alone, by divmod over the fields from the low bits up, and share no
code with the kernel's own pack, unpack and masks, which the layout
tests check against them.  The tuple forms are the ones the kernel
docstring names: (r, h) for 0 slots, (a, b, c, d, r, h) for 1 slot and
(w_1, w_2, r, h) for 2 slots.
"""

from slh2.kernel import EXP_BITS, RAD_BITS, SLOTS


def fields(key):
    """(the SLOTS exponent tuples, degree, radicand, h_power) of a key."""
    exps = []
    for _ in range(4 * SLOTS):
        key, e = divmod(key, 1 << EXP_BITS)
        exps.append(e)
    key, degree = divmod(key, 1 << EXP_BITS)
    h, r = divmod(key, 1 << RAD_BITS)
    words = tuple(tuple(exps[4 * s : 4 * s + 4]) for s in range(SLOTS))
    return words, degree, r, h


def unpack(key, slots=1):
    words, degree, r, h = fields(key)
    assert degree == sum(map(sum, words)), (key, words, degree)
    assert not any(map(any, words[slots:])), (key, slots)
    if slots == 1:
        return words[0] + (r, h)
    return words[:slots] + (r, h)


def pack(words, r=1, h=0):
    key = h
    key = key * (1 << RAD_BITS) + r
    key = key * (1 << EXP_BITS) + sum(map(sum, words))
    exps = [e for w in words for e in w] + [0] * (4 * (SLOTS - len(words)))
    for e in reversed(exps):
        key = key * (1 << EXP_BITS) + e
    return key


def repack(t, slots=1):
    """pack of an unpacked tuple."""
    if slots == 1:
        return pack((t[:4],), t[4], t[5])
    return pack(t[:slots], t[-2], t[-1])


def unpacked(terms, slots=1):
    return {unpack(k, slots): q for k, q in terms.items()}


def packed(terms, slots=1):
    return {repack(t, slots): q for t, q in terms.items()}


def word(core):
    """The exponent tuple of the slot-0 word fields of core."""
    return fields(core)[0][0]
