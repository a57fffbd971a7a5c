"""Machine-speed calibration, so that times from a drifting machine compare.

On a shared machine the speed of one core drifts by 20 to 40 % over tens
of seconds to minutes, with the load of its neighbours and not with this
program.  Raw times of two runs made minutes apart then differ by more
than any bound worth having; neither the median nor the minimum over the
passes of a run removes a drift that lasts longer than the run.

So the child times a short fixed reference computation, `calibrate()`,
before every op (outside the op's own time).  It is the kernel's kind of
work (products of Fractions accumulated in a dict keyed by exponent
pairs, as in `poly_mul`) but runs no slh2 code, so no change to slh2 can
move it.  It allocates no container that outlives it and runs with the
cyclic garbage collector paused, so the size of the slh2 heap does not
enter its time either.

A time is then reported at reference speed: multiplied by the factor
(REF_S / c) ** EXPONENT, where c is the median calibration time near it.
On a machine where `calibrate()` takes REF_S, reference time is wall
time.  A change that makes slh2 faster or slower moves reference time by
the same factor as wall time, since the factor depends on the
calibration alone; a change in the machine's speed moves it far less.

EXPONENT is below 1 because the calibration, whose data sit in the
fastest cache, slows down more than the program when the machine does
(the calibration time moves by a factor of up to 1.9 between the speed
states of the 2-core machine the bounds were set on).  It was chosen by
how well sweeps of the same code agree: see perfbench/README.md.
"""

import gc
import statistics
import time
from fractions import Fraction

REF_S = 130e-6  # calibrate() in the fast state of the 2-core machine the bounds were set on
EXPONENT = 0.8
HALF_WINDOW = 7  # a time is scaled by the median of the 2 * HALF_WINDOW + 1 calibrations around it

_A = {(i, j): Fraction(3 * i + 1, 2 * j + 5) for i in range(3) for j in range(3)}
_B = {(i, j): Fraction(2 * j + 7, 5 * i + 3) for i in range(3) for j in range(2)}


def calibrate():
    """Seconds one fixed product of two rational polynomials takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for (ha, ga), va in _A.items():
            for (hb, gb), vb in _B.items():
                key = (ha + hb, ga + gb)
                s = out.get(key)
                out[key] = va * vb if s is None else s + va * vb
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_times(times, cal):
    """Op times at reference speed; cal[i] was taken just before op i."""
    return [
        t * reference_factor(cal[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def reference_factor(cal):
    """The factor that takes a time measured during these calibrations to
    reference speed."""
    return (REF_S / statistics.median(cal)) ** EXPONENT
