"""The stdlib Fraction backend must work when gmpy2 is unavailable."""

import subprocess
import sys

_SCRIPT = r"""
import sys

sys.modules["gmpy2"] = None  # any later "import gmpy2" raises ImportError

import slh2
assert slh2.RAT_BACKEND == "fractions", slh2.RAT_BACKEND
from slh2.dfun import dmatrix, ORDERED1, ORDERED2, JACOBI
from slh2.exprio import parse
from slh2.hopfcheck import check_corep

assert parse("x*y - u*v - h*x*v", "sl").constant().rational_value() == 1
a = dmatrix(2, ORDERED1, "sl")
assert a.entries == dmatrix(2, ORDERED2, "sl").entries
assert a.entries == dmatrix(2, JACOBI, "sl").entries
assert check_corep(2).ok
print("fraction backend ok")
"""


def test_fraction_backend_subprocess(child_env):
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=child_env
    )
    assert out.returncode == 0, out.stderr
    assert "fraction backend ok" in out.stdout
