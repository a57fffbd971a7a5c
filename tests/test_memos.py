"""Every cache that a run fills is one a cold-start check can find: a
module-level dict named *_MEMO, or an lru_cache.

The benchmark asserts that a fresh interpreter starts with every *_MEMO
dict and every lru cache of slh2 empty; a cache kept under another name,
on a class or in a default argument would escape that check.  A child
interpreter imports every slh2 module, records the size of each
container bound in a module, in one of its classes or in a function's
defaults, builds D-matrices in both rings and runs suites on them, and
prints the containers that grew.
"""

import json
import os
import subprocess
import sys

_CONTAINERS = (dict, list, set)


def _size(value):
    """Entries of a container, counting those of containers nested one level."""
    items = value.values() if isinstance(value, dict) else value
    return len(value) + sum(len(v) for v in items if isinstance(v, _CONTAINERS))


def _containers():
    """{name: (size, named memo)} of each container bound in an slh2
    module, in one of its classes or in a function's defaults; a named
    memo is a module-level dict whose name ends in _MEMO."""
    import importlib
    import pkgutil

    import slh2

    out = {}
    for info in pkgutil.iter_modules(slh2.__path__):
        mod = importlib.import_module(f"slh2.{info.name}")
        spaces = [(mod.__name__, vars(mod), True)]
        spaces += [
            (f"{mod.__name__}.{name}", vars(value), False)
            for name, value in vars(mod).items()
            if isinstance(value, type) and value.__module__ == mod.__name__
        ]
        for prefix, space, top in spaces:
            for name, value in space.items():
                if isinstance(value, _CONTAINERS):
                    memo = top and isinstance(value, dict) and name.endswith("_MEMO")
                    out[f"{prefix}.{name}"] = (_size(value), memo)
                func = getattr(value, "__func__", value)
                defaults = getattr(func, "__defaults__", None) or ()
                defaults += tuple((getattr(func, "__kwdefaults__", None) or {}).values())
                for i, d in enumerate(defaults):
                    if isinstance(d, _CONTAINERS):
                        out[f"{prefix}.{name} default {i}"] = (_size(d), False)
    return out


def _plant_unnamed_memo():
    """Cache dfun.norm_factor in a module dict whose name does not end in _MEMO."""
    from slh2 import dfun

    dfun._NORMS = {}
    norm_factor = dfun.norm_factor

    def cached(*args):
        if args not in dfun._NORMS:
            dfun._NORMS[args] = norm_factor(*args)
        return dfun._NORMS[args]

    dfun.norm_factor = cached


def probe(plant):
    """Run in the child: print the containers that grew as JSON."""
    from slh2 import dfun, fock, hopfcheck, ncalg, pbwcheck

    if plant:
        _plant_unnamed_memo()
    before = _containers()
    for ring in ncalg.RINGS:
        for twoj in range(4):
            for scheme in (dfun.ORDERED1, dfun.ORDERED2, dfun.CLASSICAL):
                dfun.dmatrix(twoj, scheme, ring)
        assert hopfcheck.check_corep(2, dfun.ORDERED1, ring).ok
        assert hopfcheck.recurrence_check("i", 3, ring).ok
        assert hopfcheck.rtt_check(1, 2, ring).ok
    dfun.dmatrix(3, dfun.JACOBI, ncalg.SL)
    assert hopfcheck.wigner_check(1, 2, 3).ok
    assert fock.twisted_dop_check(2, 2).ok
    assert pbwcheck.confluence_check(3).ok
    after = _containers()
    grown = {name: memo for name, (size, memo) in after.items() if size != before.get(name, (0,))[0]}
    print(json.dumps(grown))


def _run_probe(child_env, plant):
    here = os.path.dirname(os.path.abspath(__file__))
    code = f"import sys; sys.path.insert(0, {here!r}); import test_memos; test_memos.probe({plant!r})"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_cache_a_run_fills_is_a_named_memo_or_an_lru_cache(child_env):
    grown = _run_probe(child_env, False)
    assert {
        "slh2.ncalg._MEMO",
        "slh2.ncalg._WW_MEMO",
        "slh2.dfun._TERM_MEMO",
        "slh2.hopfcheck._DELTA_MEMO",
        "slh2.hopfcheck._DPROD_MEMO",
        "slh2.pbwcheck._NAIVE_MEMO",
    } <= set(grown)
    assert [name for name, memo in grown.items() if not memo] == []


def test_an_unnamed_cache_is_found(child_env):
    grown = _run_probe(child_env, True)
    assert [name for name, memo in grown.items() if not memo] == ["slh2.dfun._NORMS"]
