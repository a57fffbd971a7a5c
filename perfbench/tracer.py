"""An outside tracer: wraps the entry points of each slh2 layer in place.

Every binding of a traced function is replaced, not only the one in its
defining module: `from .kernel import rad_mul` in fock, `_word_mul_word`
imported by hopfcheck, class attributes and their aliases (`__radd__ is
__add__`).  Otherwise a call through the other name would be booked as
self time of the caller's layer.

Spans are aggregated in memory per traced function as a call count,
inclusive time (outermost activation only, so recursion is not counted
twice) and self time (inclusive time minus the time of traced callees).
Some targets also sum a size of their results (terms, non-zeros).
"""

import importlib
import sys
import time

# layer -> [(module, attribute path)]; the first module of a tuple that
# imports is used.  Index helpers that only compute a range or a position
# (rep.magnetics, rep.prod_index, ...) are left out on purpose: wrapping
# them would cost more than they do.
KERNEL_MODULES = ("slh2.kernel", "slh2._kernel_py")
LAYERS = {
    "kernel": [
        (KERNEL_MODULES, name)
        for name in ("rad_add", "rad_sub", "rad_neg", "rad_mul", "rad_scale", "poly_mul", "sqrt_split")
    ],
    "scalar": [
        ("slh2.scalar", name)
        for name in (
            "RadScalar.__add__",
            "RadScalar.__sub__",
            "RadScalar.__rsub__",
            "RadScalar.__neg__",
            "RadScalar.__mul__",
            "RadScalar.__pow__",
            "RadScalar.__eq__",
            "RadScalar.scaled",
            "RadScalar.specialize",
            "RadScalar.to_json",
            "sqrt_nat",
            "rational",
        )
    ],
    "ncalg": [
        ("slh2.ncalg", name)
        for name in (
            "normal_form",
            "quantum_determinant",
            "_word_mul_word",
            "NCPoly.__mul__",
            "NCPoly.__rmul__",
            "NCPoly.__add__",
            "NCPoly.__sub__",
            "NCPoly.__rsub__",
            "NCPoly.__neg__",
            "NCPoly.__pow__",
            "NCPoly.__eq__",
            "NCPoly.scaled",
            "NCPoly.specialize",
            "NCPoly.with_ring",
            "NCPoly.to_json",
        )
    ],
    "dfun": [
        ("slh2.dfun", name)
        for name in ("dfunc", "dmatrix", "jacobi_poly", "norm_factor", "DFunctionMatrix.to_json")
    ],
    "rep": [
        ("slh2.rep", name)
        for name in (
            "j_matrices",
            "sigma_matrix",
            "power_one_minus",
            "f_matrix",
            "f_inv_matrix",
            "r_matrix",
            "cgc_classical",
            "omega",
            "mho",
            "kron",
            "nilpotent_exp",
            "RepMatrix.__mul__",
            "RepMatrix.__add__",
            "RepMatrix.__sub__",
            "RepMatrix.scaled",
            "RepMatrix.commutator",
            "CgcTable.get",
        )
    ],
    "exprio": [
        ("slh2.exprio", name)
        for name in ("parse", "render", "render_text", "render_latex", "scalar_text", "scalar_latex")
    ],
    "hopfcheck": [
        ("slh2.hopfcheck", name)
        for name in (
            "check_corep",
            "wigner_check",
            "recurrence_check",
            "ortho_like_check",
            "rtt_check",
            "rtt_frt_check",
            "recurrence_terms",
            "coproduct",
            "counit",
            "_dprod",
            "TensorPoly.of",
            "TensorPoly.__mul__",
            "TensorPoly.__add__",
            "TensorPoly.__sub__",
            "TensorPoly.__neg__",
            "TensorPoly.__eq__",
            "TensorPoly.scaled",
            "TensorPoly.apply_coproduct",
            "TensorPoly.apply_counit",
        )
    ],
    "pbwcheck": [
        ("slh2.pbwcheck", name)
        for name in (
            "pbw_suite",
            "termination_check",
            "confluence_check",
            "flatness_check",
            "centrality_check",
            "naive_normal_form",
            "reducible_positions",
            "rewrite_at",
        )
    ],
    "fock": [
        ("slh2.fock", name)
        for name in (
            "fock_suite",
            "relations_check",
            "determinant_check",
            "homomorphism_check",
            "twisted_dop_check",
            "two_parameter_check",
            "evaluate",
            "eval_free",
            "eval_letters",
            "twisted_letter",
            "twisted_generators",
            "two_parameter_generators",
            "exp_lr",
            "_one_minus_pow",
            "boson",
            "j_plus",
            "k_plus",
            "classical_dop",
            "twisted_dop",
            "determinant_op",
            "commutator2",
            "_creation_monomial",
            "FockOp.__mul__",
            "FockOp.__add__",
            "FockOp.__sub__",
            "FockOp.__neg__",
            "FockOp.__eq__",
            "FockOp.scaled",
            "FockOp.specialize",
        )
    ],
}

# Targets only ever called from inside their own layer are counted but not
# timed: their time stays in the calling span of the same layer, and a
# count costs far less than a span on these hot paths.
COUNT_ONLY = {"kernel.poly_mul"}

# target name -> function of the result whose values are summed
RESULT_SIZES = {
    "ncalg.normal_form": lambda p: len(p.terms()),
    "ncalg.NCPoly.__mul__": lambda p: len(p.terms()),
    "fock.FockOp.__mul__": lambda op: len(op.data),
}


def _resolve(modules, path):
    """(owner, attribute, raw class-dict value or function) or None."""
    if isinstance(modules, str):
        modules = (modules,)
    for modname in modules:
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            continue
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        return None if raw is None else (owner, attr, raw)
    return None


def slh2_modules():
    """(name, module) of every imported slh2 module, by name."""
    return sorted((name, m) for name, m in list(sys.modules.items()) if name.split(".")[0] == "slh2" and m)


def _func(raw):
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


class Stat:
    __slots__ = ("calls", "incl", "own", "size", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.own = 0.0
        self.size = 0
        self.depth = 0


class Tracer:
    """Install with install(), read with snapshot(), remove with uninstall()."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.stats = {}  # "layer.path" -> Stat
        self.layer_of = {}
        self.missing = []
        self._frames = [0.0]  # child time accumulated per open span; [0] is the root
        self._undo = []

    def _wrap(self, fn, stat, size):
        frames = self._frames
        clock = self.clock

        def traced(*args, **kwargs):
            frames.append(0.0)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.depth -= 1
                stat.calls += 1
                stat.own += dt - frames.pop()
                if not stat.depth:
                    stat.incl += dt
                frames[-1] += dt
            if size is not None:
                stat.size += size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _count(fn, stat):
        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        modules = [m for _, m in slh2_modules()]
        for layer, targets in self.layers.items():
            for modules_spec, path in targets:
                name = f"{layer}.{path}"
                found = _resolve(modules_spec, path)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, attr, raw = found
                fn = _func(raw)
                stat = self.stats.setdefault(name, Stat())
                self.layer_of[name] = layer
                if name in COUNT_ONLY:
                    wrapped = self._count(fn, stat)
                else:
                    wrapped = self._wrap(fn, stat, RESULT_SIZES.get(name))
                if isinstance(owner, type):
                    # the method and every alias of it in the class body
                    for key, value in list(owner.__dict__.items()):
                        if _func(value) is fn:
                            new = type(value)(wrapped) if isinstance(value, (staticmethod, classmethod)) else wrapped
                            self._undo.append((owner, key, value))
                            setattr(owner, key, new)
                else:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._undo.append((mod, key, value))
                                setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def covered_s(self):
        """Total time of outermost traced spans so far."""
        return self._frames[0]

    def snapshot(self):
        return {
            name: {"layer": self.layer_of[name], "calls": s.calls, "incl_s": s.incl, "self_s": s.own, "size": s.size}
            for name, s in self.stats.items()
        }

