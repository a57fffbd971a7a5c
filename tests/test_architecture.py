"""The layering of slh2, read from its source with ast."""

import ast
from pathlib import Path

import slh2

SRC = Path(slh2.__file__).parent

# the modules with a pairwise product of radicands of their own: the
# kernel's one product loop, the engine's memo loop (ncalg._mul) and the
# Fock oracle, which keeps its arithmetic apart on purpose
GCD_MODULES = {"kernel", "ncalg", "fock"}


def _uses_gcd(tree):
    """Whether a module imports math.gcd or reads it as math.gcd."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name in ("gcd", "*") for alias in node.names):
                return True
        if isinstance(node, ast.Attribute) and node.attr == "gcd":
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                return True
    return False


def test_only_the_product_loops_import_gcd():
    users = {
        path.stem for path in SRC.glob("*.py") if _uses_gcd(ast.parse(path.read_text(), str(path)))
    }
    assert "kernel" in users
    assert users <= GCD_MODULES, sorted(users - GCD_MODULES)

