"""The engine decides in exact arithmetic: no floats on the decision path.

A static scan of every module of the package for the ways a float gets
in: a float literal, a ``float(...)`` call, or the floating-point
``math`` functions ``sqrt``, ``log``, ``exp`` and ``pow`` (imported or
called through the module).  Integer square roots (``math.isqrt``) and
``Fraction``/``Decimal`` presentation stay allowed.
"""
import ast
from pathlib import Path

import pytest

import valgen

FLOAT_MATH = {"sqrt", "log", "exp", "pow"}
MODULES = sorted(Path(valgen.__file__).parent.glob("*.py"))


def float_uses(tree):
    """(line, what) for every float entry point in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "float(...) call"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_the_scan_sees_every_kind():
    src = "import math\nfrom math import log\nx = 0.5\ny = float(2)\nz = math.sqrt(2)\n"
    kinds = [what for _, what in float_uses(ast.parse(src))]
    assert len(kinds) == 4
    assert not list(float_uses(ast.parse("from math import isqrt\nq = 1 / 3\n")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats_in_the_package(path):
    assert MODULES
    found = list(float_uses(ast.parse(path.read_text(), str(path))))
    assert found == [], f"{path.name}: {found}"
