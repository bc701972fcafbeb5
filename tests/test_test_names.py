"""Every test module defines each top-level test once.

A second ``def test_x`` in the same module replaces the first, so pytest
never collects the first and its checks silently stop running.  A static
scan of every module under ``tests/`` and ``perfbench/tests/`` finds such
repeated names.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MODULES = sorted(
    path for d in ("tests", "perfbench/tests") for path in (ROOT / d).glob("*.py")
)


def repeated_tests(tree):
    """Top-level ``test_*`` functions and ``Test*`` classes defined more
    than once, with their count."""
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, DEFS) and node.name.startswith(("test_", "Test"))
    )
    return {name: n for name, n in names.items() if n > 1}


def test_the_scan_sees_a_repeated_test():
    src = "def test_a(): pass\ndef test_b(): pass\nclass test_a: pass\n"
    assert repeated_tests(ast.parse(src)) == {"test_a": 2}
    # only names pytest collects count
    assert repeated_tests(ast.parse("def f(): pass\ndef f(): pass\n")) == {}


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_test_is_defined_twice(path):
    assert len(MODULES) > 10
    found = repeated_tests(ast.parse(path.read_text(), str(path)))
    assert found == {}, f"{path.name}: {found}"
