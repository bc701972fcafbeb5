"""Builds keep their state on the chain state, not in process-global caches.

A ``functools.cache`` or ``lru_cache`` keeps its entries for the life of
the process and shares them between builds, with no bound on what one
build leaves behind; a build's memos belong on its ``JumpState`` and go
with it.  A static scan of every module of the package finds each use of
the two, as a decorator or otherwise, however they are imported.  The
one use allowed is ``values._sqrt_table``: fixed-point square roots per
radicand tuple and precision, which no build changes.
"""
import ast
from pathlib import Path

import pytest

import valgen

CACHES = {"cache", "lru_cache"}
ALLOWED = {("values.py", "_sqrt_table")}
MODULES = sorted(Path(valgen.__file__).parent.glob("*.py"))


def cache_uses(tree):
    """(line, function) for every use of functools.cache or lru_cache in a
    parsed module, in line order: function names what a decorator wraps,
    and is None for any other use."""
    modules = {"functools"}
    names = set()
    wrapped = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                a.asname or a.name for a in node.names if a.name == "functools"
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                wrapped[id(d.func if isinstance(d, ast.Call) else d)] = node.name
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, wrapped.get(id(node))))
    return sorted(found, key=lambda use: use[0])


def test_the_scan_sees_every_kind():
    src = (
        "import functools\nimport functools as ft\n"
        "from functools import cache, lru_cache as lc\n"
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
        "@ft.cache\nasync def c(): pass\n"
        "@lc()\ndef d(): pass\n"
        "e = functools.cache(len)\n"
    )
    assert cache_uses(ast.parse(src)) == [
        (4, "a"), (6, "b"), (8, "c"), (10, "d"), (12, None)
    ]
    # other functools names, and names that only look alike, pass
    ok = (
        "from functools import reduce\nimport functools\ndef cache(): pass\n"
        "@functools.wraps(cache)\ndef f(): cache()\n"
    )
    assert cache_uses(ast.parse(ok)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_process_global_caches(path):
    assert MODULES
    uses = cache_uses(ast.parse(path.read_text(), str(path)))
    found = [use for use in uses if (path.name, use[1]) not in ALLOWED]
    assert found == [], f"{path.name}: {found}"
