"""grouplat answers questions about values and reads no chain state, and
only jumpseq writes the chains.

Its searches take values, solvers and count vectors; which rows, leads
and caps a chain supplies is decided in jumpseq, which calls them.  A
static scan of grouplat finds every import of a module that builds on
it, every function parameter named ``state`` and every use of a name of
the chain state's surface, as a variable, attribute, parameter, keyword
or imported name.  Docstrings and comments are not scanned.

A second scan, of every module but jumpseq, finds every write to a
chain, to the flags or to a chain-record field, so derived reports never
mutate the chains.  A frozen record's constructor setting its own field
(``object.__setattr__(self, ...)`` in ``__init__``) writes no chain
record, whatever the field's name.

A third scan, of every module but laurent, finds every use of a name of
``LaurentPoly``'s packed form: its key, numerator, denominator and bound
fields and the helpers that build a polynomial from them.  Other modules
read exponents through the one accessor ``exponents``, and valmodel's
scans read them through it, not through ``terms``.

Last, every process pays for what importing the package runs: no module
imports ``dataclasses`` or ``typing`` or calls ``exec`` or ``eval``, and
importing ``valgen.cli`` loads none of ``dataclasses``, ``inspect``,
``typing`` and ``tempfile``.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import valgen

ABOVE = {"jumpseq", "outputs", "cli"}
CHAIN_NAMES = {
    "p_chain",
    "t_chain",
    "m_at",
    "coordinates",
    "lead_counts",
    "value_of",
    "status",
}
GROUPLAT = Path(valgen.__file__).with_name("grouplat.py")
# the fields of PJump and TJump
RECORD_FIELDS = {
    "poly", "image", "beta", "gamma", "q", "L_vec", "lam",
    "status", "s", "m", "D", "parent", "mu", "LN",
}
WRITTEN = {"p_chain", "t_chain", "flags"} | RECORD_FIELDS
CHAINS = {"p_chain", "t_chain"}
CHAIN_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear"}


def chain_reads(tree):
    """(line, what) for every import of a module in ABOVE, parameter named
    state and name in CHAIN_NAMES in a parsed module, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            base = getattr(node, "module", None) or ""
            dotted = {base} | {f"{base}.{a.name}" for a in node.names}
            if any(set(name.split(".")) & ABOVE for name in dotted):
                found.append((node.lineno, "import"))
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        elif isinstance(node, ast.arg):
            if node.arg == "state":
                found.append((node.lineno, "state"))
            names = [node.arg]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in CHAIN_NAMES]
    return sorted(found)


def test_the_scan_sees_every_kind():
    src = (
        "from .jumpseq import JumpState\n"
        "import valgen.outputs\n"
        "from . import cli\n"
        "def f(alpha, state, k):\n"
        "    return state.coordinates(k, 0)\n"
        "g = lambda state: m_at(1)\n"
        "h = sorted(xs, key=value_of)\n"
        "t_chain = p_chain\n"
        "solve(status=1)\n"
        "from .values import lead_counts as reader\n"
    )
    assert chain_reads(ast.parse(src)) == [
        (1, "import"),
        (2, "import"),
        (3, "import"),
        (4, "state"),
        (5, "coordinates"),
        (6, "m_at"),
        (6, "state"),
        (7, "value_of"),
        (8, "p_chain"),
        (8, "t_chain"),
        (9, "status"),
        (10, "lead_counts"),
    ]
    # value-level names, and chain words in strings, pass
    ok = (
        "from .values import Value, combination\n"
        "def g(alpha, solver, leads, layer_cap): return solver.contains(alpha)\n"
        "msg = 'reads no p_chain, t_chain or state'\n"
    )
    assert chain_reads(ast.parse(ok)) == []


def test_grouplat_reads_no_chain_state():
    tree = ast.parse(GROUPLAT.read_text(), str(GROUPLAT))
    assert chain_reads(tree) == []
    # the three searches the benchmark traces stay defined here
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert {
        "permissible_decompose",
        "irreducible_decompose",
        "minimal_pushing_set",
    } <= defined


def _targets(node):
    """The attributes an assignment or del writes, through unpacking and
    subscripts: ``state.t_chain[0] = rec`` writes t_chain."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, (ast.Starred, ast.Subscript)):
        yield from _targets(node.value)
    elif isinstance(node, ast.Attribute):
        yield node


def _call_writes(node):
    """(line, what) for a setattr or object.__setattr__ of a name in
    WRITTEN, or of a name the scan cannot read, and for a list mutator
    called on p_chain or t_chain."""
    func = node.func
    found = []
    setter = (isinstance(func, ast.Name) and func.id == "setattr") or (
        isinstance(func, ast.Attribute) and func.attr == "__setattr__"
    )
    if setter and len(node.args) > 1:
        name = node.args[1]
        if not isinstance(name, ast.Constant):
            found.append((node.lineno, "setattr"))
        elif name.value in WRITTEN:
            found.append((node.lineno, name.value))
    if (
        isinstance(func, ast.Attribute)
        and func.attr in CHAIN_MUTATORS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr in CHAINS
    ):
        found.append((node.lineno, f"{func.value.attr}.{func.attr}"))
    return found


def _own_field_writes(tree):
    """The ``object.__setattr__(self, ...)`` calls inside ``__init__``
    methods, by node id: a constructor setting its own record's fields."""
    return {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__setattr__"
        and node.args
        and ast.unparse(node.args[0]) == "self"
    }


def chain_writes(tree):
    """(line, what) for every write in a parsed module to an attribute in
    WRITTEN, by assignment, augmented or annotated assignment, del,
    setattr or object.__setattr__, and every call of a list mutator on
    p_chain or t_chain, in line order; a constructor's writes to its own
    fields (``_own_field_writes``) excepted."""
    found = []
    own = _own_field_writes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if id(node) not in own:
                found += _call_writes(node)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [
            (node.lineno, t.attr)
            for target in targets
            for t in _targets(target)
            if t.attr in WRITTEN
        ]
    return sorted(found)


def test_the_write_scan_sees_every_kind():
    src = (
        "state.t_chain = []\n"
        "rec.status = 'ok'\n"
        "rec.m += 1\n"
        "state.flags: Flags = Flags(state)\n"
        "rec.s, (rec.D, other) = 1, (2, 3)\n"
        "state.p_chain[0] = rec\n"
        "setattr(rec, 'gamma', v)\n"
        "object.__setattr__(rec, 'LN', v)\n"
        "setattr(rec, name, v)\n"
        "state.p_chain.append(rec)\n"
        "self.t_chain.pop()\n"
        "del state.t_chain[-1]\n"
        "*rec.parent, x = pair\n"
        "def __init__(self, rec):\n"
        "    object.__setattr__(rec, 'status', 1)\n"
        "    self.status = 1\n"
        "def reset(self):\n"
        "    object.__setattr__(self, 'status', 1)\n"
    )
    assert chain_writes(ast.parse(src)) == [
        (1, "t_chain"),
        (2, "status"),
        (3, "m"),
        (4, "flags"),
        (5, "D"),
        (5, "s"),
        (6, "p_chain"),
        (7, "gamma"),
        (8, "LN"),
        (9, "setattr"),
        (10, "p_chain.append"),
        (11, "t_chain.pop"),
        (12, "t_chain"),
        (13, "parent"),
        (15, "status"),
        (16, "status"),
        (18, "status"),
    ]
    # reads, local names, other attributes and outputs' own cache slot pass
    ok = (
        "state._thresholds = index\n"
        "status = rec.status\n"
        "first = state.t_chain[0]\n"
        "rows.append(rec.index)\n"
        "keep = rec.poly.is_zero()\n"
        "object.__setattr__(self, 'nums', nums)\n"
        "counts[rec.index] += 1\n"
        "class Certificate:\n"
        "    def __init__(self, status):\n"
        "        object.__setattr__(self, 'status', status)\n"
    )
    assert chain_writes(ast.parse(ok)) == []


def test_only_jumpseq_writes_the_chains():
    found = {}
    for path in sorted(GROUPLAT.parent.glob("*.py")):
        if path.stem != "jumpseq":
            found[path.stem] = chain_writes(ast.parse(path.read_text(), str(path)))
    assert len(found) >= 8
    assert {name: got for name, got in found.items() if got} == {}


# LaurentPoly's packed fields and the laurent helpers that build from them
PACKED = {
    "_keys", "_nums", "_denom", "_reach", "_set", "_new", "_fit",
    "_zero_key", "_ZERO_FIELD", "_OFFSET", "FIELD_BITS",
}
MODULES = sorted(GROUPLAT.parent.glob("*.py"))


def names_used(tree):
    """(line, name) for every variable, attribute, parameter, keyword,
    imported name and string constant in a parsed module, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Attribute, ast.arg, ast.keyword)):
            names = [getattr(node, "attr", None) or node.arg]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name, a.asname) if n]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names if name]
    return sorted(found)


def packed_uses(tree):
    return [(line, name) for line, name in names_used(tree) if name in PACKED]


def test_the_packed_scan_sees_every_kind():
    src = (
        "from .laurent import _zero_key, FIELD_BITS as width\n"
        "keys = f._keys\n"
        "g = LaurentPoly._new(f, {1: 2}, 1, (0,))\n"
        "n = getattr(f, '_nums')\n"
        "def h(_reach): return _fit(_reach, 'product')\n"
        "g._set(v, raw, den=f._denom, reach=())\n"
    )
    assert packed_uses(ast.parse(src)) == [
        (1, "FIELD_BITS"),
        (1, "_zero_key"),
        (2, "_keys"),
        (3, "_new"),
        (4, "_nums"),
        (5, "_fit"),
        (5, "_reach"),
        (5, "_reach"),
        (6, "_denom"),
        (6, "_set"),
    ]
    # the accessor, the boundary forms and valmodel's own fields pass
    ok = (
        "exps = g.exponents()\n"
        "first = g.term(at)\n"
        "c = f.coefficients()[0] / f.terms[0][1]\n"
        "v = Value(basis, nums, self._den)\n"
        "'reads keys through exponents'\n"
    )
    assert packed_uses(ast.parse(ok)) == []


def test_only_laurent_touches_the_packed_form():
    found = {
        path.stem: packed_uses(ast.parse(path.read_text(), str(path)))
        for path in MODULES
        if path.stem != "laurent"
    }
    assert len(found) >= 8
    assert {name: got for name, got in found.items() if got} == {}
    # valmodel's hot scans read exponents off the keys, not terms
    valmodel = GROUPLAT.with_name("valmodel.py")
    used = {name for _, name in names_used(ast.parse(valmodel.read_text()))}
    assert "exponents" in used and "terms" not in used


# the module whose decorators exec generated methods, the module that only
# annotations would use (they are strings under ``from __future__ import
# annotations``), and the builtins that would run generated code
DYNAMIC = {"dataclasses", "typing", "exec", "eval"}


def dynamic_code(tree):
    """(line, what) for every import of dataclasses or typing and every
    call of exec or eval in a parsed module, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in DYNAMIC]
    return sorted(found)


def test_the_dynamic_code_scan_sees_every_kind():
    src = (
        "from dataclasses import dataclass\n"
        "import dataclasses, json\n"
        "exec(code, ns)\n"
        "x = eval('1')\n"
        "from typing import Optional\n"
        "import typing as t\n"
    )
    assert dynamic_code(ast.parse(src)) == [
        (1, "dataclasses"), (2, "dataclasses"), (3, "exec"), (4, "eval"),
        (5, "typing"), (6, "typing"),
    ]
    ok = (
        "from .values import Value\nliteral_eval(text)\nself.exec_count = 1\n"
        "from collections.abc import Sequence\n"
    )
    assert dynamic_code(ast.parse(ok)) == []


def test_no_module_imports_dataclasses_or_runs_dynamic_code():
    found = {
        path.stem: dynamic_code(ast.parse(path.read_text(), str(path)))
        for path in MODULES
    }
    assert len(found) >= 8
    assert {name: got for name, got in found.items() if got} == {}


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # -S: no site .pth file may load one of them first
    code = (
        "import valgen.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'tempfile'}"
        " & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(GROUPLAT.parent.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout == "[]\n"
