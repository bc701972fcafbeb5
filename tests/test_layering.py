"""grouplat answers questions about values and reads no chain state.

Its searches take values, solvers and count vectors; which rows, leads
and caps a chain supplies is decided in jumpseq, which calls them.  A
static scan of grouplat finds every import of a module that builds on
it, every function parameter named ``state`` and every use of a name of
the chain state's surface, as a variable, attribute, parameter, keyword
or imported name.  Docstrings and comments are not scanned.
"""
import ast
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
