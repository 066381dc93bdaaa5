"""Ratchet on the package's surface: every top-level function and class in
``src/mgcs`` is something the system runs.  A definition passes when another
package module or a benchmark script under ``bench/`` names it, when its own
module uses it outside its definition, or when ``mgcs.__all__`` exports it.
Names are read from the syntax tree (names, attributes and imports), so a
string or a docstring that mentions a definition does not keep it.  Code that
only tests reach belongs in ``tests/oracles.py`` or in the test that uses it.
"""

import ast
from pathlib import Path

import mgcs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mgcs"
BENCH = ROOT / "bench"


def _named(nodes):
    """Every identifier the nodes use: names, attributes and imported names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                out.update(a.name.rsplit(".", 1)[-1] for a in sub.names)
    return out


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def unreached_definitions():
    """(module, line, name) of each top-level definition that fails all three
    conditions."""
    modules = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = set().union(*(_named([_parse(p)]) for p in sorted(BENCH.glob("*.py"))))
    exported = set(mgcs.__all__)
    found = []
    for name, tree in modules.items():
        elsewhere = bench.union(*(_named([t]) for other, t in modules.items() if other != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _named(n for n in tree.body if n is not node)
            if node.name not in elsewhere | own | exported:
                found.append((name, node.lineno, node.name))
    return found


def test_every_definition_is_reached():
    found = unreached_definitions()
    listing = "\n".join(f"  {module}:{line} {name}" for module, line, name in found)
    assert not found, (
        f"{len(found)} definitions in src/mgcs that only tests reach; move them "
        f"to tests/oracles.py or the test that uses them:\n{listing}")
