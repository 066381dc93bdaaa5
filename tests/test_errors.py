"""Library-wide error conventions."""

import ast
from pathlib import Path

import mgcs


def test_library_code_raises_typed_errors_not_assert():
    # assert statements vanish under python -O, so a check written as one
    # silently stops checking
    found = []
    for path in sorted(Path(mgcs.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert in library code: {found}"
