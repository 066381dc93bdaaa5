"""Ratchet on the package's options: every parameter with a default and
every dataclass field with a default is a value a caller may set, so the
count may fall but never rise.  The count must equal ``MAX_OPTIONS``: lower
it when a change removes options, so no removal leaves the ratchet slack; a
change that needs a new option states why and raises it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mgcs"
MAX_OPTIONS = 36


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def _not_in_init(value):
    # field(init=False, ...) is derived in __post_init__, not set by callers
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def package_options():
    """(module, line, name) of each defaulted parameter and dataclass field."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found += [(path.name, a.lineno, a.arg) for a in defaulted]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [(path.name, s.lineno, f"{node.name}.{s.target.id}")
                          for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None
                          and not _not_in_init(s.value)]
    return found


def test_no_new_options():
    found = package_options()
    listing = "\n".join(f"  {module}:{line} {name}" for module, line, name in sorted(found))
    assert len(found) <= MAX_OPTIONS, (
        f"{len(found)} options, above the ratchet of {MAX_OPTIONS}:\n{listing}")
    assert len(found) == MAX_OPTIONS, (
        f"{len(found)} options, below the ratchet of {MAX_OPTIONS}: lower "
        f"MAX_OPTIONS to {len(found)}")
