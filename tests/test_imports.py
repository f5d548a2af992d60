"""Every name a matchain module imports is used in that module, so code
that a change deletes leaves no import behind."""

import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matchain"


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = [f"{path.name}: {name}" for path in sorted(_SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused
