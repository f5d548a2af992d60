"""Every name a matchain module imports is used in that module, every
name a module defines is used somewhere, so code that a change deletes
leaves no import or helper behind, and matchain depends on NumPy alone."""

import ast
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "matchain"


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_nothing_imports_scipy():
    """No module of src/matchain imports SciPy, at top level or inside a
    function, and the package does not declare it."""
    found = [f"{path.name}: {name}" for path in sorted(_SRC.glob("*.py"))
             for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
             if name.split(".")[0] == "scipy"]
    assert not found
    assert "scipy" not in (_ROOT / "pyproject.toml").read_text(encoding="utf-8").lower()


def test_every_imported_name_is_used():
    unused = [f"{path.name}: {name}" for path in sorted(_SRC.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused


def _defined(tree):
    """Names a module defines at its top level: functions, classes and
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _references(tree):
    """Every name a module reads, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.name.split(".")[-1] for a in node.names)


def test_every_defined_name_is_used():
    """A top-level def, class or assignment of src/matchain that no module
    of src, tests, benchmarks or tools refers to is dead (dunders aside)."""
    files = [path for top in ("src", "tests", "benchmarks", "tools")
             for path in sorted((_ROOT / top).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{path.name}: {name}" for path, tree in trees.items() if path.parent == _SRC
            for name in _defined(tree) if name not in used and not name.startswith("__")]
    assert not dead


def test_only_families_reads_is_integer():
    """Sizes, counts and seeds are checked by families.require_int, so no
    module of src/matchain but families reads is_integer and forks the
    rule again."""
    readers = [path.name for path in sorted(_SRC.glob("*.py")) if path.name != "families.py"
               if "is_integer" in _references(ast.parse(path.read_text(encoding="utf-8")))]
    assert not readers


def test_only_dominance_calls_svd_and_none_calls_lstsq():
    """Coordinates in a linear family are one closed-form projection
    (families.coordinates_of) and the companion solve is read off one LU, so
    no module of src/matchain calls least squares, and the SVD is left only
    for the rank decision in dominance."""
    refs = {path.name: set(_references(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(_SRC.glob("*.py"))}
    assert not [name for name, used in refs.items() if "lstsq" in used]
    assert [name for name, used in refs.items() if "svd" in used] == ["dominance.py"]
