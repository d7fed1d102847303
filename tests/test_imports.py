"""Every import in the package and its tests is used, and every
module-level name of the package is referenced (stdlib ast scans)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "matszego").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# Module-level names the package itself never references, and why they stay.
UNREFERENCED_ALLOWED = {
    # the one-coefficient reference that fourier_coefficients is tested against
    "linalg.matrix_fourier_coeff",
    # the L^2 operator 1-norm of the acceptance gate's norm-equivalence criterion
    "linalg.norm_l2_1",
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads or lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def exported(tree: ast.Module) -> list[str]:
    """The names listed in a module's __all__."""
    return [
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level function, class or constant that
    no other line of the given modules reads, imports or lists in __all__.

    References are matched by name, as a bare name or an attribute;
    lines inside the definition itself (recursion) do not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, set()).add((module, node.lineno))
        for name in exported(tree):
            refs.setdefault(name, set()).add((module, 0))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            for name in names:
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not any(m != module or line not in span for m, line in refs.get(name, ())):
                    found.append(f"{module}.{name}")
    return found


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.path)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_scan_finds_an_unreferenced_name():
    sources = {
        "a": "X = 1\nY = 2\ndef f(n):\n    return f(n - 1)\nclass C:\n    pass\n",
        "b": "from .a import Y\n__all__ = ['C']\nprint(Y)\n",
    }
    assert unreferenced_names(sources) == ["a.X", "a.f"]


def test_no_unreferenced_names():
    found = unreferenced_names({path.stem: path.read_text() for path in PACKAGE})
    assert sorted(set(found) - UNREFERENCED_ALLOWED) == []
    # an allowlisted name that is referenced again, or deleted, leaves the list
    assert sorted(UNREFERENCED_ALLOWED - set(found)) == []
