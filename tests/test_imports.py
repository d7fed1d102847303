"""Every import in the package and its tests is used, every
module-level name of the package is referenced, every tolerance field
is read and every optional parameter is passed somewhere in the package
(stdlib ast scans), the package imports nothing beyond the standard
library and its declared dependencies, and it holds no three-operand
einsum outside an allowlist, nor a call of an np.linalg routine that
linalg wraps with an l = 1 closed form outside linalg and an allowlist,
and only specio's float-text engine and list path call float.__repr__."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "matszego").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# Module-level names the package itself never references, and why they stay.
UNREFERENCED_ALLOWED = {
    # the one-coefficient reference that fourier_coefficients is tested against
    "linalg.matrix_fourier_coeff",
    # the L^2 operator 1-norm of the acceptance gate's norm-equivalence criterion
    "linalg.norm_l2_1",
    # the mass roots of the acceptance gate's mass-decay criterion
    "linalg.principal_sqrt",
    # <<f, g>> from sampled values, the definition the recurrence's whitened
    # row sums (its Gram certificate included) are tested against
    "measure.inner_product",
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
    """module.name of each module-level function, class or constant, and
    module.Class.name of each method or property of a module-level class,
    that no other line of the given modules reads, imports or lists in
    __all__.

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
        # (qualified prefix, definition) of module-level statements and of
        # the methods and properties of module-level classes
        defs = [(module, node) for node in tree.body]
        defs += [
            (f"{module}.{node.name}", item)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for prefix, node in defs:
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
                    found.append(f"{prefix}.{name}")
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
        "c": (
            "class D:\n"
            "    def __init__(self):\n        self.used()\n"
            "    def used(self):\n        return 1\n"
            "    def loop(self):\n        return self.loop()\n"
            "    @property\n    def size(self):\n        return 0\n"
            "print(D)\n"
        ),
    }
    assert unreferenced_names(sources) == ["a.X", "a.f", "c.D.loop", "c.D.size"]


def test_no_unreferenced_names():
    found = unreferenced_names({path.stem: path.read_text() for path in PACKAGE})
    assert sorted(set(found) - UNREFERENCED_ALLOWED) == []
    # an allowlisted name that is referenced again, or deleted, leaves the list
    assert sorted(UNREFERENCED_ALLOWED - set(found)) == []


def unread_tolerances(sources: dict[str, str]) -> list[str]:
    """Fields of tolerances.Tolerances that no module reads as tol.<field>."""
    tree = ast.parse(sources["tolerances"])
    fields = [
        item.target.id
        for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tolerances"
        for item in node.body if isinstance(item, ast.AnnAssign)
    ]
    read = {
        node.attr
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "tol"
    }
    return [name for name in fields if name not in read]


def test_every_tolerance_is_read():
    assert unread_tolerances({path.stem: path.read_text() for path in PACKAGE}) == []


def unpassed_options(sources: dict[str, str]) -> list[str]:
    """module.function(param), or module.Class.method(param), of each
    parameter with a default that no call in the given modules passes,
    by keyword or by position.

    Calls are matched by name, as a bare name or an attribute, and a
    class's __init__ by the class name or that of a subclass in the same
    module that inherits it; *args in a call passes every positional
    parameter, and **kwargs every parameter.
    """
    calls: dict[str, list[tuple[float, set[str | None]]]] = {}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if starred else len(node.args)
                calls.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    found = []
    for module, tree in trees.items():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        inits = {node.name for node in classes
                 if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                        for item in node.body)}
        heirs = {node.name: [node.name] + [
            sub.name for sub in classes if sub.name not in inits
            and any(isinstance(base, ast.Name) and base.id == node.name for base in sub.bases)
        ] for node in classes}
        # (qualified prefix, called as, definition, 1 for a method's self)
        defs = [(module, [node.name], node, 0) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [
            (f"{module}.{node.name}",
             heirs[node.name] if item.name == "__init__" else [item.name], item, 1)
            for node in classes
            for item in node.body if isinstance(item, ast.FunctionDef)
        ]
        for prefix, names, fn, skip in defs:
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            options = [(i - skip, p.arg) for i, p in enumerate(params) if i >= first]
            options += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                        if d is not None]
            for index, param in options:
                if not any(
                    param in keywords or None in keywords
                    or (index is not None and count > index)
                    for called in names for count, keywords in calls.get(called, ())
                ):
                    found.append(f"{prefix}.{fn.name}({param})")
    return found


# Optional parameters no call in the package passes, and why they stay.
UNPASSED_OPTIONS_ALLOWED = {
    # the console script calls main() with no arguments; tests pass argv
    "cli.main(argv)",
}
# Parameter names exempt wherever they appear, and why.
UNPASSED_NAMES_ALLOWED = {
    # the tolerance profile: a library caller may run any stage under its own
    "tol",
}


def test_scan_finds_an_unpassed_option():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2, tol=None):\n    return x\n"
            "def g(x, y=1):\n    return x\n"
            "class C:\n"
            "    def __init__(self, n=0):\n        self.n = n\n"
            "    def m(self, k=1):\n        return k\n"
            "class D(C):\n    pass\n"
        ),
        "b": "f(1, 2)\ng(1, y=3)\nC().m(4)\nh = f(*args, **kw)\n",
    }
    assert unpassed_options(sources) == ["a.C.__init__(n)"]
    sources["b"] += "D(5)\n"  # D inherits C.__init__
    assert unpassed_options(sources) == []
    sources["b"] = "f(1)\ng(*args)\nC(**kw).m()\n"
    assert unpassed_options(sources) == ["a.f(y)", "a.f(z)", "a.f(tol)", "a.C.m(k)"]


def test_every_option_is_passed_somewhere():
    found = unpassed_options({path.stem: path.read_text() for path in PACKAGE})
    left = [f for f in found if f.split("(")[1][:-1] not in UNPASSED_NAMES_ALLOWED]
    assert sorted(set(left) - UNPASSED_OPTIONS_ALLOWED) == []
    # an allowlisted option that is passed again, or deleted, leaves the list
    assert sorted(UNPASSED_OPTIONS_ALLOWED - set(found)) == []


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Absolute imports whose top-level package is neither in the
    standard library nor in allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in allowed:
                found.append(f"line {node.lineno}: {top}")
    return found


def declared_dependencies() -> set[str]:
    """Import names of the pyproject.toml [project] dependencies."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in project["dependencies"]
    }


def test_scan_finds_a_foreign_import():
    source = "import os.path\nimport scipy.linalg\nfrom numpy import fft\nfrom . import errors\n"
    assert foreign_imports(source, {"numpy"}) == ["line 2: scipy"]
    assert foreign_imports("from scipy import linalg\n", set()) == ["line 1: scipy"]


def test_package_imports_only_declared_dependencies():
    allowed = declared_dependencies()
    assert allowed == {"numpy"}
    found = {
        path.name: names for path in PACKAGE if (names := foreign_imports(path.read_text(), allowed))
    }
    assert found == {}


def test_cli_run_loads_no_scipy():
    # a fresh interpreter: this test process may have loaded scipy itself
    script = (
        "import contextlib, io, json, sys\n"
        "import matszego.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = matszego.cli.main(['blaschke', 'specs/semicircle_mass.json'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


# Three-operand np.einsum calls the package may hold, by enclosing function,
# with how many each holds. numpy contracts them in its own loops, without
# BLAS; a stack times constant frames belongs on linalg.frame_product or
# linalg.diagonal_congruence instead.
THREE_OPERAND_EINSUMS_ALLOWED = {
    # sum_j p_n(E_j)* w_j p_n(E_j) over the mass stack: one term per mass
    "limits.verify_masses": 1,
}


def calls_by_function(module: str, source: str, match) -> list[str]:
    """module.function of each call for which match(call) holds, once per
    call, by its enclosing function ("<module>" at the top level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            elif isinstance(child, ast.Call) and match(child):
                found.append(f"{module}.{owner}")
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def is_numpy_attribute(node, *path: str) -> bool:
    """Whether node is np.<path> (or numpy.<path>)."""
    for name in reversed(path):
        if not (isinstance(node, ast.Attribute) and node.attr == name):
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def three_operand_einsums(module: str, source: str) -> list[str]:
    """module.function of each np.einsum (or numpy.einsum) call with a
    subscripts argument and three operands, once per call."""
    return calls_by_function(
        module, source, lambda call: is_numpy_attribute(call.func, "einsum") and len(call.args) == 4
    )


def test_scan_finds_a_three_operand_einsum():
    source = (
        "import numpy as np\n"
        "x = np.einsum('ij,jk,kl->il', a, b, c)\n"
        "def f(a, f, b):\n"
        "    g = np.einsum('ij,mjk->mik', a, f)\n"
        "    return np.einsum('ij,mjk,kl->mil', a, f, b)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return numpy.einsum('i,i,i->', a, b, c)\n"
    )
    assert three_operand_einsums("a", source) == ["a.<module>", "a.f", "a.m"]


def test_three_operand_einsums_only_where_allowed():
    found = {}
    for path in PACKAGE:
        for name in three_operand_einsums(path.stem, path.read_text()):
            found[name] = found.get(name, 0) + 1
    # exact: a new call fails, and one that is removed leaves the list
    assert found == THREE_OPERAND_EINSUMS_ALLOWED


# The np.linalg routines that linalg wraps with a closed form at l = 1
# (linalg.det, eigvalsh, eigh and inv), and the calls of them outside
# linalg that stay on LAPACK on purpose, by routine and enclosing function,
# with how many each holds.
LINALG_KERNELS = ("det", "eigvalsh", "eigh", "inv")
LAPACK_CALLS_ALLOWED = {
    # G(e^{-it})^{-1}: the factor is complex, where 1 / a rounds other than
    # LAPACK, and verify's L2 residuals carry that rounding
    "inv outer.s_function": 1,
    # the Wilson iterate is complex too
    "inv outer._wilson": 1,
    # the recurrence's Gram matrix, whose l = 1 case the function takes
    # first, as one dot product without forming the matrix
    "eigh polynomials._gram_eigh": 1,
}


def lapack_calls(module: str, source: str) -> list[str]:
    """Each np.linalg call of a LINALG_KERNELS routine, as "routine module.function"."""
    return [
        f"{routine} {owner}"
        for routine in LINALG_KERNELS
        for owner in calls_by_function(
            module, source, lambda call: is_numpy_attribute(call.func, "linalg", routine)
        )
    ]


def test_scan_finds_a_lapack_call():
    source = (
        "import numpy as np\n"
        "d = np.linalg.det(a)\n"
        "def f(a):\n"
        "    np.linalg.svd(a)\n"
        "    return numpy.linalg.inv(a) @ np.linalg.inv(a)\n"
        "def g(a):\n"
        "    return linalg.det(a), np.det(a)\n"
    )
    assert lapack_calls("a", source) == ["det a.<module>", "inv a.f", "inv a.f"]


def test_lapack_calls_only_in_linalg_or_where_allowed():
    found = {}
    for path in PACKAGE:
        if path.stem != "linalg":
            for name in lapack_calls(path.stem, path.read_text()):
                found[name] = found.get(name, 0) + 1
    # exact: a new call fails, and one that is removed leaves the list
    assert found == LAPACK_CALLS_ALLOWED


# The functions that call float.__repr__, or pass it on, with how many
# calls each holds: the float-text engine's magnitude texts and the list
# path's rows. Every table, report array and CSV table is written by them,
# so how a float becomes text is decided in one place.
FLOAT_REPR_ALLOWED = {
    "specio._magnitude_texts": 1,
    "specio._float_rows": 1,
}


def float_reprs(module: str, source: str) -> list[str]:
    """module.function of each call of float.__repr__, or of a call that
    passes it as an argument (map(float.__repr__, ...)), once per call."""

    def is_float_repr(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "__repr__"
                and isinstance(node.value, ast.Name) and node.value.id == "float")

    return calls_by_function(
        module, source,
        lambda call: any(map(is_float_repr, [call.func, *call.args,
                                             *(k.value for k in call.keywords)])),
    )


def test_scan_finds_a_float_repr():
    source = (
        "t = float.__repr__(0.5)\n"
        "def f(a):\n"
        "    return list(map(float.__repr__, a)), repr(a), int.__repr__(1)\n"
        "def g(a):\n"
        "    return sorted(a, key=float.__repr__)\n"
    )
    assert float_reprs("a", source) == ["a.<module>", "a.f", "a.g"]


def test_float_reprs_only_where_allowed():
    found = {}
    for path in PACKAGE:
        for name in float_reprs(path.stem, path.read_text()):
            found[name] = found.get(name, 0) + 1
    # exact: a new call fails, and one that is removed leaves the list
    assert found == FLOAT_REPR_ALLOWED
