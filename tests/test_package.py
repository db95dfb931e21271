"""The package ships only what a run calls: every module of ``coco_lab`` is
reached from the command line through the package's own imports, so code
that only the tests call (``tests/reference.py``) cannot creep back in."""

import ast
import os

import coco_lab

PACKAGE = os.path.dirname(os.path.abspath(coco_lab.__file__))


def package_imports(path: str) -> set:
    """The names that the module at ``path`` imports relatively: ``x`` for
    ``from .x import ...`` (or ``from .x.y import ...``) and for
    ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(open(path).read(), path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_reached_from_the_cli():
    modules = {f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")}
    imports = {m: package_imports(os.path.join(PACKAGE, f"{m}.py")) for m in modules}
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            # from . import x names a module or a name of __init__; only
            # the package's modules are followed
            todo.extend(imports[module] & modules)
    assert modules - {"__init__"} - reached == set()


def test_package_imports_reads_both_relative_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .core import path_length\nfrom .a.b import c\n"
                    "from . import budgets, geometry as g\nimport numpy\nfrom numpy import linalg\n")
    assert package_imports(str(path)) == {"core", "a", "budgets", "geometry"}
