"""Every name a module of ``tvdeblur`` or a script under ``scripts/``
imports is used in that module, and no module reads an underscore name of
another."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tvdeblur"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: (module, name) imported but unused: bench/spans.py patches these names
#: to count transform calls, and the ROADMAP item "Delete the benchmark's
#: monkeypatching and the code kept for it" deletes them with it
KEPT_FOR_THE_SPANS = {("blur", "apply_1d"), ("blur", "tensor_apply_2d"),
                      ("precond", "apply_1d"), ("precond", "tensor_apply_2d")}


def unused_imports(source: str) -> set[str]:
    """Names bound by the import statements of ``source`` that no other
    name in it reads, nor its ``__all__`` lists."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py"))
                         + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_imports_no_name_it_does_not_use(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    kept = {name for module, name in KEPT_FOR_THE_SPANS if module == path.stem}
    assert unused - kept == set()


def test_an_unused_import_is_found():
    assert unused_imports("import math\nfrom os import path, sep\n"
                          "__all__ = ['sep']\nprint(path)\n") == {"math"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> set[str]:
    """``module.name`` for each underscore name of another ``tvdeblur``
    module that ``source`` imports (``from .m import _x``, ``from . import
    _m``) or reads from a module it imports (``m._x`` after ``from . import
    m`` or ``import tvdeblur.m as m``)."""
    tree = ast.parse(source)
    modules, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.module or "").split(".")
            if node.level == 0 and package[0] != "tvdeblur":
                continue
            module = ".".join(package[node.level == 0:])
            for alias in node.names:
                if not module:  # from . import m: m is a module
                    modules[alias.asname or alias.name] = alias.name
                    if _private(alias.name):
                        found.add(alias.name)
                elif _private(alias.name):
                    found.add(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tvdeblur.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("tvdeblur.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == set()


def test_a_private_read_is_found():
    source = ("import numpy as np\nimport tvdeblur.tv as tv\n"
              "from tvdeblur import blur\nfrom . import transforms\n"
              "from .krylov import _norm, check_settings\n"
              "blur._pad(np._x, blur.diagonalized, tv._extend, transforms.__doc__)\n")
    assert private_reads(source) == {"krylov._norm", "blur._pad",
                                     "tv._extend"}


#: the transform bodies and the parity layout: ``transforms`` owns them,
#: and every other module applies them through ``transforms.diagonalized``
#: or the tensor and 1D applies
LAYOUT_NAMES = {"_body_1d", "_parity_order", "_parity_blocks",
                "_analysis_step", "_synthesis_step"}


def layout_reads(source: str) -> set[str]:
    """The names of ``LAYOUT_NAMES`` that ``source`` imports, or reads as
    an attribute of any object."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & LAYOUT_NAMES


@pytest.mark.parametrize(
    "path", [path for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "transforms"], ids=lambda path: path.stem)
def test_only_transforms_reads_the_transform_layout(path):
    assert layout_reads(path.read_text(encoding="utf-8")) == set()


def test_a_layout_read_is_found():
    source = ("from .transforms import _body_1d, diagonalized\n"
              "t = transforms\nt._parity_order(kind, n)\n")
    assert layout_reads(source) == {"_body_1d", "_parity_order"}
