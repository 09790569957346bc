"""Every name a module of ``tvdeblur`` imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tvdeblur"

#: (module, name) imported but unused: bench/spans.py patches these names
#: to count transform calls, and ROADMAP item 4 deletes them with it
KEPT_FOR_THE_SPANS = {("blur", "apply_1d"), ("precond", "apply_1d"),
                      ("precond", "tensor_apply_2d")}


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_imports_no_name_it_does_not_use(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    kept = {name for module, name in KEPT_FOR_THE_SPANS if module == path.stem}
    assert unused - kept == set()


def test_an_unused_import_is_found():
    assert unused_imports("import math\nfrom os import path, sep\n"
                          "__all__ = ['sep']\nprint(path)\n") == {"math"}
