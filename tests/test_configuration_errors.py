"""Every error ``tvdeblur`` raises is one of two kinds, told apart by its
base: a ``ConfigurationError`` for a bad input, a ``NumericalFailure`` for a
computation that failed on valid input.  Each ``raise`` in the package is
resolved against its module and checked, and so is each exception class
the package defines."""

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import pytest

from tvdeblur import pipeline
from tvdeblur.krylov import ConfigurationError, NumericalFailure

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tvdeblur"
MODULES = sorted(PACKAGE.glob("*.py"))
BASES = (ConfigurationError, NumericalFailure)

#: (enclosing function, exception class) raised outside the two kinds: the
#: package cannot import without scipy's pocketfft and sparsetools bindings
EXEMPT = {("load_scipy_binding", ImportError)}


def raise_sites(tree: ast.AST, where: str = ""):
    """``(enclosing qualified name, Raise node)`` for each raise in ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from raise_sites(child, f"{where}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise):
            yield where, child
        yield from raise_sites(child, where)


def _resolve(node: ast.expr, namespace: dict):
    """The object a ``Name`` or dotted ``Attribute`` stands for, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def foreign_raises(source: str, namespace: dict) -> list[str]:
    """``function: exception`` for each ``raise`` of ``source`` whose class,
    looked up in ``namespace``, derives from neither base.  A bare re-raise
    passes, and so does an ``EXEMPT`` pair."""
    found = []
    for where, node in raise_sites(ast.parse(source)):
        if node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = _resolve(exc, namespace)
        if inspect.isclass(cls) and (issubclass(cls, BASES)
                                     or (where, cls) in EXEMPT):
            continue
        found.append(f"{where}: {ast.unparse(node.exc)}")
    return found


def _module(path: Path):
    return importlib.import_module(f"tvdeblur.{path.stem}")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_raise_is_one_of_the_two_kinds(path):
    source = path.read_text(encoding="utf-8")
    assert foreign_raises(source, vars(_module(path))) == []


def test_a_foreign_raise_is_found():
    source = ("class Spec:\n"
              "    def check(self):\n"
              "        if self.n < 1:\n"
              "            raise ConfigurationError('n')\n"
              "        if self.m < 1:\n"
              "            raise ValueError('m')\n"
              "        try:\n"
              "            pass\n"
              "        except KeyError:\n"
              "            raise\n"
              "        raise krylov.NumericalFailure('x')\n"
              "def solve():\n"
              "    raise RuntimeError\n"
              "def load_scipy_binding():\n"
              "    raise ImportError('scipy')\n"
              "def load():\n"
              "    raise ImportError('scipy')\n"
              "def unknown():\n"
              "    raise Missing('?')\n")
    namespace = {"ConfigurationError": ConfigurationError,
                 "krylov": importlib.import_module("tvdeblur.krylov")}
    assert foreign_raises(source, namespace) == [
        "Spec.check: ValueError('m')", "solve: RuntimeError",
        "load: ImportError('scipy')", "unknown: Missing('?')"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_exception_class_has_one_of_the_two_bases(path):
    module = _module(path)
    defined = [obj for obj in vars(module).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__]
    assert [cls.__name__ for cls in defined
            if not issubclass(cls, BASES)] == []


def test_two_bases():
    """The pipeline's name is the krylov class; the two bases are a
    ValueError and a RuntimeError, and neither derives from the other."""
    assert pipeline.ConfigurationError is ConfigurationError
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(NumericalFailure, RuntimeError)
    assert not issubclass(NumericalFailure, ValueError)
    assert not issubclass(ConfigurationError, RuntimeError)
