"""Every settings type of ``tvdeblur`` rejects a bad setting with the one
``ConfigurationError``: each ``raise`` in a ``__post_init__`` raises it."""

import ast
from pathlib import Path

import pytest

from tvdeblur import pipeline
from tvdeblur.krylov import ConfigurationError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tvdeblur"

#: raises in a ``__post_init__`` that are no settings error: a preconditioner
#: with a nonpositive eigenvalue is a numerical failure, which a sweep stars
#: and the CLI reports with exit code 3
NUMERICAL = {"FactoredPreconditioner.__post_init__: "
             "IndefinitePreconditionerError(self.kind, self.alpha, smallest)"}


def foreign_raises(source: str) -> list[str]:
    """``class.__post_init__: exception`` for each ``raise`` in a
    ``__post_init__`` of ``source`` that does not raise
    ``ConfigurationError(...)``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name == "__post_init__"):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Raise):
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name)
                        and exc.id == "ConfigurationError"):
                    found.append(f"{cls.name}.__post_init__: "
                                 f"{ast.unparse(node.exc) if node.exc else 'raise'}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_post_init_raises_only_configuration_error(path):
    assert set(foreign_raises(path.read_text(encoding="utf-8"))) <= NUMERICAL


def test_a_foreign_raise_is_found():
    source = ("class Spec:\n"
              "    def __post_init__(self):\n"
              "        if self.n < 1:\n"
              "            raise ConfigurationError('n')\n"
              "        if self.m < 1:\n"
              "            raise ValueError('m')\n"
              "        try:\n"
              "            pass\n"
              "        except KeyError:\n"
              "            raise\n"
              "    def check(self):\n"
              "        raise TypeError('not a __post_init__')\n")
    assert foreign_raises(source) == ["Spec.__post_init__: ValueError('m')",
                                      "Spec.__post_init__: raise"]


def test_one_configuration_error():
    """The pipeline's name is the krylov class, a ValueError."""
    assert pipeline.ConfigurationError is ConfigurationError
    assert issubclass(ConfigurationError, ValueError)
