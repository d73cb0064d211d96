"""The package's source stays within the oldest Python that pyproject.toml
declares: every module parses with that version's grammar."""

import ast
import re
from pathlib import Path

import truncbell

PACKAGE = Path(truncbell.__file__).resolve().parent
OLDEST = (3, 10)


def test_declared_oldest_python_is_the_one_checked():
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups() == \
        tuple(map(str, OLDEST))


def test_every_module_parses_with_the_oldest_grammar():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
