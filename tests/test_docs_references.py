"""Generated check: what the documentation points at exists.

Every ``repro.<dotted.path>`` named in ``README.md``, ``docs/*.md`` or a
docstring (module, class or function) under ``src/repro``, ``benchmarks``,
``tests`` and ``examples`` must resolve — a module by
:func:`importlib.util.find_spec`, anything else as an attribute of its
parent — and every ``*.md`` / ``*.yml`` / ``*.py`` path named there must be
a file of this checkout.  A path may be written from any directory
(``ci.yml``, ``cluster/node.py``, ``../bench/README.md``): it resolves
when some file's path ends with it.  One test per source file, so a deleted
module fails in the documents that still describe it.
"""

import ast
import importlib
import importlib.util
import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"(?<![\w./*<>-])[\w./-]*[\w-]\.(?:md|yml|py)\b(?![\w/])")
#: large generated trees that documents never describe
PRUNED = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}


def _sources():
    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    code = [path for tree in ("src/repro", "benchmarks", "tests", "examples")
            for path in sorted((ROOT / tree).rglob("*.py"))]
    return [str(path.relative_to(ROOT)) for path in documents + code]


def _text(source: str) -> str:
    """A document whole; of a Python file, its docstrings only."""
    text = (ROOT / source).read_text(encoding="utf-8")
    if not source.endswith(".py"):
        return text
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(text)) if isinstance(node, owners))


def _resolves(dotted: str) -> bool:
    """The longest importable prefix, then attributes the rest of the way."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            found = importlib.util.find_spec(name)
        except (ImportError, AttributeError):  # parent is not a package
            continue
        if found is None:
            continue
        target = importlib.import_module(name)
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.fixture(scope="module")
def checkout_files():
    files = []
    for directory, subdirectories, names in os.walk(ROOT):
        subdirectories[:] = [name for name in subdirectories
                             if name not in PRUNED]
        relative = Path(directory).relative_to(ROOT)
        files.extend("/" + str(relative / name) for name in names)
    return files


@pytest.mark.parametrize("source", _sources())
def test_references_resolve(source, checkout_files):
    text = _text(source)
    dangling = sorted(
        {dotted for dotted in DOTTED.findall(text) if not _resolves(dotted)}
        | {path for path in PATH.findall(text)
           if not any(known.endswith("/" + re.sub(r"^(\.\.?/)+", "", path))
                      for known in checkout_files)})
    assert not dangling, f"{source} points at things that do not exist"


def test_readme_states_the_python_version_the_package_requires():
    required = re.search(r'requires-python = ">=([\d.]+)"',
                         (ROOT / "pyproject.toml").read_text()).group(1)
    stated = re.search(r"Python ≥ ([\d.]+)",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert stated is not None and stated.group(1) == required
