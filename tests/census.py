"""Census of product definitions that only tests reach.

Lists every module-level and class-level ``def``/``class`` under
``src/repro`` whose name no file under ``src/``, ``bench/`` or ``examples/``
references (a name load or an attribute access; imports, ``__all__``,
the definition's own body and attributes read off a name a non-``repro``
import bound, such as ``np.tanh``, do not count), largest first, with its
line count.  A definition under any decorator but a plain descriptor or
``dataclass`` counts as reached, since the decorator may register it.
The last line is the total.  It is a report, not a gate:
dynamic dispatch (``getattr`` on a built string, a framework hook such as
``do_GET``) reads as unreferenced.

Run from the repository root::

    python3 tests/census.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = ROOT / "src" / "repro"
READERS = ("src", "bench", "examples")
PLAIN = {"property", "staticmethod", "classmethod", "cached_property", "dataclass"}


def name_of(node: ast.expr) -> str:
    """The bare name a decorator expression ends in."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def definitions(tree: ast.Module):
    """``(name, first_line, last_line)`` of module and class members that
    no registering decorator reaches."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [tree.body]
    while scopes:
        for node in scopes.pop():
            if isinstance(node, kinds) and all(
                name_of(decorator) in PLAIN for decorator in node.decorator_list
            ):
                yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                scopes.append(node.body)


def foreign_names(tree: ast.Module) -> set:
    """Names bound by imports of anything but ``repro`` (``np``, ``math``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names
                         if alias.name.split(".")[0] != "repro")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] != "repro":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def references(tree: ast.Module):
    """``(name, line)`` of every name load and attribute access, except
    attributes of a chain rooted in a :func:`foreign_names` name."""
    foreign = foreign_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                yield node.attr, node.lineno


def main() -> int:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in READERS for path in sorted((ROOT / folder).rglob("*.py"))}
    used = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            used.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if PRODUCT not in path.parents:
            continue
        for name, first, last in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(where == path and first <= line <= last
                   for where, line in used.get(name, ())):
                unused.append((last - first + 1, path.relative_to(ROOT), first, name))
    for lines, path, first, name in sorted(unused, key=lambda row: (-row[0], str(row[1]))):
        print(f"{lines:5d}  {path}:{first}  {name}")
    print(f"{len(unused)} definitions, {sum(row[0] for row in unused)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
