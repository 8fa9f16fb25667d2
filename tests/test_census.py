"""Tests for ``tests/census.py``, the report of product definitions that
only tests reach."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parent / "census.py")
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)


@pytest.fixture
def run_census(tmp_path, monkeypatch, capsys):
    """Write ``{relative path: source}`` under a scratch root, run the
    census over it and return its report lines."""
    def run(files):
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        monkeypatch.setattr(census, "ROOT", tmp_path)
        monkeypatch.setattr(census, "PRODUCT", tmp_path / "src" / "repro")
        assert census.main() == 0
        return capsys.readouterr().out.splitlines()
    return run


def reported(lines):
    """Names in the report, without the total line."""
    return {line.split()[-1] for line in lines[:-1]}


def test_unreferenced_definition_is_listed_with_its_line_count(run_census):
    lines = run_census({"src/repro/mod.py": """\
        def orphan():
            a = 1
            return a
        """})
    assert lines[0].split() == ["3", "src/repro/mod.py:1", "orphan"]
    assert lines[-1] == "1 definitions, 3 lines"


def test_reference_from_any_reader_reaches_a_definition(run_census):
    lines = run_census({
        "src/repro/mod.py": """\
            def used_by_bench():
                return 1

            def used_by_example():
                return 2
            """,
        "bench/run.py": "import repro.mod as m\nm.used_by_bench()\n",
        "examples/demo.py": "from repro.mod import used_by_example\nused_by_example()\n",
    })
    assert lines == ["0 definitions, 0 lines"]


def test_imports_and_own_body_do_not_count_as_references(run_census):
    lines = run_census({
        "src/repro/mod.py": """\
            __all__ = ["recursive", "imported"]

            def recursive(n):
                return recursive(n - 1) if n else 0

            def imported():
                return 1
            """,
        "src/repro/other.py": "from repro.mod import imported\n",
    })
    assert reported(lines) == {"recursive", "imported"}


def test_attributes_of_foreign_imports_do_not_reach_a_definition(run_census):
    lines = run_census({
        "src/repro/mod.py": """\
            def tanh(x):
                return x

            def exp(x):
                return x

            def norm(x):
                return x

            def kept(x):
                return x
            """,
        "src/repro/other.py": """\
            import math
            import numpy as np
            from repro import mod

            np.tanh(1.0) + math.exp(1.0) + np.linalg.norm(1.0) + mod.kept(1.0)
            """,
    })
    assert reported(lines) == {"tanh", "exp", "norm"}


def test_tests_are_not_readers(run_census):
    lines = run_census({
        "src/repro/mod.py": "def tested_only():\n    return 1\n",
        "tests/test_mod.py": "from repro.mod import tested_only\ntested_only()\n",
    })
    assert reported(lines) == {"tested_only"}


def test_registering_decorators_count_as_reached(run_census):
    lines = run_census({"src/repro/mod.py": """\
        REGISTRY = {}

        def register(fn):
            REGISTRY[fn.__name__] = fn
            return fn

        @register
        def registered():
            return 1

        class Box:
            def __init__(self):
                self.size = 0

            @property
            def unused_view(self):
                return self.size
        """})
    assert reported(lines) == {"Box", "unused_view"}


def test_report_is_sorted_largest_first(run_census):
    lines = run_census({"src/repro/mod.py": """\
        def small():
            return 1

        def large():
            a = 1
            b = 2
            return a + b
        """})
    assert [line.split()[-1] for line in lines[:-1]] == ["large", "small"]
    assert lines[-1] == "2 definitions, 6 lines"
