"""Layering checks over the ``repro`` sources.

* Import hygiene: no ``repro`` module imports another module's private
  (underscore-prefixed) names. A name another module needs is public.
* Driver-built relations: in ``core`` and ``baselines`` every
  ``createDataFrame`` call is inside ``pairs.local_frame``, so no query
  path ships driver rows through ``parallelize``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def private_imports(path: Path) -> list[str]:
    """``from <repro module> import _name`` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "repro" and not module.startswith("repro."):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{path.name}:{node.lineno}: {'.' * node.level}{module}.{alias.name}")
    return found


def test_no_private_cross_module_imports():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 10
    assert [hit for f in files for hit in private_imports(f)] == []


LOCAL_RELATION_HELPER = "local_frame"


def stray_create_dataframe(path: Path) -> list[str]:
    """``createDataFrame`` calls in one source file outside the local-relation helper."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "createDataFrame"
            and func != LOCAL_RELATION_HELPER
        ):
            found.append(f"{path.name}:{node.lineno}: in {func or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_driver_rows_become_local_relations():
    files = sorted(f for pkg in ("core", "baselines") for f in (SRC / pkg).rglob("*.py"))
    assert any(f.name == "pairs.py" for f in files)
    assert [hit for f in files for hit in stray_create_dataframe(f)] == []


def test_detector_flags_stray_create_dataframe(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import pandas as pd\n"
        "def local_frame(spark, rows, schema):\n"
        "    return spark.createDataFrame(rows)\n"
        "def result(spark, rows):\n"
        "    def inner():\n"
        "        return spark.createDataFrame(pd.DataFrame(rows))\n"
        "    return inner()\n"
        "BUCKETS = spark.createDataFrame([(1,)])\n"
    )
    assert stray_create_dataframe(src) == ["m.py:6: in inner", "m.py:8: in <module>"]


def test_detector_flags_private_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from repro.core.aggregates import _direct_expr, G_COL\n"
        "from .pruning import _Phi\n"
        "from . import scorer\n"
    )
    assert private_imports(src) == [
        "m.py:3: repro.core.aggregates._direct_expr",
        "m.py:4: .pruning._Phi",
    ]
