"""Layering checks over the ``repro`` sources.

* Import hygiene: no ``repro`` module imports another module's private
  (underscore-prefixed) names, nor reads one through an imported name
  (``from . import rules as R`` … ``R._name``). A name another module
  needs is public.
* No unused parameters: every parameter of a function or lambda is read
  by its body (``self``, ``cls`` and ``_``-prefixed names are exempt).
* Driver-built relations: in ``core`` and ``baselines`` every
  ``createDataFrame`` call is inside ``pairs.local_frame``, so no query
  path ships driver rows through ``parallelize``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def private_imports(path: Path) -> list[str]:
    """Private names of ``repro`` modules that one source file imports
    (``from <repro module> import _name``) or reads through an imported
    name (``<alias>._name``, with ``<alias>`` bound by a ``repro`` import)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, bound = [], {}  # bound: local name -> dotted repro path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and _is_repro(alias.name):
                    bound[alias.asname] = alias.name
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not _is_repro(module):
            continue
        prefix = "." * node.level + (module + "." if module else "")
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{path.name}:{node.lineno}: {prefix}{alias.name}")
            bound[alias.asname or alias.name] = prefix + alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _is_private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno}: {bound[node.value.id]}.{node.attr}")
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
        "from . import rules as R\n"
        "import repro.core.pruning as P\n"
        "import numpy as np\n"
        "x = R._merge\n"
        "y = P._Phi\n"
        "z = scorer.score_np\n"
        "w = np._NoValue\n"
    )
    assert private_imports(src) == [
        "m.py:3: repro.core.aggregates._direct_expr",
        "m.py:4: .pruning._Phi",
        "m.py:9: .rules._merge",
        "m.py:10: repro.core.pruning._Phi",
    ]


def unused_params(path: Path) -> list[str]:
    """Parameters of a function or lambda in one source file that its body never reads."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {name}({p.arg})")
    return found


def test_no_unused_parameters():
    files = sorted(SRC.rglob("*.py"))
    assert [hit for f in files for hit in unused_params(f)] == []


def test_detector_flags_unused_params(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class C:\n"
        "    def m(self, a, _b, *args, c=1, **kw):\n"
        "        return a + c\n"
        "    @classmethod\n"
        "    def f(cls, x):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
        "g = lambda u, v: u\n"
    )
    assert unused_params(src) == [
        "m.py:2: m(args)",
        "m.py:2: m(kw)",
        "m.py:9: <lambda>(v)",
    ]
