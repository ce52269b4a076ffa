"""Import hygiene: no ``repro`` module imports another module's private
(underscore-prefixed) names. A name another module needs is public."""
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
