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
* No module-level mutable state in ``core``, ``plan``, ``baselines`` and
  ``bench``:
  no module-level name is bound to a list, dict or set (a display, a
  comprehension or a ``list()``/``dict()``/``set()`` call); ``__all__``
  is exempt. Per-call state lives in the call (or its context).
* One tie order: only the exact path's selection
  (``exact.select_rows``) calls ``pairs.identity_keys``, so the driver
  paths rank pairs through one (score, output identity) order.
* One decode: only the exact path's side decode (``exact._side_arrays``)
  calls ``scorer.dense`` and ``pairs.trend_rows``, so the driver top-k,
  Φp, the client baselines and the lazy trendwise tasks read block sides
  one way.
* One scoring kernel: only the masked scoring kernel
  (``scorer.score_pairs``) and Φp's bounds kernel (``pruning.bound_pairs``)
  call ``scorer.diff_np``, so every exact score, Φp's refined segments
  included, is computed one way.
* No scoring in the client baselines: no module in ``baselines`` imports
  ``numpy``. Trends are scored and ranked by ``core``'s driver kernels,
  so the client cannot grow a private copy of the pair logic.
* No catch-all options: no public function or method in ``core``,
  ``plan`` or ``baselines`` takes ``**kwargs``, so every option a caller
  can set is a named parameter.
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


def calls_outside(path: Path, callee: str, allowed: str | None) -> list[str]:
    """Calls of ``callee`` (a bare name or an attribute) in one source file
    outside the function named ``allowed`` (None: anywhere)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and (allowed is None or func != allowed) and callee in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            found.append(f"{path.name}:{node.lineno}: in {func or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


LOCAL_RELATION_HELPER = "local_frame"


def stray_create_dataframe(path: Path) -> list[str]:
    """``createDataFrame`` calls in one source file outside the local-relation helper."""
    return calls_outside(path, "createDataFrame", LOCAL_RELATION_HELPER)


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


TIE_ORDER_SELECTION = SRC / "core" / "exact.py", "select_rows"


def test_one_tie_order():
    """Only the exact path's selection orders pair rows by output identity."""
    home, selection = TIE_ORDER_SELECTION
    files = sorted(SRC.rglob("*.py"))
    assert home in files
    hits = [
        hit for f in files
        for hit in calls_outside(f, "identity_keys", selection if f == home else None)
    ]
    assert hits == []


def test_detector_flags_identity_key_calls(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from repro.core import pairs\n"
        "from repro.core.pairs import identity_keys\n"
        "def select_rows(spec, parts):\n"
        "    return identity_keys(spec, parts)\n"
        "def topk(spec, parts):\n"
        "    keys = pairs.identity_keys(spec, parts)\n"
        "    def inner():\n"
        "        return identity_keys(spec, parts)\n"
        "    return keys, inner\n"
        "ORDER = identity_keys\n"
        "KEYS = identity_keys(None, [])\n"
    )
    assert calls_outside(src, "identity_keys", "select_rows") == [
        "m.py:6: in topk", "m.py:8: in inner", "m.py:11: in <module>",
    ]
    assert calls_outside(src, "identity_keys", None)[0] == "m.py:4: in select_rows"


SIDE_DECODE = SRC / "core" / "exact.py", "_side_arrays"


def test_one_decode():
    """Only the exact path's side decode builds trend ids and dense arrays."""
    home, decode = SIDE_DECODE
    files = sorted(SRC.rglob("*.py"))
    assert home in files
    hits = [
        hit for f in files for callee in ("dense", "trend_rows")
        for hit in calls_outside(f, callee, decode if f == home else None)
    ]
    assert hits == []


def test_detector_flags_decode_calls(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from repro.core import scorer\n"
        "from repro.core.pairs import trend_rows\n"
        "def _side_arrays(pdf, vary, domain):\n"
        "    tids, ti = trend_rows(pdf, vary)\n"
        "    return scorer.dense(len(tids), domain, ti, pdf.g, [])\n"
        "def kernel(pdf, vary, domain):\n"
        "    return scorer.dense(1, domain, pdf.r, pdf.g, [])\n"
        "IDS = trend_rows(None, ())\n"
    )
    assert calls_outside(src, "dense", "_side_arrays") == ["m.py:7: in kernel"]
    assert calls_outside(src, "trend_rows", "_side_arrays") == ["m.py:8: in <module>"]
    assert calls_outside(src, "trend_rows", None) == [
        "m.py:4: in _side_arrays", "m.py:8: in <module>",
    ]


DIFF_KERNELS = {SRC / "core" / "scorer.py": "score_pairs", SRC / "core" / "pruning.py": "bound_pairs"}


def test_one_scoring_kernel():
    """Only the scoring kernel and Φp's bounds kernel compute DIFF(p) over arrays."""
    files = sorted(SRC.rglob("*.py"))
    assert set(DIFF_KERNELS) <= set(files)
    hits = [hit for f in files for hit in calls_outside(f, "diff_np", DIFF_KERNELS.get(f))]
    assert hits == []


def test_detector_flags_diff_calls(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "from repro.core import scorer\n"
        "from repro.core.scorer import diff_np\n"
        "def bound_pairs(a1, a2, p):\n"
        "    return diff_np(a1.max, a2.min, p)\n"
        "class _Phi:\n"
        "    def _refine(self, v1, v2, match, p):\n"
        "        d = np.where(match, scorer.diff_np(v1, v2, p), 0.0)\n"
        "        return d.sum(axis=1)\n"
        "GAP = diff_np(np.zeros(1), np.ones(1), 2)\n"
    )
    assert calls_outside(src, "diff_np", "bound_pairs") == [
        "m.py:8: in _refine", "m.py:10: in <module>",
    ]


def catch_all_options(path: Path) -> list[str]:
    """Public functions, and public methods of public classes, of one source
    file that take ``**kwargs``."""
    found = []

    def check(defs, owner=""):
        for node in defs:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.kwarg:
                found.append(f"{path.name}:{node.lineno}: {owner}{node.name}(**{node.args.kwarg.arg})")
            elif isinstance(node, ast.ClassDef) and not owner:
                check(node.body, node.name + ".")

    check(ast.parse(path.read_text(), filename=str(path)).body)
    return found


def test_no_catch_all_options():
    files = sorted(f for pkg in ("core", "plan", "baselines") for f in (SRC / pkg).rglob("*.py"))
    assert {"compare.py", "lower.py", "udf.py"} <= {f.name for f in files}
    assert [hit for f in files for hit in catch_all_options(f)] == []


def test_detector_flags_catch_all_options(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def compare_topk(df, spec, k=5, *, strategy='compare', **phi_kwargs):\n"
        "    return df\n"
        "def _helper(**kw):\n"
        "    return kw\n"
        "def wrap(f):\n"
        "    def inner(*args, **kwargs):\n"
        "        return f(*args, **kwargs)\n"
        "    return inner\n"
        "class Plan:\n"
        "    def run(self, *, k, **opts):\n"
        "        return opts\n"
        "    def _go(self, **opts):\n"
        "        return opts\n"
        "class _Hidden:\n"
        "    def run(self, **opts):\n"
        "        return opts\n"
        "def typed(df, *cols):\n"
        "    return cols\n"
    )
    assert catch_all_options(src) == [
        "m.py:1: compare_topk(**phi_kwargs)", "m.py:10: Plan.run(**opts)",
    ]


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


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def module_mutables(path: Path) -> list[str]:
    """Module-level names of one source file bound to a new list, dict or set."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
        mutable = isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
        )
        if names and mutable:
            found.append(f"{path.name}:{node.lineno}: {', '.join(names)}")
    return found


def test_no_module_level_mutable_state():
    files = sorted(
        f for pkg in ("core", "plan", "baselines", "bench") for f in (SRC / pkg).rglob("*.py")
    )
    assert {"aggregates.py", "harness.py"} <= {f.name for f in files}
    assert [hit for f in files for hit in module_mutables(f)] == []


def test_detector_flags_module_mutables(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "__all__ = ['f']\n"
        "CACHE: list[int] = []\n"
        "NAMES = ('a', 'b')\n"
        "BY_NAME = {n: 1 for n in NAMES}\n"
        "SEEN = set()\n"
        "A = B = dict(x=1)\n"
        "LIMIT = len(NAMES)\n"
        "def f():\n"
        "    local = []\n"
        "    return local\n"
    )
    assert module_mutables(src) == [
        "m.py:2: CACHE",
        "m.py:4: BY_NAME",
        "m.py:5: SEEN",
        "m.py:6: A, B",
    ]


def numpy_imports(path: Path) -> list[str]:
    """``import numpy`` / ``from numpy… import`` statements of one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_baselines_score_through_core():
    files = sorted((SRC / "baselines").rglob("*.py"))
    assert {"client_core.py", "udf.py", "middleware.py"} <= {f.name for f in files}
    assert [hit for f in files for hit in numpy_imports(f)] == []


def test_detector_flags_numpy_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "import pandas as pd, numpy.linalg\n"
        "from numpy import intersect1d\n"
        "from numpy.lib import stride_tricks\n"
        "from .numpy import x\n"
        "import numpyro\n"
        "def f():\n"
        "    import numpy\n"
        "    return numpy\n"
    )
    assert numpy_imports(src) == ["m.py:1", "m.py:2", "m.py:3", "m.py:4", "m.py:8"]
