"""The package surface: ``meshseg.__all__`` names each public object once,
no module under ``src/meshseg`` imports a name or takes a parameter it
never uses, only ``core`` calls ``build_topology`` (every other module
reads ``mesh.topology``), short-axis sums, means, norms, cross
products and ``einsum`` dots go through the helpers in ``core``, only
``core.gaussian`` calls ``np.exp``, only ``prefilter._dot`` takes a
BLAS dot in the prefilter, every
error class in ``errors`` is raised or subclassed somewhere in the
package, every private top-level function, class and module-level
name is read or passed on inside the package (not only by tests),
every float field of a parameter class rejects NaN, only ``denoise``
and ``prefilter`` import scipy (and then only ``scipy.sparse``), and
the whole pipeline runs without loading any part of scipy beyond
``scipy.sparse``, and every hypothesis ``@given`` test under ``tests/``
sets ``derandomize=True`` and ``database=None``, so the suite draws the
same examples on every machine.

The import and parameter checks are small ``ast`` walks rather than a
linter, so they run wherever the tests run. An imported name counts as
used when it appears as a bare name anywhere in the module (annotations
included) or as a string in the module's ``__all__``; a parameter, when
it appears as a bare name in its function's body (nested functions
included).
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshseg

PACKAGE_DIR = Path(meshseg.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent


def test_all_names_resolve_once():
    names = meshseg.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(meshseg, name)]
    assert not missing


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in *source* that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(name for name in imported if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .core import A, B\nprint(np, A)\n"
    assert unused_imports(source) == ["B", "os"]
    assert unused_imports("from .core import A\n__all__ = ['A']\n") == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter in *source* that its
    function's body never reads; ``self`` and ``cls`` are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [
                f"{node.name}.{a.arg}" for a in params if a.arg not in read | {"self", "cls"}
            ]
    return sorted(found)


def test_unused_parameters_are_found():
    source = (
        "def f(self, a, b, *args, c, **kw):\n    return a, kw\n"
        "class C:\n"
        "    def g(cls, d):\n"
        "        def h(e):\n            return d\n"
        "        return h\n"
    )
    assert unused_parameters(source) == ["f.args", "f.b", "f.c", "h.e"]
    assert unused_parameters("def f(x: int = 0) -> int:\n    return x\n") == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def topology_builds(source: str) -> list[int]:
    """Line numbers of the calls to ``build_topology`` in *source*, by bare
    name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "build_topology" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_topology_builds_are_found():
    source = (
        "from .core import build_topology\n"
        "topo = build_topology(mesh)\n"
        "mel = core.build_topology(mesh).mean_edge_length\n"
        "builder = build_topology\n"
        "topo = mesh.topology\n"
    )
    assert topology_builds(source) == [2, 3]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_only_core_builds_topology(path):
    builds = topology_builds(path.read_text(encoding="utf-8"))
    # core's one call is TriMesh.topology, which keeps what it builds.
    assert len(builds) == (1 if path.name == "core.py" else 0), builds


def short_axis_reductions(source: str) -> list[str]:
    """``function:line`` of each ``np.cross`` or ``einsum`` call,
    ``np.linalg.norm`` with an ``axis``, and ``sum`` or ``mean`` with an
    ``axis`` (as a method or a numpy function) in *source*; ``<module>``
    outside any function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = ast.unparse(func)
            has_axis = any(k.arg == "axis" for k in node.keywords)
            if (
                name == "np.cross"
                or name.rsplit(".", 1)[-1] == "einsum"
                or (name == "np.linalg.norm" and has_axis)
                or (isinstance(func, ast.Attribute) and func.attr in ("sum", "mean") and has_axis)
            ):
                found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_short_axis_reductions_are_found():
    source = (
        "def f(a, b):\n"
        "    c = np.cross(a, b)\n"
        "    n = np.linalg.norm(c, axis=1)\n"
        "    m = a.mean(axis=1) + np.sum(b, axis=0) + a.sum(axis=1, keepdims=True)\n"
        "    return np.linalg.norm(a) + a.sum() + a.mean() + c.max(axis=1)\n"
        "x = tri.mean(axis=1)\n"
    )
    assert short_axis_reductions(source) == ["f:2", "f:3", "f:4", "f:4", "f:4", "<module>:6"]


def test_einsum_calls_are_found():
    source = (
        "from numpy import einsum\n"
        "def f(a, b):\n"
        "    d = np.einsum('ij,ij->i', a, b)\n"
        "    return einsum('fk,fki->fi', a, b) + numpy.einsum('ii', a)\n"
        "def g(a):\n"
        "    return a.einsum_path + np.einsum_path('ii', a)[0]\n"
    )
    assert short_axis_reductions(source) == ["f:3", "f:4", "f:4"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_short_axis_reductions_use_core_helpers(path):
    """``row_norms``, ``row_cross``, ``sum_terms``, ``mean_terms`` and
    ``dot_terms`` give the same bits several times faster; numpy 2.4's
    einsum runs a 3-long axis one row at a time."""
    assert short_axis_reductions(path.read_text(encoding="utf-8")) == []


def exp_calls(source: str) -> list[str]:
    """``function:line`` of each ``np.exp`` or ``numpy.exp`` in *source*,
    called or passed on, and of each ``exp`` imported from numpy."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "exp"
            and ast.unparse(node.value) in ("np", "numpy")
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and any(a.name == "exp" for a in node.names)
        ):
            found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_exp_calls_are_found():
    source = (
        "from numpy import exp\n"
        "def f(a):\n"
        "    b = np.exp(a) + numpy.exp(-a)\n"
        "    return map(np.exp, b), math.exp(1.0), np.expm1(a), a.exp\n"
    )
    assert exp_calls(source) == ["<module>:1", "f:3", "f:3", "f:4"]


def test_only_core_gaussian_calls_exp():
    """Every Gaussian weight goes through ``core.gaussian``, so the
    package's ``exp`` bits are made at one call site."""
    found = [
        f"{path.name}:{site}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for site in exp_calls(path.read_text(encoding="utf-8"))
    ]
    assert [site.rsplit(":", 1)[0] for site in found] == ["core.py:gaussian"], found


def blas_reductions(source: str) -> list[str]:
    """``function:name`` of each dot or norm in *source* that numpy could
    hand to BLAS, called or passed on: ``np.dot``, ``np.vdot``,
    ``np.inner``, ``np.linalg.norm``, a ``.dot`` method, and any of these
    imported from numpy."""
    names = ("dot", "vdot", "inner", "norm")
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{function}:{ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.extend(f"{function}:{a.name}" for a in node.names if a.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_blas_reductions_are_found():
    source = (
        "from numpy.linalg import norm\n"
        "def f(a, b):\n"
        "    c = np.dot(a, b) + a.dot(b) + np.vdot(a, b) + numpy.inner(a, b)\n"
        "    return np.linalg.norm(a), map(np.dot, a, b), a @ b, np.dot_terms\n"
    )
    assert blas_reductions(source) == [
        "<module>:norm", "f:np.dot", "f:a.dot", "f:np.vdot", "f:numpy.inner",
        "f:np.linalg.norm", "f:np.dot",
    ]


def test_prefilter_dots_are_blocked():
    """Above 10,000 entries OpenBLAS splits a dot among its threads, which
    moves the last bits with the thread count; ``prefilter._dot`` never
    hands it that many, and nothing else in the prefilter takes a BLAS
    dot or norm."""
    source = (PACKAGE_DIR / "prefilter.py").read_text(encoding="utf-8")
    assert blas_reductions(source) == ["_dot:np.dot", "_dot:np.dot"]


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Classes defined in *errors_source*, other than ``MeshError``, that no
    source raises (called or bare) or names as a base class."""
    defined = [
        node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)
    ]
    used = set()
    for source in [errors_source, *sources]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(ast.unparse(exc).rsplit(".", 1)[-1])
            elif isinstance(node, ast.ClassDef):
                used.update(ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases)
    return sorted(name for name in defined if name not in used | {"MeshError"})


def test_unraised_errors_are_found():
    errors = (
        "class MeshError(Exception):\n    pass\n"
        "class ParseError(MeshError):\n    pass\n"
        "class TokenError(ParseError):\n    pass\n"
        "class EdgeError(MeshError):\n    pass\n"
        "class AreaError(MeshError):\n    pass\n"
        "class LabelError(MeshError):\n    pass\n"
    )
    sources = [
        "def f(x):\n    if x:\n        raise TokenError(x)\n    raise errors.AreaError\n",
        "try:\n    pass\nexcept LabelError:\n    raise\nEdgeError('not raised')\n",
    ]
    assert unraised_errors(errors, sources) == ["EdgeError", "LabelError"]


def test_every_error_class_is_raised():
    """An error type that nothing in the package raises is dead surface."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))]
    errors = (PACKAGE_DIR / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, sources) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
GLOBALS = (ast.ClassDef, ast.Assign, ast.AnnAssign)


def _bound_names(top: ast.stmt) -> set[str]:
    """The names a top-level statement binds: a def's or class's own name,
    or every name among an assignment's targets."""
    if isinstance(top, (*FUNCTIONS, ast.ClassDef)):
        return {top.name}
    targets = getattr(top, "targets", None) or [getattr(top, "target", None)]
    nodes = [node for target in targets if target is not None for node in ast.walk(target)]
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def unused_private_names(sources: dict[str, str], kinds) -> list[str]:
    """``module:name`` for each private name that a top-level statement of
    one of *kinds* binds in *sources* (module name -> text) and that no
    source reads or passes on: no bare name or attribute outside the
    statement that binds it reads it. Dunder names are not private."""
    defined, read = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = _bound_names(top)
            if isinstance(top, kinds):
                defined += [
                    (module, name) for name in own if name.startswith("_") and not name.endswith("__")
                ]
            for node in ast.walk(top):
                name = getattr(node, "id", None) if isinstance(node, ast.Name) else None
                if isinstance(node, ast.Attribute):
                    name = node.attr
                if name is not None and name not in own:
                    read.add(name)
    return sorted({f"{module}:{name}" for module, name in defined if name not in read})


def test_unused_private_functions_are_found():
    sources = {
        "a": (
            "def _called():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _unused():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "def _passed_on():\n    pass\n"
            "def public():\n    return _called()\n"
            "class C:\n    def _method(self):\n        pass\n"
        ),
        "b": (
            "from .a import _unused\n"
            "a._by_attribute()\n"
            "pool.submit(_passed_on, 1)\n"
        ),
    }
    assert unused_private_names(sources, FUNCTIONS) == ["a:_recursive", "a:_unused"]


def test_every_private_function_is_used_in_the_package():
    """A private helper that only tests call is test code: it belongs
    with the tests."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert unused_private_names(sources, FUNCTIONS) == []


def test_unused_private_globals_are_found():
    sources = {
        "a": (
            "_TABLE = [1, 2]\n"
            "_ORPHAN = {}\n"
            "_FIRST, _SECOND = 1, 2\n"
            "_TYPED: int = 3\n"
            "_SELF = 4\n"
            "_SELF = _SELF + 1\n"
            "__version__ = '1'\n"
            "class _Used:\n    pass\n"
            "class _Unused:\n    pass\n"
            "def _helper():\n    pass\n"
            "def public():\n    return _TABLE[0] + _helper.x + _SECOND\n"
        ),
        "b": "x = a._TYPED\nisinstance(x, _Used)\n",
    }
    assert unused_private_names(sources, GLOBALS) == [
        "a:_FIRST", "a:_ORPHAN", "a:_SELF", "a:_Unused"
    ]


def test_every_private_global_is_used_in_the_package():
    """A private table or class that nothing in the package reads is left
    over from code that is gone."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert unused_private_names(sources, GLOBALS) == []


def scipy_imports(source: str) -> list[str]:
    """The scipy modules *source* imports, in order. ``from M import N``
    counts as ``M.N`` for each name, since N may be a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{a.name}" for a in node.names]
    return [name for name in found if name == "scipy" or name.startswith("scipy.")]


def test_scipy_imports_are_found():
    source = (
        "import scipy.sparse as sp\n"
        "import numpy as np, scipy\n"
        "from scipy.sparse import csgraph\n"
        "from .core import scipy_like\n"
        "def f():\n    from scipy import linalg\n"
    )
    assert scipy_imports(source) == [
        "scipy.sparse", "scipy", "scipy.sparse.csgraph", "scipy.linalg"
    ]


# The modules allowed to import scipy; each imports ``scipy.sparse`` only.
SCIPY_MODULES = ("denoise.py", "prefilter.py")


@pytest.mark.parametrize(
    "path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name
)
def test_scipy_is_imported_only_as_sparse_where_allowed(path):
    """Segmentation and the rest run on numpy alone; the prefilter's
    system and the guided filter's blend matrix are the only scipy users."""
    allowed = {"scipy.sparse"} if path.name in SCIPY_MODULES else set()
    assert set(scipy_imports(path.read_text(encoding="utf-8"))) <= allowed


# A valid instance of each parameter class of the package.
PARAMS_EXAMPLES = [
    meshseg.UnfParams(0.5, 10, 10),
    meshseg.BnfParams(0.45, 10, 10),
    meshseg.GnfParams(2.0, 2.0, 0.35, 10, 10),
    meshseg.L1Params(40.0, 10, 10),
    meshseg.PrefilterParams(),
    meshseg.SegmentParams(0.1),
    meshseg.NoiseSpec(0.5),
]


def test_params_examples_cover_every_validated_dataclass():
    validated = {
        obj for obj in map(meshseg.__dict__.get, meshseg.__all__)
        if dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__")
    }
    assert validated == {type(params) for params in PARAMS_EXAMPLES}


@pytest.mark.parametrize(
    "params, field",
    [
        (params, f.name)
        for params in PARAMS_EXAMPLES
        for f in dataclasses.fields(params)
        if f.type in ("float", float)
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_params_reject_nan(params, field):
    """NaN fails every ordered comparison, so a range check written as
    ``value <= 0`` lets it through; each float field must reject it."""
    with pytest.raises(ValueError):
        dataclasses.replace(params, **{field: float("nan")})


@pytest.mark.parametrize(
    "params, field",
    [
        (meshseg.BnfParams(0.45, 2, 1), "sigma_r"),
        (meshseg.GnfParams(2, 2, 0.35, 2, 1), "sigma_r"),
        (meshseg.PrefilterParams(), "sigma_w"),
    ],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_params_reject_a_gaussian_scale_whose_square_vanishes(params, field):
    """2σ² rounds to 0 at σ = 1e-170, and the Gaussian weight at distance
    0 is then exp(0 / −0.0), NaN; σ = 1e-150 is still a scale."""
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(params, **{field: 1e-170})
    dataclasses.replace(params, **{field: 1e-150})


@pytest.mark.parametrize(
    "params, field, value",
    [
        (params, f.name, value)
        for params in PARAMS_EXAMPLES
        for f in dataclasses.fields(params)
        if f.type in ("int", int)
        for value in (float("nan"), float("inf"), 2.5, True)
    ],
    ids=lambda value: value if isinstance(value, str) else (
        repr(value) if isinstance(value, float) else type(value).__name__
    ),
)
def test_params_reject_bad_counts(params, field, value):
    """A count that is not an integer fails at construction, not later in
    ``range``; NaN would otherwise pass every ``<`` check. A numpy integer
    is a count, a bool is not."""
    with pytest.raises(ValueError):
        dataclasses.replace(params, **{field: value})
    dataclasses.replace(params, **{field: np.int64(getattr(params, field))})


def test_pipeline_loads_only_scipy_sparse():
    """Every stage runs on numpy and ``scipy.sparse`` alone: ``ev`` and the
    guided filter search radii on a numpy cell grid, the prefilter runs its
    own CG, and segmentation its own components and breadth-first search.
    ``scipy.sparse.csgraph`` would load ``scipy.sparse.linalg`` and
    ``scipy.linalg`` (about 11 MB of RSS), and ``scipy.spatial`` several MB."""
    script = (
        "import contextlib, io, sys\n"
        "from meshseg import (BnfParams, GnfParams, L1Params, NoiseSpec, PrefilterParams,\n"
        "    SegmentParams, UnfParams, add_noise, cube, denoise, ev, msae, segment)\n"
        "from meshseg.cli import main\n"
        "truth = cube(2)\n"
        "noisy = add_noise(truth, NoiseSpec(0.3, 'normal', seed=1))\n"
        "labels = segment(noisy, SegmentParams(0.05, 2), PrefilterParams(5, 5, 2))\n"
        "for params in (UnfParams(0.5, 2, 2), BnfParams(0.45, 2, 2), L1Params(40, 2, 2),\n"
        "               GnfParams(2, 2, 0.35, 2, 1)):\n"
        "    result = denoise(noisy, params, labels=labels)\n"
        "    msae(result, truth), ev(result, truth)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg', 'scipy.spatial')\n"
        "print([name for name in heavy if name in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _decorator_calls(node, name: str) -> list[ast.Call]:
    """The decorators of *node* that call *name*, bare or as an attribute."""
    return [
        d
        for d in node.decorator_list
        if isinstance(d, ast.Call) and name in (getattr(d.func, "id", None), getattr(d.func, "attr", None))
    ]


def unpinned_given_tests(source: str) -> list[str]:
    """Names of the ``@given`` functions in *source* whose ``@settings``
    does not set both ``derandomize=True`` and ``database=None``."""
    pinned = {("derandomize", True), ("database", None)}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _decorator_calls(node, "given"):
            keywords = {
                (k.arg, k.value.value)
                for call in _decorator_calls(node, "settings")
                for k in call.keywords
                if isinstance(k.value, ast.Constant)
            }
            if not pinned <= keywords:
                found.append(node.name)
    return sorted(found)


def test_unpinned_given_tests_are_found():
    source = (
        "@settings(max_examples=5, derandomize=True, database=None)\n"
        "@given(st.integers())\ndef test_pinned(x):\n    pass\n"
        "@hypothesis.settings(derandomize=True)\n"
        "@hypothesis.given(st.integers())\ndef test_no_database(x):\n    pass\n"
        "@settings(derandomize=False, database=None)\n"
        "@given(st.integers())\ndef test_random(x):\n    pass\n"
        "@given(st.integers())\ndef test_bare(x):\n    pass\n"
        "@settings(derandomize=True, database=None)\ndef helper():\n    pass\n"
    )
    assert unpinned_given_tests(source) == ["test_bare", "test_no_database", "test_random"]


@pytest.mark.parametrize("path", sorted(TESTS_DIR.glob("*.py")), ids=lambda p: p.name)
def test_given_tests_draw_the_same_examples_everywhere(path):
    assert unpinned_given_tests(path.read_text(encoding="utf-8")) == []
