"""Modules of the package reach one another only through public names.

A name with a leading underscore belongs to the module that defines it.
The one exception is ``_num``: it holds the numerical helpers that every
module shares, so its names may be used anywhere in the package.  Being
shared is also its only reason to exist, so every function in ``_num``
must be used by another module, directly or through another ``_num``
function that is.

Likewise a private attribute belongs to its object: only the object's own
methods write it, through ``self``.

The library below the CLI is a function of its inputs alone: no function
outside ``cli`` takes a ``seed``, and every random generator it builds is
seeded with a literal.

scipy is imported only inside the functions that use it, so importing the
package, and running the commands that need no optimizer, loads numpy
alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soapcert"
SHARED = "_num"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: "" for the package itself,
    None for imports from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and \
            (node.module + ".").startswith("soapcert."):
        return node.module[len("soapcert"):].lstrip(".")
    return None


def private_uses(source: str, module: str) -> list[str]:
    """Each import or attribute access in `source` (the text of package
    module `module`) that reaches another module's private name."""
    tree = ast.parse(source)
    found = []
    modules = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = _source_module(node)
        if origin is None:
            continue
        for alias in node.names:
            if origin == "":
                modules[alias.asname or alias.name] = alias.name
                owner, name = "soapcert", alias.name
            else:
                owner, name = origin, alias.name
            if _private(name) and owner not in (module, SHARED) \
                    and name != SHARED:
                found.append(f"line {node.lineno}: imports {owner}.{name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = modules.get(node.value.id)
            if owner not in (None, module, SHARED) and _private(node.attr):
                found.append(f"line {node.lineno}: uses {owner}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text(encoding="utf-8"), path.stem) == []


def test_detector_flags_imports_and_attribute_uses():
    source = (
        "from . import _num, cone as cone_mod\n"
        "from .certify import _row, Mode\n"
        "from soapcert.graph import _subdivide\n"
        "from .cli import _own_helper\n"
        "cone_mod._check(1)\n"
        "cone_mod.check_apex(1)\n"
        "_num._column(1)\n"
    )
    assert private_uses(source, "cli") == [
        "line 2: imports certify._row",
        "line 3: imports graph._subdivide",
        "line 5: uses cone._check",
    ]


def _written_attributes(target):
    """The attribute nodes an assignment target writes: the target itself,
    the container of a subscript target, and the parts of an unpacking."""
    if isinstance(target, ast.Attribute):
        yield target
    elif isinstance(target, ast.Subscript):
        yield from _written_attributes(target.value)
    elif isinstance(target, ast.Starred):
        yield from _written_attributes(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for item in target.elts:
            yield from _written_attributes(item)


def _attribute_writes(node) -> list[tuple]:
    """(owner, name) of each attribute an assignment, or a setattr call
    with a literal name, writes."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "setattr" and len(node.args) >= 2 \
            and isinstance(node.args[1], ast.Constant) \
            and isinstance(node.args[1].value, str):
        return [(node.args[0], node.args[1].value)]
    else:
        return []
    return [(attr.value, attr.attr)
            for target in targets for attr in _written_attributes(target)]


def foreign_private_writes(source: str) -> list[str]:
    """Each write in `source` to a private attribute of an object other
    than `self`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for owner, name in _attribute_writes(node):
            if _private(name) and not (isinstance(owner, ast.Name)
                                       and owner.id == "self"):
                found.append((node.lineno, f"{ast.unparse(owner)}.{name}"))
    return [f"line {line}: writes {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_private_attributes_written_only_through_self(path):
    assert foreign_private_writes(path.read_text(encoding="utf-8")) == []


def test_write_detector_flags_foreign_private_attributes():
    flagged = (
        "edge._cache = {}\n"
        "edge._stencil, n = stencil, 3\n"
        "graph._ends[v] = []\n"
        "twin._count += 1\n"
        "self.edges[0]._cache = None\n"
        "setattr(edge, '_chords', chords)\n"
    )
    assert foreign_private_writes(flagged) == [
        "line 1: writes edge._cache",
        "line 2: writes edge._stencil",
        "line 3: writes graph._ends",
        "line 4: writes twin._count",
        "line 5: writes self.edges[0]._cache",
        "line 6: writes edge._chords",
    ]
    clean = (
        "class Edge:\n"
        "    def cache(self, key, value):\n"
        "        self._cache = {}\n"
        "        self._cache[key] = value\n"
        "        self.__dict__ = {}\n"
        "        setattr(self, '_seen', True)\n"
        "edge.samples = samples\n"
        "values[edge._index] = 0.0\n"
        "_parser = None\n"
        "x = edge._cache\n"
    )
    assert foreign_private_writes(clean) == []


def _shared_names_used(source: str) -> set[str]:
    """Names of `source` (another package module) that it reads from _num,
    as `_num.name` or through `from ._num import name`."""
    tree = ast.parse(source)
    aliases = set()
    used = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = _source_module(node)
        for alias in node.names:
            if origin == "" and alias.name == SHARED:
                aliases.add(alias.asname or alias.name)
            elif origin == SHARED:
                used.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add(node.attr)
    return used


def dead_shared_functions(sources: dict[str, str]) -> list[str]:
    """The top-level functions of _num (`sources` maps each package module
    to its text) that no other module reaches, directly or through the
    _num functions it uses."""
    tree = ast.parse(sources[SHARED])
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    live = set()
    for module, source in sources.items():
        if module != SHARED:
            live |= _shared_names_used(source) & functions.keys()
    pending = list(live)
    while pending:
        for node in ast.walk(functions[pending.pop()]):
            if isinstance(node, ast.Name) and node.id in functions \
                    and node.id not in live:
                live.add(node.id)
                pending.append(node.id)
    return sorted(functions.keys() - live)


def test_every_shared_function_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert dead_shared_functions(sources) == []


def test_dead_helper_detector_follows_shared_calls():
    sources = {
        SHARED: (
            "def used(x):\n    return _inner(x)\n"
            "def _inner(x):\n    return x\n"
            "def imported(x):\n    return x\n"
            "def dead(x):\n    return _dead_inner(x)\n"
            "def _dead_inner(x):\n    return x\n"
            "def _column(x):\n    return x\n"
        ),
        "cone": "from . import _num\n_num.used(1)\n",
        "graph": "from ._num import imported\nimported(1)\n",
        "cli": "from . import cone\ncone._column(1)\n",
    }
    assert dead_shared_functions(sources) == ["_column", "_dead_inner",
                                              "dead"]


SEEDED = "cli"


def seed_dependence(source: str) -> list[str]:
    """Each parameter named `seed` in `source`, and each default_rng call
    whose seed is not a single literal (an unseeded call included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + \
                [p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "seed" for p in params):
                found.append((node.lineno, "takes a seed"))
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name != "default_rng":
                continue
            given = node.args + [k.value for k in node.keywords]
            if len(given) != 1 or not isinstance(given[0], ast.Constant):
                found.append((node.lineno,
                              "default_rng of a non-literal seed"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.stem != SEEDED),
                         ids=lambda p: p.stem)
def test_library_takes_no_seed(path):
    assert seed_dependence(path.read_text(encoding="utf-8")) == []


def test_seed_detector_flags_parameters_and_rng_calls():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def a(x, seed=0):\n    return x\n"
        "def b(x, *, seed):\n    return x\n"
        "f = lambda seed: seed\n"
        "def c(n):\n    return np.random.default_rng(n)\n"
        "g = default_rng()\n"
        "h = np.random.default_rng(seed=7)\n"
        "k = np.random.default_rng(0)\n"
        "def d(rng_seed):\n    return rng_seed\n"
    )
    assert seed_dependence(source) == [
        "line 3: takes a seed",
        "line 5: takes a seed",
        "line 7: takes a seed",
        "line 9: default_rng of a non-literal seed",
        "line 10: default_rng of a non-literal seed",
    ]


def _scipy_modules(node) -> list[str]:
    """The scipy modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module]
    else:
        return []
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


def eager_scipy_imports(source: str) -> list[str]:
    """Each import of scipy in `source` that runs when the module is
    imported, i.e. every one outside a function body."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if not inside:
                found.extend(f"line {child.lineno}: imports {name}"
                             for name in _scipy_modules(child))
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_scipy_imported_only_inside_functions(path):
    assert eager_scipy_imports(path.read_text(encoding="utf-8")) == []


def test_scipy_detector_flags_module_level_imports():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "from scipy import optimize\n"
        "import os, scipy.spatial as sp\n"
        "try:\n"
        "    from scipy.stats import qmc\n"
        "except ImportError:\n"
        "    qmc = None\n"
        "class Search:\n"
        "    from scipy import special\n"
        "    def run(self):\n"
        "        from scipy.spatial import cKDTree\n"
        "def area():\n"
        "    from scipy import optimize\n"
        "    def inner():\n"
        "        import scipy.special\n"
        "from .scipy import helper\n"
        "import scipyish\n"
    )
    assert eager_scipy_imports(source) == [
        "line 2: imports scipy",
        "line 3: imports scipy",
        "line 4: imports scipy.spatial",
        "line 6: imports scipy.stats",
        "line 10: imports scipy",
    ]
