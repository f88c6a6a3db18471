"""Modules of the package reach one another only through public names.

A name with a leading underscore belongs to the module that defines it.
The one exception is ``_num``: it holds the numerical helpers that every
module shares, so its names may be used anywhere in the package.  Being
shared is also its only reason to exist, so every top-level name of
``_num`` must be used by another module, directly or through another
``_num`` name that is.  Every other module's private top-level functions,
classes and constants must be reached from its public code, directly or
through another helper that is.

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


def _defined_names(node) -> list[str]:
    """The names a top-level statement defines: a function's or class's,
    or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _shared_scope(tree) -> tuple[set[str], set[str]]:
    """The local names a module binds to _num itself, and those it
    imports from _num."""
    aliases, imported = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = _source_module(node)
        for alias in node.names:
            if origin == "" and alias.name == SHARED:
                aliases.add(alias.asname or alias.name)
            elif origin == SHARED:
                imported.add(alias.asname or alias.name)
    return aliases, imported


def _references(node, module: str, scope) -> set[tuple[str, str]]:
    """(module, name) of each name that the code under `node`, in package
    module `module` with _shared_scope `scope`, reads: its own module's
    names, and _num's names read as `_num.name` or imported from _num."""
    aliases, imported = scope
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add((SHARED if sub.id in imported else module, sub.id))
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id in aliases:
            found.add((SHARED, sub.attr))
    return found


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """The helpers of the package (`sources` maps each module to its text)
    that nothing reaches, as "module.name".  A helper is a top-level
    function, class or constant with a private name, or any top-level one
    of _num, which exists to be shared.  The rest of a module's top-level
    code, _num's excepted, reaches the names it reads, and a helper that
    is reached reaches the names it reads in turn."""
    helpers = {}  # (module, name) -> the statement that defines it
    scopes = {}
    roots = []
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes[module] = _shared_scope(tree)
        for node in tree.body:
            names = _defined_names(node)
            if names and all(_private(n) or module == SHARED for n in names):
                helpers.update(((module, n), node) for n in names)
            elif module != SHARED:
                roots.append((module, node))
    live = set()
    for module, node in roots:
        live |= _references(node, module, scopes[module]) & helpers.keys()
    pending = list(live)
    while pending:
        module, name = pending.pop()
        for key in _references(helpers[(module, name)], module,
                               scopes[module]) & helpers.keys() - live:
            live.add(key)
            pending.append(key)
    return sorted(f"{m}.{n}" for m, n in helpers.keys() - live)


def test_every_helper_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


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
    assert dead_helpers(sources) == ["_num._column", "_num._dead_inner",
                                     "_num.dead"]


def test_dead_helper_detector_flags_unused_private_helpers():
    sources = {"cone": (
        "_LIMIT = 3\n"
        "_UNUSED = 4\n"
        "def _used(x):\n    return x + _LIMIT\n"
        "def _dead(x):\n    return _used(x) + _dead(x)\n"
        "def area(x):\n    return _used(x)\n"
    )}
    assert dead_helpers(sources) == ["cone._UNUSED", "cone._dead"]


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
